"""Code hygiene: no dead module-level imports, no parameter a function never reads, no default
that no caller overrides, no private kernel that only its own public shell calls, no private
function or class that nothing in the library references (only the tests would), no fixed-seed
draw outside the one cache, no singular values taken outside linalg and two allowed owners, no
per-matrix recovery call in the suites, no validating shell read in library code outside the
listed sites, no module imports scipy and the library runs without it, a process loads only
the modules it runs, the package binds every module's __all__ on demand as an eager import did,
and every __all__ name is read outside its module."""

import ast
import collections
import importlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import matorder
from matorder.fileio import write_matrix_file

PACKAGE = pathlib.Path(matorder.__file__).parent
# every module of the library, those of its subpackages (the suites) included
FILES = sorted(PACKAGE.rglob("*.py"))
# the package's __init__ imports names only to re-export them
MODULES = [p for p in FILES if p != PACKAGE / "__init__.py"]


def _module_name(path: pathlib.Path) -> str:
    """The dotted name of the module at path below matorder ("linalg", "suites", "suites.draws"), or "matorder"."""
    parts = path.relative_to(PACKAGE).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts) or "matorder"


def _in_suites(module: str) -> bool:
    return module == "suites" or module.startswith("suites.")


def _path_id(path: pathlib.Path) -> str:
    return path.relative_to(PACKAGE).as_posix()


# module name -> text, for the scans that read the library as a whole
SOURCES = {_module_name(p): p.read_text() for p in FILES}
# the modules whose __all__ the package re-exports whole
REEXPORTED = ["linalg", "order", "halfplane", "localiso", "classify", "monotone"]


@pytest.mark.parametrize("module", REEXPORTED)
def test_package_binds_each_public_name_of_the_module(module):
    mod = importlib.import_module(f"matorder.{module}")
    assert [name for name in mod.__all__ if getattr(matorder, name, None) is not getattr(mod, name)] == []


def _unused_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_scans_read_every_module_of_the_library():
    # a glob of the package's top level would miss every module of the suites package
    on_disk = {pathlib.Path(root) / name for root, _, names in os.walk(PACKAGE) for name in names if name.endswith(".py")}
    assert set(FILES) == on_disk == {PACKAGE / "__init__.py", *MODULES}
    assert len(SOURCES) == len(on_disk) and set(SOURCES) == {_module_name(path) for path in on_disk}
    assert set(PACKAGE.glob("*.py")) != on_disk


@pytest.mark.parametrize("path", MODULES, ids=_path_id)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_scan_sees_an_unused_name():
    assert _unused_imports("import os\nfrom typing import List, Optional\nx: Optional[int] = None\n") == [
        (1, "os"),
        (2, "List"),
    ]


# the suite registry and the CLI dispatch call these with a fixed signature
FIXED_SIGNATURE_PREFIXES = ("_suite_", "_cmd_")


def _unused_parameters(source: str):
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith(FIXED_SIGNATURE_PREFIXES):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, node.name, p) for p in params if p not in read and p not in ("self", "cls")]
    return found


@pytest.mark.parametrize("path", FILES, ids=_path_id)
def test_every_parameter_is_read(path):
    assert _unused_parameters(path.read_text()) == []


def test_unused_parameter_scan_sees_an_unread_parameter():
    source = (
        "def f(a, b, *args, c=1, **kw):\n    return a + c\n"
        "class K:\n    def m(self, x):\n        def inner(y):\n            return x\n        return inner\n"
        "def _suite_x(rng, trials, tol, rec):\n    pass\n"
    )
    assert _unused_parameters(source) == [
        (1, "f", "b"),
        (1, "f", "args"),
        (1, "f", "kw"),
        (5, "inner", "y"),
    ]


REPO = pathlib.Path(__file__).resolve().parents[1]
CALLERS = ("src", "tests", "demos", "bench")
# their fields are deployment settings, set through MATORDER_TOLERANCES
DEPLOYMENT_SETTINGS = ("ToleranceConfig",)


def _init_false(value) -> bool:
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False for kw in value.keywords)


def _defaulted_parameters(source: str):
    """(line, callable, parameter, position or None) of every parameter or dataclass field with a default.

    Position counts the arguments a call passes before it (self and cls
    excluded); None marks a keyword-only parameter. A `_`-prefixed parameter
    binds a value when the function is defined, and is no option.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name not in DEPLOYMENT_SETTINGS \
                and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign) and not _init_false(f.value)]
            found += [(f.lineno, node.name, f.target.id, i) for i, f in enumerate(fields) if f.value is not None]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and not node.name.startswith(FIXED_SIGNATURE_PREFIXES):
            a = node.args
            params = a.posonlyargs + a.args
            skip = 1 if params and params[0].arg in ("self", "cls") else 0
            found += [(node.lineno, node.name, p.arg, i - skip)
                      for i, p in enumerate(params) if i >= len(params) - len(a.defaults)]
            found += [(node.lineno, node.name, p.arg, None)
                      for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return [f for f in found if not f[2].startswith("_")]


def _passed_arguments(sources):
    """Per called name (a function, method or class): the most positional arguments any call passes,
    and every keyword any call passes (None for **kwargs)."""
    positional, keywords = {}, {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name is None:
                continue
            count = math.inf if any(isinstance(x, ast.Starred) for x in node.args) else len(node.args)
            positional[name] = max(positional.get(name, 0), count)
            keywords.setdefault(name, set()).update(kw.arg for kw in node.keywords)
    return positional, keywords


def _unset_defaults(definitions: str, passed):
    """Defaulted parameters of `definitions` that no call counted in `passed` passes, by keyword or by position.

    `passed` is _passed_arguments of the callers, parsed once for every
    module scanned. Calls are matched by name only, so a call to another
    callable of the same name counts too: the scan can miss an unset option,
    never invent one.
    """
    positional, keywords = passed
    return sorted((line, name, p) for line, name, p, i in _defaulted_parameters(definitions)
                  if not ({p, None} & keywords.get(name, set()) or (i is not None and positional.get(name, 0) > i)))


def test_every_default_is_overridden_somewhere():
    passed = _passed_arguments(path.read_text() for d in CALLERS for path in sorted((REPO / d).rglob("*.py")))
    unset = {module: _unset_defaults(source, passed) for module, source in SOURCES.items()}
    assert {k: v for k, v in unset.items() if v} == {}


def test_unset_default_scan_sees_an_option_nobody_sets():
    definitions = (
        "def f(a, b=1, c=2, *, d=3, e=4, _s=5):\n    pass\n"
        "class K:\n    def m(self, x, y=0):\n        pass\n"
        "@dataclasses.dataclass\nclass D:\n    u: int\n    v: int = 0\n    w: int = field(init=False)\n"
        "    z: int = 1\n"
        "@dataclasses.dataclass\nclass ToleranceConfig:\n    herm_tol: float = 1e-10\n"
        "def _suite_x(rng, trials=1):\n    pass\n"
    )
    callers = ["f(1, 2, e=0)\nK().m(1)\nD(1, 2)\n"]
    assert _unset_defaults(definitions, _passed_arguments(callers)) == [
        (1, "f", "c"),
        (1, "f", "d"),
        (4, "m", "y"),
        (11, "D", "z"),
    ]


def _loads(node):
    """Every name `node` reads, as a bare name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def _unread_exports(modules, callers):
    """(module, name) of each __all__ name of `modules` (module name -> text) that neither another module
    nor one of `callers` (texts) reads, and that no public function of its module names in its return
    annotation. Imports and strings are no reads."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    reads = {module: _loads(tree) for module, tree in trees.items()}
    by_callers = set().union(*(_loads(ast.parse(source)) for source in callers))
    found = []
    for module, tree in trees.items():
        exported = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(target, "id", None) == "__all__" for target in node.targets)]
        returned = [_loads(node.returns) for node in tree.body if isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_") and node.returns is not None]
        read = by_callers.union(*returned, *(r for other, r in reads.items() if other != module))
        found += [(module, name) for names in exported for name in names if name not in read]
    return sorted(found)


def test_every_exported_name_is_read_outside_its_module():
    callers = [path.read_text() for d in ("demos", "bench") for path in sorted((REPO / d).rglob("*.py"))]
    assert _unread_exports(SOURCES, callers) == []


def test_unread_export_scan_sees_a_name_only_its_module_reads():
    modules = {
        "a": "__all__ = ['Result', 'Hidden', 'f', 'g', 'helper', 'unread', 'kept']\n"
             "class Result:\n    pass\nclass Hidden:\n    pass\n"
             "def f(x) -> Result:\n    return helper(x)\ndef g(x):\n    return x\ndef helper(x):\n    return x\n"
             "def unread(x):\n    return x\ndef kept(x):\n    return x\ndef _h(x) -> Hidden:\n    return x\n",
        "b": "from .a import unread, g\n__all__ = ['k']\ndef k(x):\n    return g(x)\n",
    }
    callers = ["import a, b\na.kept(b.k(a.f(1)))\nHOT = ['a.unread']\n"]
    assert _unread_exports(modules, callers) == [("a", "Hidden"), ("a", "helper"), ("a", "unread")]


def _suite_only_names(sources, module="sampling"):
    """The module-level names of `module` outside its __all__ that the library does not keep: a name is kept when a
    module of `sources` (module name -> text) other than `module` and the suites package reads it, or when the
    definition of a kept name of `module` reads it. What only the suites read belongs with their draws."""
    tree = ast.parse(sources[module])
    defined = {}  # name -> the names its definition reads
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = _loads(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    defined[target.id] = _loads(node.value)
    exported = [name for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in node.targets)
                for name in ast.literal_eval(node.value)]
    library = set().union(*(_loads(ast.parse(source)) for other, source in sources.items()
                            if other != module and not _in_suites(other)))
    kept = {name for name in defined if name in exported or name in library}
    while True:
        more = {name for held in kept for name in defined[held] if name in defined} - kept
        if not more:
            return sorted(set(defined) - kept)
        kept |= more


def test_sampling_holds_no_suite_only_code():
    assert _suite_only_names(SOURCES) == []


def test_suite_only_scan_sees_what_only_the_suites_read():
    sources = {
        "sampling": "__all__ = ['f']\nLIMIT = 3\nSTEP = 2\ndef f(x):\n    return _g(x) + LIMIT\n"
                    "def _g(x):\n    return x\ndef _h(x):\n    return _k(x)\ndef _k(x):\n    return x\n"
                    "def _s(x):\n    return x\n",
        "halfplane": "from .sampling import _s\ndef u():\n    return _s(1)\n",
        "suites": "from .. import sampling\ndef v():\n    return sampling._k(2)\n",
        "suites.draws": "from ..sampling import _h, STEP\ndef w():\n    return _h(STEP)\n",
    }
    assert _suite_only_names(sources) == ["STEP", "_h", "_k"]


def _references(tree):
    """(name, owner) of every name a module reads, imports or looks up as an attribute; the owner is
    the module-level function or method whose body holds the reference, or "<module>"."""
    found = []

    def visit(node, owner):
        if isinstance(node, ast.FunctionDef) and owner == "<module>":
            owner = node.name
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) \
            else node.name if isinstance(node, ast.alias) else None
        if name is not None:
            found.append((name, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def _shell_only_kernels(sources):
    """(module, _f) for each module-level private function _f whose one reference in `sources`
    (module name -> text) is in the body of the public function f of its own module."""
    defined, refs = {}, {}
    for module, source in sources.items():
        tree = ast.parse(source)
        defined[module] = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        for name, owner in _references(tree):
            refs.setdefault(name, []).append((module, owner))
    return sorted((module, f) for module, names in defined.items() for f in names
                  if f.startswith("_") and f[1:] in names and refs.get(f) == [(module, f[1:])])


def test_no_kernel_only_its_public_shell_calls():
    assert _shell_only_kernels(SOURCES) == []


def test_shell_only_kernel_scan_sees_a_kernel_with_one_caller():
    sources = {
        "a": "def f(x):\n    return _f(x)\ndef _f(x):\n    return x\n"
             "def g(x):\n    return _g(x)\ndef _g(x):\n    return x\ndef h(x):\n    return _g(x)\n"
             "def k(x):\n    return _k(x)\ndef _k(x):\n    return x\nTABLE = {'k': _k}\n"
             "def m(x):\n    return _m(x)\ndef _m(x):\n    return x\n",
        "b": "from .a import _m\nclass C:\n    def f(self):\n        return _m(1)\n",
    }
    assert _shell_only_kernels(sources) == [("a", "_f")]


def _unreferenced_private_code(sources):
    """(module, line, name) of each private function or class defined in `sources` (module name -> text) whose name
    nothing there references outside its own definition: no read, attribute or import of it. Suite bodies and CLI
    commands (FIXED_SIGNATURE_PREFIXES) register by their names, and dunders are called by Python; a name is matched
    alone, so a reference to another definition of it counts too."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = collections.Counter(name for tree in trees.values() for name, _ in _references(tree))
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith(FIXED_SIGNATURE_PREFIXES) or name[:2] == name[-2:] == "__":
                continue
            if total[name] == sum(ref == name for ref, _ in _references(node)):
                found.append((module, node.lineno, name))
    return sorted(found)


def test_no_private_code_is_left_for_the_tests_alone():
    assert _unreferenced_private_code(SOURCES) == []


def test_private_code_scan_sees_a_definition_nothing_else_references():
    sources = {
        "a": "def _used(x):\n    return x\ndef _tested(x):\n    return x\ndef _again(x):\n    return _again(x)\n"
             "class _Hidden:\n    def _helper(self):\n        return 1\n    def __repr__(self):\n        return ''\n"
             "def _suite_x(rng, trials, tol, rec):\n    pass\ndef _cmd_y(args):\n    pass\n"
             "def public(x):\n    return _used(x)\n",
        "b": "from .a import _imported\n",
        "c": "def _imported():\n    pass\n",
    }
    assert _unreferenced_private_code(sources) == [("a", 3, "_tested"), ("a", 5, "_again"), ("a", 7, "_Hidden"),
                                                   ("a", 8, "_helper")]


# sigma_min decisions go through linalg._is_invertible, and Hermitian spectra through linalg._eigh and
# linalg._eigvalsh; outside linalg only the sampler's condition gate and FpqSpec's one SVD, which gives
# both its gates and its factor, take a decomposition of their own
DECOMPOSITIONS = {"svd", "eigh", "eigvalsh"}
DECOMPOSITION_OWNERS = {("sampling", "random_invertible", "svd"), ("classify", "FpqSpec.__post_init__", "svd")}


def _decomposition_calls(sources):
    """(module, owner, call, line) of each svd, eigh or eigvalsh call in `sources` (module name -> text)
    outside linalg and DECOMPOSITION_OWNERS; the owner is the dotted name of the enclosing classes and
    functions, or "<module>"."""
    found = []

    def visit(node, module, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name if owner == "<module>" else f"{owner}.{node.name}"
        if isinstance(node, ast.Call):
            call = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if call in DECOMPOSITIONS and module != "linalg" and (module, owner, call) not in DECOMPOSITION_OWNERS:
                found.append((module, owner, call, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for module, source in sources.items():
        visit(ast.parse(source), module, "<module>")
    return sorted(found)


def test_singular_values_are_taken_only_where_allowed():
    assert _decomposition_calls(SOURCES) == []


def test_svd_scan_sees_a_planted_call():
    sources = {
        "linalg": "import numpy as np\ndef _k(M):\n    return np.linalg.svd(M)\n",
        "sampling": "import numpy as np\ndef random_invertible(T):\n    return np.linalg.svd(T)\n"
                    "def other(T):\n    return np.linalg.svd(T)[-1] > 0\n",
        "classify": "from numpy.linalg import svd\nclass FpqSpec:\n    def __post_init__(self):\n        svd(self.frame)\n"
                    "class K:\n    def __post_init__(self):\n        svd(self.frame)\nS = svd([[1.0]])\n",
    }
    assert _decomposition_calls(sources) == [("classify", "<module>", "svd", 8),
                                             ("classify", "K.__post_init__", "svd", 7), ("sampling", "other", "svd", 5)]


def test_decomposition_scan_sees_planted_eigen_calls():
    # an SVD owner may not take a Hermitian spectrum of its own, and linalg's kernels are the one place for them
    sources = {
        "linalg": "import numpy as np\ndef _eigvalsh(S):\n    return np.linalg.eigvalsh(S)\n",
        "monotone": "import numpy as np\ndef loewner_matrix(L):\n    return np.linalg.eigvalsh(L)[0]\n",
        "sampling": "from numpy.linalg import eigh\ndef random_invertible(T):\n    return eigh(T @ T.conj().T)\n",
        "suites": "from .linalg import _eigvalsh\ndef _gap(P, Q):\n    return _eigvalsh(Q - P)[0]\n",
    }
    assert _decomposition_calls(sources) == [("monotone", "loewner_matrix", "eigvalsh", 3),
                                             ("sampling", "random_invertible", "eigh", 3)]


# the suites hand the recoverers stacked kernels; the public functions loop over single matrices
PER_MATRIX_RECOVERY = {"fit_canonical", "identify_parameters", "apply_local_iso"}
# library code checks what it built or already validated with kernels; these shells would validate it again
VALIDATING_SHELLS = {"effect_automorphism", "effect_embedding_map", "hermitian_eigen", "loewner_compare",
                     "in_zero_component", "order_iso_apply", "segment_in_shear_domain", "is_invertible",
                     "in_block_domain", "block_map_apply", "inertia", "are_equivalent",
                     "jacobi_eigen", "shear_apply", "in_shear_domain", "growth_direction", "spectral_apply",
                     "opnorm", "in_half_plane", "normalize_phase"}
# (module, owner, shell): reads at the sites whose claim is about the public function itself, or whose
# argument comes from outside the library
SHELL_SITES = {
    # the public eigensolver is the engine under test, next to jacobi_eigen
    ("suites.spectra", "_suite_eigen_residual", "hermitian_eigen"): 2,
    # the fixture pins the public override path at 0 and I
    ("suites.effects", "_suite_effect_embedding", "effect_embedding_map"): 3,
    # the public criterion is what the path oracle cross-checks
    ("suites.shear", "_suite_component_criterion", "in_zero_component"): 1,
    # the worked 2x2 example pins the public map
    ("suites.blocks", "_suite_block_involution", "block_map_apply"): 1,
    # shear_apply's output is Hermitian only up to rounding; the public inertia validates it
    ("suites.shear", "_suite_congruence_orbit", "inertia"): 1,
    # the census: distinct representatives are inequivalent under the public test
    ("suites.blocks", "_suite_class_count", "are_equivalent"): 1,
    # the reweighting behind factors 2 and 4 is callable on outside input, as is the root of factor 3
    ("classify", "rational_effect_factors", "spectral_apply"): 2,
    # the evaluator's probe response comes from outside: a non-finite one stays a MalformedInputError
    ("halfplane", "_congruence_from_probes", "hermitian_eigen"): 1,
    # a shell over a shell: spectral_apply validates through hermitian_eigen
    ("linalg", "spectral_apply", "hermitian_eigen"): 1,
}
# the CLI is where outside input enters; it may call every shell
SHELL_SCAN_SKIPS = {"cli"}


def _shell_reads(source: str, names):
    """Per (owner, name): how often `source` reads one of `names` (a call, or the function as a value),
    imports excepted; the owner is the module-level function holding the read, or "<module>"."""
    found = {}
    for node in ast.parse(source).body:
        owner = node.name if isinstance(node, ast.FunctionDef) else "<module>"
        for n in ast.walk(node):
            name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
            if name in names:
                found[(owner, name)] = found.get((owner, name), 0) + 1
    return found


def test_suites_call_the_stacked_recovery_bodies():
    suites = [module for module in SOURCES if _in_suites(module)]
    assert len(suites) > 1
    assert {module: _shell_reads(SOURCES[module], PER_MATRIX_RECOVERY) for module in suites} == dict.fromkeys(suites, {})


def test_per_matrix_recovery_scan_sees_a_planted_call():
    source = (
        "from .halfplane import _fit_canonical, fit_canonical\nfrom . import localiso\n"
        "def f(m, n, tol):\n    _fit_canonical(g, n, None, tol)\n    fit_canonical(g, n)\n"
        "    return localiso.identify_parameters(lambda H: localiso.apply_local_iso(m, H), n)\n"
    )
    assert _shell_reads(source, PER_MATRIX_RECOVERY) == {
        ("f", "fit_canonical"): 1, ("f", "apply_local_iso"): 1, ("f", "identify_parameters"): 1}


def _library_shell_reads(sources):
    """Per (module, owner, shell): how often the modules of `sources` (module name -> text) read a
    validating shell, the modules in SHELL_SCAN_SKIPS excepted."""
    return {(module, owner, name): count for module, source in sources.items() if module not in SHELL_SCAN_SKIPS
            for (owner, name), count in _shell_reads(source, VALIDATING_SHELLS).items()}


def test_library_checks_what_it_holds_with_kernels():
    assert _library_shell_reads(SOURCES) == SHELL_SITES


def test_library_shell_scan_sees_a_planted_read_in_any_module():
    sources = {
        "order": "from .linalg import spectral_apply\ndef f(X, tol):\n    return spectral_apply(X, abs, tol=tol)\n",
        "halfplane": "from . import linalg\ndef _g(Z, tol):\n    return linalg.hermitian_eigen(Z, tol)\n",
        "cli": "from .linalg import inertia\ndef _cmd_x(args, tol):\n    return inertia(args.X, tol)\n",
        "sampling": "from .linalg import _eigh\ndef h(X):\n    return _eigh(X)\n",
    }
    assert _library_shell_reads(sources) == {("order", "f", "spectral_apply"): 1,
                                             ("halfplane", "_g", "hermitian_eigen"): 1}


def test_validating_shell_scan_sees_a_planted_read():
    source = (
        "from .linalg import _eigh, hermitian_eigen, loewner_compare\n"
        "ENGINES = [hermitian_eigen]\n"
        "def _suite_a(rng, trials, tol, rec):\n    loewner_compare(X, Y, tol)\n    _eigh(X)\n"
        "    return [linalg.loewner_compare(P, Q).lt for P, Q in pairs]\n"
        "def _suite_b(rng, trials, tol, rec):\n    return min(map(hermitian_eigen, Xs))\n"
    )
    assert _shell_reads(source, VALIDATING_SHELLS) == {
        ("<module>", "hermitian_eigen"): 1, ("_suite_a", "loewner_compare"): 2, ("_suite_b", "hermitian_eigen"): 1}


# draws of a fixed seed are made once per argument tuple there, and shared read-only
SEEDED_CACHE = "_seeded_draws"


def _fixed_seed_generators(source: str):
    """(line, function) of each default_rng call in a function or method body, the seeded cache's
    excepted, whose seed is a literal or a module constant (bound at module level, or upper case)."""
    tree = ast.parse(source)
    constants = {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for t in getattr(node, "targets", [getattr(node, "target", None)]) if isinstance(t, ast.Name)}

    def fixed(seed) -> bool:
        if isinstance(seed, ast.Name):
            return seed.id in constants or seed.id.isupper()
        return isinstance(seed, ast.Constant) or (isinstance(seed, ast.Attribute) and seed.attr.isupper())

    methods = [m for c in tree.body if isinstance(c, ast.ClassDef) for m in c.body]
    found = []
    for body in tree.body + methods:
        if not isinstance(body, ast.FunctionDef) or body.name == SEEDED_CACHE:
            continue
        for node in ast.walk(body):
            name = getattr(node, "func", None)
            if isinstance(node, ast.Call) and (getattr(name, "id", None) or getattr(name, "attr", None)) == "default_rng":
                seeds = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "seed"]
                if any(fixed(seed) for seed in seeds):
                    found.append((node.lineno, body.name))
    return found


@pytest.mark.parametrize("path", MODULES, ids=_path_id)
def test_no_fixed_seed_draw_outside_the_seeded_cache(path):
    assert _fixed_seed_generators(path.read_text()) == []


def test_fixed_seed_scan_sees_a_redrawn_constant_seed():
    source = (
        "import numpy as np\nfrom numpy.random import default_rng\nfrom .x import OTHER_SEED\nSEED = 7\n"
        "def f(seed):\n    a = np.random.default_rng(3)\n    b = np.random.default_rng(seed)\n"
        "    return default_rng(SEED), np.random.default_rng(int(seed))\n"
        "class K:\n    def m(self):\n        return np.random.default_rng(seed=OTHER_SEED)\n"
        "def _seeded_draws(sampler, seed):\n    return np.random.default_rng(4)\n"
        "RNG = np.random.default_rng(0)\n"
    )
    assert _fixed_seed_generators(source) == [(6, "f"), (8, "f"), (11, "m")]


def _fresh_json(code: str):
    """The JSON value on the last line `code` prints in a fresh interpreter with matorder importable."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _loaded_after(code: str) -> dict:
    """The modules loaded once `code` has run in a fresh interpreter: "scipy", the sorted scipy modules;
    "matorder", the sorted names of the matorder modules below the package."""
    return _fresh_json(code + "\nimport json, sys\nprint(json.dumps({"
                       "'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
                       " 'matorder': sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('matorder.'))}))")


def _imported_roots(path: pathlib.Path) -> set:
    """The top-level package of every import statement in the file at path."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_module_imports_scipy():
    # numpy is the one runtime dependency, and the tests check against mpmath, not scipy
    sources = FILES + sorted(pathlib.Path(__file__).parent.glob("*.py"))
    assert [p.name for p in sources if "scipy" in _imported_roots(p)] == []


def test_the_library_runs_where_scipy_cannot_be_imported(tmp_path):
    # sys.modules["scipy"] = None makes every scipy import fail: the principal root (near the branch
    # cut and on a Jordan block), a table function and the congruence-orbit suite run on numpy alone
    table = tmp_path / "sqrt.json"
    table.write_text(json.dumps({"x": [0.25, 1.0, 4.0, 9.0], "y": [0.5, 1.0, 2.0, 3.0]}))
    code = f"""
import sys
sys.modules["scipy"] = None
import contextlib, io, json
import numpy as np
from matorder import congruence_orbit
from matorder.cli import main
A, X = np.diag([1.0, -1.0]), np.array([[-2.0, 1e-6], [1e-6, 2.0]])
T = congruence_orbit(A, X)
jordan = congruence_orbit(np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    monotone = main(["check-monotone", "--fn", "table:{table}", "--order", "2", "--trials", "20"])
    report = json.loads(out.getvalue())
    verify = main(["verify", "congruence-orbit", "--trials", "5", "--no-timing"])
print(json.dumps({{"jordan": np.abs(jordan - [[1.0, -0.5], [0.0, 1.0]]).max(),
                  "near_cut": np.abs(T @ (A @ X + np.eye(2)) @ T - np.eye(2)).max(), "monotone": monotone,
                  "witness": report["witness_nodes"], "verify": verify}}))
"""
    result = _fresh_json(code)
    assert result["jordan"] <= 1e-15 and result["near_cut"] <= 1e-10
    # the cubic pieces through the sqrt samples fail order 2, at the nodes scipy's interpolant failed at
    assert result["monotone"] == 1 and result["witness"] == [0.4030775772528803, 0.6165512977728203]
    assert result["verify"] == 0


def test_cli_import_loads_no_scipy():
    assert _loaded_after("import matorder.cli")["scipy"] == []


def test_fpq_apply_loads_no_scipy(tmp_path):
    frame, x, y = (str(tmp_path / k) for k in ("t.json", "x.json", "y.json"))
    write_matrix_file(frame, np.array([[0.6, 0.2j], [0.1, 0.5]]))
    write_matrix_file(x, np.diag([0.3, 0.7]))
    argv = ["apply", "--map", "fpq", "--frame", frame, "--p", "0.4", "--q", "-1.5", "--transpose", x, "--out", y]
    code = f"import matorder.cli\nassert matorder.cli.main({argv!r}) == 0"
    assert _loaded_after(code)["scipy"] == []
    assert pathlib.Path(y).exists()


# the package's submodules load on demand: a CLI process loads what its subcommand runs
@pytest.mark.parametrize("code, loaded", [
    ("import matorder", ["config", "errors"]),
    ("import matorder.cli", ["cli", "config", "errors", "fileio"]),
    ("from matorder import linalg", ["config", "errors", "linalg"]),
    ("from matorder.cli import main\nassert main(['gen', '--kind', 'psd', '--dim', '2']) == 0",
     ["cli", "config", "errors", "fileio", "linalg", "sampling"]),
    ("from matorder.cli import main\nassert main(['verify', 'class-count', '--trials', '1']) == 0",
     ["classify", "cli", "config", "errors", "fileio", "halfplane", "linalg", "localiso", "monotone", "order",
      "sampling", "suites", "suites.blocks", "suites.draws", "suites.effects", "suites.loewner", "suites.mobius",
      "suites.reports", "suites.shear", "suites.spectra"]),
])
def test_a_process_loads_only_the_modules_it_runs(code, loaded):
    assert _loaded_after(code)["matorder"] == loaded


def test_classify_and_apply_load_no_suites(tmp_path):
    base = str(tmp_path / "base.json")
    write_matrix_file(base, np.diag([2.0, -1.0]))
    code = (f"from matorder.cli import main\nassert main(['classify', {base!r}]) == 0\n"
            f"assert main(['apply', '--map', 'phi-mp', '--corner', '1', {base!r}]) == 0")
    loaded = _loaded_after(code)["matorder"]
    assert "classify" in loaded and [module for module in loaded if module.split(".")[0] == "suites"] == []


# the names __init__ imports from config and errors
CONFIG_AND_ERRORS = {
    "config": ["DEFAULT_TOL", "ToleranceConfig", "parse_tolerance_overrides"],
    "errors": ["DomainViolationError", "MalformedInputError", "MatOrderError", "ModelMismatchError", "PathSearchError"],
}


@pytest.mark.parametrize("first", ["getattr", "star import"])
def test_package_binds_the_public_surface_of_an_eager_import(first):
    """In a fresh interpreter, whichever lookup loads the modules, getattr(matorder, name) and a star
    import bind each re-exported name to the object its module binds."""
    public = {**CONFIG_AND_ERRORS, **{m: importlib.import_module(f"matorder.{m}").__all__ for m in REEXPORTED}}
    lookups = ["got = {name: getattr(matorder, name) for names in PUBLIC.values() for name in names}",
               "star = {}\nexec('from matorder import *', star)"]
    code = "\n".join([
        "import importlib, json, matorder", f"PUBLIC = {public!r}", *(lookups if first == "getattr" else lookups[::-1]),
        "own = {name: getattr(importlib.import_module(f'matorder.{module}'), name)",
        "       for module, names in PUBLIC.items() for name in names}",
        "print(json.dumps({'getattr': [n for n in own if got[n] is not own[n]],",
        "                  'star': [n for n in own if star.get(n) is not own[n]],",
        "                  'unknown name': hasattr(matorder, 'no_such_name'), 'names': len(own)}))",
    ])
    names = sum(map(len, public.values()))
    assert _fresh_json(code) == {"getattr": [], "star": [], "unknown name": False, "names": names}
