"""Every name a module of the package imports is used in that module, only
symcore.positive compares a value with infinity, and no module imports
scipy, which the package does not depend on: the lint below covers the
earlier per-submodule lints on scipy.linalg, scipy.integrate and
scipy.optimize, which stay.  At run time, importing the CLI loads no scipy
submodule, the light subcommands never load scipy.linalg, the
action-quadrature check loads neither scipy.integrate nor scipy.optimize,
and the Monte Carlo hull loads no scipy module at all.  ``import symcap``
loads no submodule, yet every exported name resolves to its home module's
object, and each CLI subcommand loads only the symcap modules it uses.  The
benchmark's tracer installs over every symcap module and uninstalls cleanly."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "symcap"
PERFBENCH = SRC.parent.parent / "perfbench"


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def _is_inf(node) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return (isinstance(node, ast.Attribute) and node.attr == "inf"
            and isinstance(node.value, ast.Name) and node.value.id in ("math", "np", "numpy"))


def inf_comparisons(path: Path) -> list:
    """Lines that compare a value with math.inf or np.inf."""
    tree = ast.parse(path.read_text())
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                  and any(_is_inf(x) for x in (node.left, *node.comparators)))


# a positive, finite input is checked by symcore.positive, nowhere else
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "symcore.py"),
                         ids=lambda p: p.name)
def test_only_symcore_compares_with_infinity(path):
    assert inf_comparisons(path) == []


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_defers_scipy_submodules():
    lazy = ("scipy.linalg", "scipy.spatial", "scipy.integrate", "scipy.optimize")
    out = _run(f"import sys, symcap.cli; print([m for m in {lazy!r} if m in sys.modules])")
    assert out.strip() == "[]"


def test_symcore_imports_no_scipy():
    tree = ast.parse((SRC / "symcore.py").read_text())
    modules = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m and m.split(".")[0] == "scipy"]


def scipy_imports(path: Path, modules) -> list:
    """Lines that import one of the modules, a submodule or a name from one."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(name == m or name.startswith(m + ".") for name in names for m in modules):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    assert scipy_imports(path, ("scipy",)) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_linalg(path):
    assert scipy_imports(path, ("scipy.linalg",)) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_integrate_or_optimize(path):
    assert scipy_imports(path, ("scipy.integrate", "scipy.optimize")) == []


def test_action_quadrature_check_loads_no_scipy_integrate_or_optimize():
    code = ("import sys\nfrom symcap import acceptance\n"
            "assert acceptance.check_action_quadrature(acceptance.AcceptanceConfig()).ok\n"
            "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])")
    assert _run(code).splitlines()[-1] == "[]"


def test_mc_projection_area_loads_no_scipy():
    code = ("import sys\nfrom symcap import mc_projection_area, random_symplectic\n"
            "assert mc_projection_area(random_symplectic(2, 1, 0.3), 1.0, 1, 10**4) > 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run(code).splitlines()[-1] == "[]"


NO_LINALG = {
    "capacity-ball": ["capacity", "--region", '{"variant": "Ball", "R": 1}'],
    "capacity-cylinder": ["capacity", "--region", '{"variant": "Cylinder", "j": 1, "r": 2}'],
    "capacity-solid-torus": ["capacity", "--region",
                             '{"variant": "SolidTorus", "radii": [1.0, 1.5]}'],
    "spectrum": ["spectrum", "--hessian", "[[4.0, 0.0], [0.0, 1.0]]"],
    "ebk-oscillator": ["ebk", "--K", "oscillator:1.0,1.5", "--maslov", "2,2", "--Nmax", "3"],
    "ebk-csv": ["--format", "csv", "ebk", "--K", "oscillator:1.0,1.5", "--maslov", "2,2",
                "--Nmax", "3"],
    "maslov-torus": ["maslov", "--torus", "1.0,1.5", "--cycle", "2"],
    "flow": ["flow", "--hessian", "[[2.0, 0.3], [0.3, 0.5]]", "--t", "1.5", "--z0", "1.0,0.5"],
    "squeeze": ["squeeze", "--n", "3", "--trials", "20"],
}


@pytest.mark.parametrize("argv", NO_LINALG.values(), ids=NO_LINALG.keys())
def test_light_subcommands_never_load_scipy_linalg(argv):
    code = ("import sys, symcap.cli\n"
            f"assert symcap.cli.dispatch({argv!r}) == 0\n"
            "print('scipy.linalg' in sys.modules)")
    assert _run(code).splitlines()[-1] == "False"


def test_package_exports_resolve_lazily():
    code = """import sys
import symcap
print(sorted(m for m in sys.modules if m.startswith("symcap.")))
assert set(symcap.__all__) <= set(dir(symcap))
assert symcap.regions is sys.modules["symcap.regions"]
for module, names in symcap._EXPORTS.items():
    for name in names:
        value = getattr(symcap, name)
        home = sys.modules["symcap." + module]
        assert value is getattr(home, name) and value.__module__ == home.__name__, name
assert len(set(symcap.__all__)) == len(symcap.__all__) == sum(map(len, symcap._EXPORTS.values()))
star = {}
exec("from symcap import *", star)
assert all(star[name] is getattr(symcap, name) for name in symcap.__all__)
try:
    symcap.no_such_name
except AttributeError as exc:
    print(exc)
"""
    lines = _run(code).splitlines()
    assert lines == ["[]", "module 'symcap' has no attribute 'no_such_name'"]


# keyed by the leading words of the argv
SUBCOMMAND_MODULES = {
    "capacity": {"regions", "williamson"},
    "spectrum": {"williamson"},
    "ebk": {"ebk"},
    "--format csv ebk": {"ebk", "regions", "williamson"},  # the capacity column
    "maslov": {"maslov"},
    "flow": {"williamson"},  # quad_propagator imports williamson's normal form
    "squeeze": {"squeeze"},
}


@pytest.mark.parametrize("argv", [*NO_LINALG.values(), ["--help"]],
                         ids=[*NO_LINALG.keys(), "help"])
def test_subcommand_loads_only_its_modules(argv):
    code = ("import contextlib, io, sys, symcap.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
            f"    symcap.cli.dispatch({argv!r})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'symcap'))")
    words = " ".join(argv) + " "
    expected = {"cli", "symcore", *next((m for key, m in SUBCOMMAND_MODULES.items()
                                         if words.startswith(key + " ")), ())}
    assert _run(code).splitlines()[-1] == str(sorted(["symcap", *("symcap." + m for m in expected)]))


def test_tracer_installs_and_uninstalls_over_every_module():
    # perfbench's --trace 1 wraps each traced function in every symcap module
    # and patches LagrangianFrame to count frames; uninstall must restore them all
    code = f"""import importlib, pathlib, sys
sys.path.insert(0, {str(PERFBENCH)!r})
from tracing import TRACED, Tracer
mods = [importlib.import_module("symcap" if p.stem == "__init__" else "symcap." + p.stem)
        for p in pathlib.Path({str(SRC)!r}).glob("*.py")]
before = {{(m.__name__, k): v for m in mods for k, v in vars(m).items()}}
frame_init = sys.modules["symcap.maslov"].LagrangianFrame.__post_init__
tracer = Tracer()
tracer.install()
for module, name in TRACED:
    assert getattr(sys.modules["symcap." + module], name).__wrapped__, name
assert sys.modules["symcap.maslov"].LagrangianFrame.__post_init__ is not frame_init
from symcap import ebk, maslov
spec = ebk.energy_levels(ebk.oscillator_hamiltonian([1.0]), (2,), 0)
ebk.capacity_condition(spec.entries[0])
maslov.maslov_index(maslov.torus_cycle_loop([1.0], 1, samples=16))
tracer.uninstall()
after = {{(m.__name__, k): v for m in mods for k, v in vars(m).items()}}
assert after.keys() == before.keys() and all(after[k] is v for k, v in before.items())
assert sys.modules["symcap.maslov"].LagrangianFrame.__post_init__ is frame_init
print(sorted({{span[2] for span in tracer.spans}}))
"""
    assert _run(code).splitlines()[-1] == str(sorted([
        "ebk.energy_levels", "ebk.capacity_condition", "regions.capacity",
        "maslov.torus_cycle_loop", "maslov.maslov_index"]))
