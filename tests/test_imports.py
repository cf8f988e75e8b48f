"""Import boundaries: each command loads only the libraries it runs.

scipy costs more start-up time than numpy and all of qnet together, so only
the routes that factor a matrix (scipy's LAPACK extension,
scipy.linalg._flapack, loaded by file without the scipy.linalg package) or
build a Liouvillian (scipy.sparse) import it. The one rule that keeps it so:
no module in src/qnet imports scipy at module level, only inside the
functions that call it. The grid map is the one place that starts threads:
it alone imports a thread module, concurrent.futures' ThreadPoolExecutor,
inside load_power_map. That import costs a cold grid check about 11 ms
(median of 9 cold `import concurrent.futures.thread` after `import
qnet.cli`, Python 3.11.7 on a 2-CPU machine), and `import qnet.cli` and the
commands that make no grid map load no pool module. Static checks read both
rules off the source; every other check runs in a fresh interpreter,
because this test process imported scipy long ago.
"""
import ast
import json
from pathlib import Path

import pytest

from conftest import bundled_config, child

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qnet"
TWO_NODE = str(ROOT / "configs" / "two_node.json")


def fresh_run(statements):
    """Run `statements` in a new interpreter with src/ on the path; return
    the value they leave in `code` (None if they set none) and the names in
    sys.modules afterwards."""
    probe = (
        "code = None\n" + statements
        + "\nimport json, sys\nprint(json.dumps({'code': code, 'modules': sorted(sys.modules)}))"
    )
    done = child(["-c", probe])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    return result["code"], set(result["modules"])


def cli_run(*argv):
    return fresh_run(f"import qnet.cli\ncode = qnet.cli.main({list(argv)!r})")


def scipy_modules(modules):
    return sorted(name for name in modules if name == "scipy" or name.startswith("scipy."))


POOL_MODULES = {"concurrent.futures.thread", "concurrent.futures.process", "multiprocessing.pool"}


def executor_modules(modules):
    return sorted(POOL_MODULES & modules)


def imports_by_function(tree):
    """(function, node) for every import statement of a module, where
    function names the top-level function or method whose body holds it,
    and is None for one that runs when the module is imported."""
    stack = [(None, node) for node in tree.body]
    while stack:
        function, node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield function, node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and function is None:
            function = node.name
        stack.extend((function, child) for child in ast.iter_child_nodes(node))


def imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return [node.module] if node.level == 0 else []


def package_imports():
    """(file name, function, line, module) for every module that an import
    statement in src/qnet names, function as imports_by_function gives it."""
    for path in sorted(PACKAGE.glob("*.py")):
        for function, node in imports_by_function(ast.parse(path.read_text(), str(path))):
            for name in imported_modules(node):
                yield path.name, function, node.lineno, name


def is_in(name, *packages):
    return any(name == package or name.startswith(package + ".") for package in packages)


def test_no_module_imports_scipy_at_module_level():
    offenders = [
        f"{file}:{line} imports {name}"
        for file, function, line, name in package_imports()
        if function is None and is_in(name, "scipy")
    ]
    assert offenders == []


def test_only_the_grid_map_imports_a_thread_module():
    places = {
        f"{file}:{function}"
        for file, function, _, name in package_imports()
        if is_in(name, "threading", "_thread", "concurrent", "multiprocessing")
    }
    assert places == {"thevenin.py:load_power_map"}


def test_import_cli_loads_no_scipy():
    _, modules = fresh_run("import qnet.cli")
    assert scipy_modules(modules) == []
    assert executor_modules(modules) == []


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("gen", "random", "--nodes", "3", "--seed", "1", "--out", "{tmp}/net.json"), 0),
        (("sweep", "--config", TWO_NODE, "--var", "omega", "--min", "990", "--max", "1010",
          "--points", "5", "--out", "{tmp}/omega.csv"), 0),
        (("solve", "--config", "{nan}", "--out", "{tmp}/nan.out"), 2),
    ],
    ids=["gen-random", "sweep-omega", "nan-config"],
)
def test_commands_without_a_factorization_load_no_scipy(tmp_path, argv, expected):
    nan = bundled_config(tmp_path, lambda data: data["load"].update(gamma_load=float("nan")))
    argv = [arg.format(tmp=tmp_path, nan=nan) for arg in argv]
    code, modules = cli_run(*argv)
    assert code == expected
    assert scipy_modules(modules) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("solve",),
        ("thevenin",),
        ("match",),
        ("sweep", "--var", "gamma_load", "--min", "0.1", "--max", "10", "--points", "5"),
    ],
    ids=["solve", "thevenin", "match", "sweep-gamma-load"],
)
def test_factoring_commands_load_only_the_lapack_extension(tmp_path, argv):
    code, modules = cli_run(*argv, "--config", TWO_NODE, "--out", str(tmp_path / "out"))
    assert code == 0
    assert scipy_modules(modules) == ["scipy.linalg._flapack"]
    assert executor_modules(modules) == []


ROUTINES = ("zgetrf", "zgecon", "zgetrs", "zgbtrf", "zgbcon", "zgbtrs")

# solve and match on every bundled config, each stdout captured with its exit code
SOLVE_AND_MATCH = (
    "import contextlib, io, qnet.cli\n"
    "code = []\n"
    "for command in ('solve', 'match'):\n"
    "    for config in ('two_node', 'chain_50', 'random_50'):\n"
    f"        argv = [command, '--config', {str(ROOT / 'configs')!r} + '/' + config + '.json']\n"
    "        with contextlib.redirect_stdout(io.StringIO()) as out:\n"
    "            exit_code = qnet.cli.main(argv)\n"
    "        code.append([exit_code, out.getvalue()])\n"
    "import scipy.linalg.lapack\n"
    "from qnet.steady import _lapack\n"
    "code = [code, _lapack() is scipy.linalg.lapack]\n"
)

# each patch makes the by-file load fail inside the loader alone
MISSES = {
    # importlib.util.find_spec finds no scipy
    "no-file": (
        "import importlib.util\n"
        "find_spec = importlib.util.find_spec\n"
        "importlib.util.find_spec = lambda name, package=None: None if name == 'scipy' else find_spec(name, package)\n"
    ),
    # the module loaded from the file lacks zgbcon
    "no-routine": (
        "import importlib.util, types\n"
        "module_from_spec = importlib.util.module_from_spec\n"
        "def without_zgbcon(spec):\n"
        "    stub = types.ModuleType(spec.name)\n"
        "    stub.__dict__.update(vars(module_from_spec(spec)))\n"
        "    del stub.zgbcon\n"
        "    return stub\n"
        "importlib.util.module_from_spec = without_zgbcon\n"
    ),
}


@pytest.fixture(scope="module")
def direct_route():
    return fresh_run(SOLVE_AND_MATCH)


@pytest.mark.parametrize("miss", MISSES.values(), ids=MISSES.keys())
def test_the_package_fallback_prints_the_same_bytes(direct_route, miss):
    (direct, direct_fell_back), _ = direct_route
    (fallback, fell_back), modules = fresh_run(miss + SOLVE_AND_MATCH)
    assert [exit_code for exit_code, _ in direct] == [0] * 6
    assert fallback == direct
    assert (direct_fell_back, fell_back) == (False, True)
    assert "scipy.linalg" in modules


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="reads the memory map of a Linux process")
def test_one_extension_when_scipy_linalg_comes_after_the_loader():
    identical, files = fresh_run(
        "from qnet.steady import _lapack\n"
        "lapack = _lapack()\n"
        "import sys, scipy.linalg.lapack, scipy.sparse.linalg\n"
        "identical = [sys.modules['scipy.linalg._flapack'] is lapack]\n"
        f"identical += [getattr(scipy.linalg.lapack, r) is getattr(lapack, r) for r in {ROUTINES!r}]\n"
        "files = sorted({line.split()[-1] for line in open('/proc/self/maps') if '_flapack' in line})\n"
        "code = [identical, files]\n"
    )[0]
    assert identical == [True] * (1 + len(ROUTINES))
    assert len(files) == 1


def test_the_loader_returns_the_extension_that_scipy_linalg_loaded():
    code, _ = fresh_run(
        "import sys, scipy.linalg\n"
        "from qnet.steady import _lapack\n"
        "code = _lapack() is sys.modules['scipy.linalg._flapack']\n"
    )
    assert code is True


def test_match_with_a_threaded_grid_check_loads_only_the_thread_pool(tmp_path):
    # a 5-node grid map spans several chunks, so it starts worker threads
    net, out = str(tmp_path / "net.json"), tmp_path / "match.json"
    code, modules = fresh_run(
        "import qnet.cli\n"
        f"qnet.cli.main(['gen', 'random', '--nodes', '5', '--seed', '1', '--out', {net!r}])\n"
        f"code = qnet.cli.main(['match', '--config', {net!r}, '--grid-check', '--out', {str(out)!r}])"
    )
    assert code == 0
    assert executor_modules(modules) == ["concurrent.futures.thread"]
    assert json.loads(out.read_text())["grid_check"]["within_one_cell"] is True


def test_oracle_loads_the_sparse_route_and_reports(tmp_path):
    out = tmp_path / "oracle.json"
    code, modules = cli_run("oracle", "--config", TWO_NODE, "--n-max", "3", "--out", str(out))
    assert code == 0
    assert {"qnet.lindblad", "scipy.sparse"} <= modules
    assert json.loads(out.read_text())["dim"] == 16
