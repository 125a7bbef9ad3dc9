"""Every name the package exports, every public function or class a package
module defines, and every public method or property of such a class has a
user besides its own unit tests: a package module other than `__init__`, or
the acceptance criteria.  Only `synthesis` imports scipy, and only a use of
one of its names loads it.  One call site factors every dilation and one
writes its blocks out densely, one kernel applies every gate, one entry runs
every pipeline stage, and one replay checks every gate witness.  A gate is
checked once, where it is built."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qaffine"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def _referenced_names(path: Path) -> set[str]:
    """Names a module loads or imports; definitions alone do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _used_names() -> set[str]:
    """Names the acceptance criteria and the package modules but `__init__`
    load or import."""
    modules = (m for m in PACKAGE.glob("*.py") if m.name != "__init__.py")
    return _referenced_names(ACCEPTANCE).union(*map(_referenced_names, modules))


def _lazy_names(tree: ast.Module) -> set[str]:
    """The names `__init__` loads on first use: its `_SYNTHESIS` tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_SYNTHESIS"]:
            return set(ast.literal_eval(node.value))
    return set()


def test_every_export_has_a_user():
    init = PACKAGE / "__init__.py"
    tree = ast.parse(init.read_text())
    exported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    lazy = _lazy_names(tree)
    assert "compare_methods" in lazy
    exported |= lazy
    assert sorted(exported - _used_names()) == []


def test_every_public_definition_has_a_user():
    # module-level functions and classes, and the methods and properties of
    # public classes, each matched by its name
    defined = set()
    for module in PACKAGE.glob("*.py"):
        for node in ast.parse(module.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.add((module.stem, node.name))
                if isinstance(node, ast.ClassDef):
                    defined.update(
                        (module.stem, f"{node.name}.{method.name}")
                        for method in node.body
                        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
                    )
    used = _used_names()
    assert sorted((stem, name) for stem, name in defined if name.split(".")[-1] not in used) == []


def _imported_top_level(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_synthesis_imports_scipy():
    # scipy loads a second OpenBLAS, with its own thread pool, next to
    # numpy's; a numeric hot path that moved onto it ran slower, not faster
    importers = {module.stem for module in PACKAGE.glob("*.py") if "scipy" in _imported_top_level(module)}
    assert importers == {"synthesis"}


def _calls_named(names: set[str]) -> list[tuple[str, str | None, str]]:
    """(module, enclosing function, callee) of every call whose callee's last
    name is in `names`, whatever module it comes from."""
    sites = []
    for module in sorted(PACKAGE.glob("*.py")):

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in names:
                sites.append((module.stem, where, ast.unparse(node.func)))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(module.read_text()), None)
    return sites


def test_one_factorization_site():
    # every route (abstract and physical stages, the baseline, block_encode)
    # takes its dilation from `blockenc._factor`'s one eigendecomposition
    assert _calls_named({"eigh", "svd"}) == [("blockenc", "_factor", "np.linalg.eigh")]


def test_one_densification_site():
    # a dilation keeps only A's direct-sum blocks: `_Dilation.encoding`
    # alone writes them out densely, to build U, and neither the check of
    # [A; R] nor the stage write counts nonzeros to rediscover the split
    assert _calls_named({"_dense"}) == [("blockenc", "encoding", "_dense")]
    counts = _calls_named({"count_nonzero"})
    assert [site for site in counts if site[1] in ("_check_isometry", "_deviation", "_write_dilation")] == []


def test_one_gate_kernel():
    # states and matrix columns run through `simulator._apply`, on the
    # layouts `_layout` checks and caches; no second axis-moving kernel
    assert _calls_named({"moveaxis"}) == []
    assert sorted(_calls_named({"_apply"})) == [
        ("circuits", "gatelist_matrix", "_apply"),
        ("simulator", "_apply_gate", "_apply"),
    ]
    assert _calls_named({"_layout"}) == [("simulator", "_apply", "_layout")]


def test_one_gate_check():
    # a Gate checks its wiring and matrix once, when it is built, and a gate
    # made from a built one checks only its new wiring; the kernel runs
    # built gates, so `_apply` converts no index and `_layout` checks only
    # the register width.  The other unitarity checks are a dilation's
    # whole U and the input to `synthesize`
    assert _calls_named({"is_unitary"}) == [
        ("blockenc", "__post_init__", "is_unitary"),
        ("simulator", "__post_init__", "is_unitary"),
        ("synthesis", "synthesize", "is_unitary"),
    ]
    assert _calls_named({"_wires"}) == [("simulator", "__post_init__", "_wires"), ("simulator", "_derive", "_wires")]
    # `qft` converts its targets only to key its cache of built ladders,
    # whose gates checked them: (1.0, 0) would otherwise hit (1, 0)'s entry
    assert {site[1] for site in _calls_named({"_as_ints"})} == {"_wires", "qft"}


def test_one_stage_entry():
    # every stage, the signal filter's included, runs inside `run_pipeline`:
    # it alone factors a step, builds its b~ support and writes the stage
    for name in ("_stage", "_step_dilation", "_translation_support"):
        assert _calls_named({name}) == [("pipeline", "run_pipeline", name)]


def test_apps_writes_out_no_identity():
    # the signal filter's step is diagonal and given as its diagonal: an
    # L x L a I was 256 MiB at L = 4096
    assert [site for site in _calls_named({"eye", "identity", "diag"}) if site[0] == "apps"] == []


def test_one_witness_replay():
    # a physical run builds its state by the abstract stages and replays its
    # witness once, at the end; no stage rebuilds the state from gates
    assert _calls_named({"run_gatelist"}) == [("addsub", "_check_witness", "run_gatelist")]
    assert [site for site in _calls_named({"hadamard_addsub_inplace"}) if site[0] == "pipeline"] == []


def test_importing_the_package_and_cli_loads_no_scipy_linalg():
    code = (
        "import sys, qaffine, qaffine.cli\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "from qaffine import compare_methods\n"
        "assert 'scipy.linalg' in sys.modules and compare_methods.__module__ == 'qaffine.synthesis'\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
