"""Every name the package exports, every public function or class a package
module defines, and every public method or property of such a class has a
user besides its own unit tests: a package module other than `__init__`, or
the acceptance criteria.  Only `synthesis` imports scipy, and only a use of
one of its names loads it.  One call site factors every dilation, into one
dilation type, and one writes its blocks out densely, one kernel applies
every gate, one entry runs every pipeline stage, one helper hands it
every register buffer, and one replay checks every gate witness.  A gate is
checked once, where it is built, and trusts three structured types by their
type.  Synthesis calls LAPACK only through its cached drivers."""

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
    # a dilation keeps only A's direct-sum blocks: the first read of
    # `BlockEncoding.U` alone writes them out densely, and neither the check
    # of [A; R] nor the stage write counts nonzeros to rediscover the split
    assert _calls_named({"_dense"}) == [("blockenc", "U", "_dense")]
    counts = _calls_named({"count_nonzero"})
    assert [site for site in counts if site[1] in ("_check_isometry", "_deviation", "_write_dilation")] == []


def test_one_dilation_type():
    # `_factor`'s factorization is the dilation: one type, `BlockEncoding`,
    # whose U is built from its blocks, not a second type converted to it
    assert _calls_named({"BlockEncoding"}) == [("blockenc", "_factor", "BlockEncoding")]
    for module in PACKAGE.glob("*.py"):
        tree = ast.parse(module.read_text())
        defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        names = defined | _referenced_names(module)
        assert "encoding" not in names and not any(name.endswith("Dilation") for name in names), module.stem


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
    # whole U, on its first read, and the input to `synthesize`
    assert _calls_named({"is_unitary"}) == [
        ("blockenc", "U", "is_unitary"),
        ("simulator", "__post_init__", "is_unitary"),
        ("synthesis", "synthesize", "is_unitary"),
    ]
    assert _calls_named({"_wires"}) == [("simulator", "__post_init__", "_wires"), ("simulator", "_derive", "_wires")]
    # `qft` converts its targets only to key its cache of built ladders,
    # whose gates checked them: (1.0, 0) would otherwise hit (1, 0)'s entry.
    # `synthesize` converts its wires once, so an identity, which builds no
    # gate, rejects (1.0, 0) too, and every gate it builds gets ints
    assert {site[1] for site in _calls_named({"_as_ints"})} == {"_wires", "qft", "synthesize"}


def test_gate_trusts_exactly_the_self_checking_types():
    # a Reflector and a Diagonal check themselves in O(d) when built, and a
    # BlockEncoding checks its U on first read; any other matrix gets the
    # dense unitarity check
    tree = ast.parse((PACKAGE / "simulator.py").read_text())
    gate = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Gate")
    post_init = next(node for node in gate.body if isinstance(node, ast.FunctionDef) and node.name == "__post_init__")
    checks = [node for node in ast.walk(post_init) if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"]
    assert [sorted(ast.unparse(elt) for elt in call.args[1].elts) for call in checks] == [
        ["BlockEncoding", "Diagonal", "Reflector"]
    ]


def test_synthesis_reaches_lapack_through_its_cached_drivers():
    # scipy's `cossin` and `schur` validate, batch and query the workspace
    # on every call: a 4x4 CSD took 82 us and a 2x2 Schur form 29 us
    # there, 19 and 8 us through the drivers (2-core Xeon VM), which fetch
    # each LAPACK routine and size its workspace once per matrix size
    assert _calls_named({"cossin", "schur"}) == []
    assert sorted(_calls_named({"get_lapack_funcs"})) == [
        ("synthesis", "_gees", "scipy.linalg.get_lapack_funcs"),
        ("synthesis", "_uncsd", "scipy.linalg.get_lapack_funcs"),
    ]


def test_lower_builds_each_gate_once():
    # `lower` synthesizes a block on its own wires and keeps the gates as
    # built; it relabels none through `_derive`
    assert ("synthesis", "lower", "synthesize") in _calls_named({"synthesize"})
    assert [site for site in _calls_named({"_derive"}) if site[0] == "synthesis"] == []


def test_one_stage_entry():
    # every stage, the signal filter's included, runs inside `run_pipeline`:
    # it alone factors a step, builds its b~ support and writes the stage
    for name in ("_stage", "_step_dilation", "_translation_support"):
        assert _calls_named({name}) == [("pipeline", "run_pipeline", name)]


def test_one_register_allocation():
    # a run's register is the kept buffer or a prefix of it: `run_pipeline`
    # takes it from `pipeline._register`, which alone allocates one
    assert _calls_named({"_register"}) == [("pipeline", "run_pipeline", "_register")]
    assert {site[1] for site in _calls_named({"empty", "empty_like"}) if site[0] == "pipeline"} == {None, "_register"}
    # the one other array a run builds is physical mode's b~ on 2d amplitudes
    makers = {"empty", "zeros", "ones", "full", "empty_like", "zeros_like"}
    assert [site[2] for site in _calls_named(makers) if site[1] == "run_pipeline"] == ["np.zeros"]


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
