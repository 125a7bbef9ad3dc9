import csv
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import count_dense_builds, random_contraction, random_state_vector

import qaffine.cli
from qaffine import AffineSequence, AffineStep, InvalidInputError, SchemaError, block_encode, build_augmented
from qaffine.cli import _build_parser, main, parse_problem
from qaffine.simulator import MAX_QUBITS


def write_problem(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def simple_problem(tmp_path, mode=None, k=1, n=1):
    rng = np.random.default_rng(101)
    dim = 1 << n
    steps = []
    for _ in range(k):
        a = random_contraction(rng, dim, high=0.8)
        b = random_state_vector(rng, dim)
        steps.append(
            {
                "A": [[[z.real, z.imag] for z in row] for row in a],
                "B": [[z.real, z.imag] for z in b],
            }
        )
    psi = random_state_vector(rng, dim)
    payload = {
        "version": 1,
        "n": n,
        "psi": [[z.real, z.imag] for z in psi],
        "steps": steps,
    }
    if mode is not None:
        payload["mode"] = mode
    return write_problem(tmp_path / "problem.json", payload)


# --- problem files -----------------------------------------------------------


def test_serialize_parse_round_trip(tmp_path):
    rng = np.random.default_rng(102)
    seq = AffineSequence(
        1,
        random_state_vector(rng, 2),
        (
            AffineStep(random_contraction(rng, 2), random_state_vector(rng, 2)),
            AffineStep(random_contraction(rng, 2), None),
        ),
    )
    payload = {
        "version": 1,
        "n": seq.n,
        "psi": [[z.real, z.imag] for z in seq.psi0],
        "steps": [
            {
                "A": [[[z.real, z.imag] for z in row] for row in step.A],
                "B": "zero" if step.B is None else [[z.real, z.imag] for z in step.B],
            }
            for step in seq.steps
        ],
        "mode": "physical",
    }
    parsed, mode = parse_problem(write_problem(tmp_path / "round.json", payload))
    assert mode == "physical"
    assert parsed.n == seq.n and parsed.k == seq.k
    assert np.array_equal(parsed.psi0, seq.psi0)
    for got, want in zip(parsed.steps, seq.steps):
        assert np.array_equal(got.A, want.A)
        if want.B is None:
            assert got.B is None
        else:
            assert np.array_equal(got.B, want.B)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("version"),
        lambda d: d.update(version=2),
        lambda d: d.update(n="one"),
        lambda d: d.update(psi=[[1.0]]),
        lambda d: d.update(steps=[]),
        lambda d: d.update(steps=[{"A": [[[1.0, 0.0], [0.0, 0.0]]], "B": "zero"}]),
        lambda d: d.update(mode="loud"),
    ],
)
def test_parse_problem_schema_errors(tmp_path, mutate):
    payload = {
        "version": 1,
        "n": 1,
        "psi": [[1.0, 0.0], [0.0, 0.0]],
        "steps": [{"A": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "B": "zero"}],
    }
    mutate(payload)
    path = write_problem(tmp_path / "bad.json", payload)
    with pytest.raises(SchemaError):
        parse_problem(path)


def test_parse_problem_file_errors(tmp_path):
    with pytest.raises(SchemaError):
        parse_problem(tmp_path / "missing.json")
    bad = tmp_path / "notjson.json"
    bad.write_text("{")
    with pytest.raises(SchemaError):
        parse_problem(bad)


# --- run ----------------------------------------------------------------------


def test_run_writes_outputs_and_verifies(tmp_path, capsys):
    problem = simple_problem(tmp_path, k=2)
    out = tmp_path / "out"
    code = main(["run", problem, "--out-dir", str(out), "--verify"])
    assert code == 0
    captured = capsys.readouterr()
    assert "scale ledger 4" in captured.out

    with open(out / "extracted.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["index"] for r in rows] == ["0", "1"]

    with open(out / "result.json") as fh:
        bundle = json.load(fh)
    assert bundle["scale"] == 4
    assert bundle["metadata"]["k"] == 2
    assert bundle["metadata"]["n"] == 1
    assert bundle["metadata"]["mode"] == "abstract"
    assert "raw_amplitudes" not in bundle
    got = np.array([complex(re, im) for re, im in bundle["extracted"]])
    csv_vals = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
    assert np.max(np.abs(got - csv_vals)) <= 1e-16


def test_run_raw_amplitudes_and_mode_override(tmp_path):
    problem = simple_problem(tmp_path, mode="abstract")
    out = tmp_path / "out"
    code = main(
        ["run", problem, "--out-dir", str(out), "--raw-amplitudes", "--mode", "physical"]
    )
    assert code == 0
    with open(out / "result.json") as fh:
        bundle = json.load(fh)
    assert bundle["metadata"]["mode"] == "physical"
    assert len(bundle["raw_amplitudes"]) == 8  # n=1, k=1 -> 3 qubits


def test_run_verification_failure_exit_code(tmp_path, monkeypatch, capsys):
    problem = simple_problem(tmp_path)
    code = main(["run", problem, "--verify", "--tolerance", "0",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "verification failed" in capsys.readouterr().err
    # a NaN deviation exceeds every tolerance
    import qaffine.cli

    monkeypatch.setattr(qaffine.cli, "extract_result", lambda res: np.full(2, np.nan, dtype=complex))
    code = main(["run", problem, "--verify", "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "verification failed" in capsys.readouterr().err


def test_run_schema_error_exit_code(tmp_path, capsys):
    path = write_problem(tmp_path / "bad.json", {"version": 1})
    code = main(["run", path, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "schema:" in capsys.readouterr().err


def test_run_capacity_exit_code(tmp_path, capsys):
    payload = {
        "version": 1,
        "n": 1,
        "psi": [[1.0, 0.0], [0.0, 0.0]],
        "steps": [
            {"A": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "B": "zero"}
        ]
        * 12,
    }
    path = write_problem(tmp_path / "big.json", payload)
    code = main(["run", path, "--out-dir", str(tmp_path / "out")])
    assert code == 4
    assert "capacity:" in capsys.readouterr().err


def test_run_engine_error_exit_code(tmp_path, capsys):
    payload = {
        "version": 1,
        "n": 1,
        "psi": [[1.0, 0.0], [0.0, 0.0]],
        "steps": [
            {"A": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]], "B": "zero"}
        ],
    }
    path = write_problem(tmp_path / "exp.json", payload)
    code = main(["run", path, "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert "contraction:" in capsys.readouterr().err


def test_run_norm_drift_exit_code(tmp_path, monkeypatch, capsys):
    # an engine norm check that fires is a typed error (exit 3), not a
    # traceback with exit 1, which means "verify failed"
    import qaffine.simulator

    monkeypatch.setattr(qaffine.simulator, "NORM_ATOL", -1.0)
    code = main(["run", simple_problem(tmp_path), "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert "normalization:" in capsys.readouterr().err


# --- baseline -------------------------------------------------------------------


def test_baseline_runs_and_verifies(tmp_path):
    problem = simple_problem(tmp_path)
    out = tmp_path / "out"
    code = main(["baseline", problem, "--out-dir", str(out), "--verify"])
    assert code == 0
    with open(out / "result.json") as fh:
        bundle = json.load(fh)
    assert bundle["metadata"]["mode"] == "augmented"
    assert bundle["metadata"]["alpha"] >= 1.0


def test_baseline_summary_and_alpha(tmp_path, capsys, monkeypatch):
    # the summary names the dilation's dimension 4N and the metadata its
    # alpha, both read without building the 4N x 4N U
    builds = count_dense_builds(monkeypatch)
    problem = simple_problem(tmp_path, n=2)
    out = tmp_path / "out"
    assert main(["baseline", problem, "--out-dir", str(out)]) == 0
    assert "augmented dilation dimension: 16\n" in capsys.readouterr().out
    assert builds == []
    seq, _ = parse_problem(problem)
    step = seq.steps[0]
    enc = block_encode(build_augmented(step.A, step.B, seq.psi0).A_tilde)
    assert enc.U.shape == (16, 16)
    with open(out / "result.json") as fh:
        bundle = json.load(fh)
    assert bundle["metadata"]["alpha"] == bundle["scale"] == enc.alpha > 1.0


def test_translation_off_unit_norm_verifies(tmp_path):
    # |B| = 1 + 9e-9 passes the 1e-8 unit-norm check; the pipeline folds in
    # B / |B|, so the reference must read that B too (it read B as given and
    # deviated by ~6e-9, failing --verify at 1e-9)
    rng = np.random.default_rng(104)
    psi = random_state_vector(rng, 4)
    b = random_state_vector(rng, 4) * (1 + 9e-9)
    half_identity = [[[0.5 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    payload = {
        "version": 1,
        "n": 2,
        "psi": [[z.real, z.imag] for z in psi],
        "steps": [{"A": half_identity, "B": [[z.real, z.imag] for z in b]}],
    }
    problem = write_problem(tmp_path / "off_unit.json", payload)
    for command in ("run", "baseline"):
        assert main([command, problem, "--out-dir", str(tmp_path / command), "--verify"]) == 0


def test_baseline_rejects_multistep(tmp_path, capsys):
    problem = simple_problem(tmp_path, k=2)
    code = main(["baseline", problem, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "single-step" in capsys.readouterr().err


def test_baseline_matches_run_extraction(tmp_path):
    problem = simple_problem(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", problem, "--out-dir", str(out_a)]) == 0
    assert main(["baseline", problem, "--out-dir", str(out_b)]) == 0
    with open(out_a / "result.json") as fh:
        run_vals = np.array([complex(re, im) for re, im in json.load(fh)["extracted"]])
    with open(out_b / "result.json") as fh:
        base_vals = np.array([complex(re, im) for re, im in json.load(fh)["extracted"]])
    assert np.max(np.abs(run_vals - base_vals)) <= 1e-9


def test_off_norm_translation_exits_3_on_every_command(tmp_path, capsys):
    # |B| = 1.1 is refused once, where the step is built, as a
    # normalization error: run, baseline and gates compare all exit 3
    path = simple_problem(tmp_path, n=2)
    payload = json.loads(Path(path).read_text())
    payload["steps"][0]["B"] = [[1.1 * re, 1.1 * im] for re, im in payload["steps"][0]["B"]]
    problem = write_problem(tmp_path / "off_norm.json", payload)
    for argv in (["run"], ["baseline"], ["gates", "compare"]):
        assert main([*argv, problem, "--out-dir", str(tmp_path / argv[0])]) == 3
        assert "normalization: translation norm" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
@pytest.mark.parametrize("n", [1, 2])
def test_overflowing_entries_exit_3(tmp_path, capsys, n, scale):
    # finite entries whose Gram overflows are invalid input, refused before
    # the eigendecomposition: run and baseline print one diagnostic line
    # and exit 3, with no traceback and no overflow warning
    path = simple_problem(tmp_path, n=n)
    payload = json.loads(Path(path).read_text())
    payload["steps"][0]["A"] = [[[scale * re, scale * im] for re, im in row] for row in payload["steps"][0]["A"]]
    problem = write_problem(tmp_path / "overflow.json", payload)
    for argv in (["run"], ["baseline"]):
        assert main([*argv, problem, "--out-dir", str(tmp_path / argv[0])]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invalid-input: "), lines


# --- gates compare ----------------------------------------------------------------


def test_gates_compare_writes_counts(tmp_path, capsys):
    problem = simple_problem(tmp_path, n=2)
    out = tmp_path / "out"
    code = main(["gates", "compare", problem, "--out-dir", str(out)])
    assert code == 0
    with open(out / "gatecounts.json") as fh:
        payload = json.load(fh)
    for key in ("ours", "augmented"):
        rep = payload[key]
        assert rep["total"] == rep["single_qubit"] + rep["multi_qubit"]
        assert rep["total"] > 0
    assert "note" in payload
    table = capsys.readouterr().out
    assert "sequential" in table and "augmented" in table


def test_gates_compare_requires_n2_single_step(tmp_path):
    problem = simple_problem(tmp_path, n=1)
    assert main(["gates", "compare", problem, "--out-dir", str(tmp_path / "o")]) == 2


def test_cached_parser_gives_what_fresh_parsers_give(tmp_path, capsys):
    # one parser serves every main() call of a process; interleaved runs,
    # baselines and gate comparisons, passing and failing, write the same
    # files, print the same text and exit with the same codes as runs that
    # each build a new parser
    simple_problem(tmp_path, n=2)
    one_step = str((tmp_path / "problem.json").rename(tmp_path / "one_step.json"))
    two_step = simple_problem(tmp_path, n=2, k=2)
    calls = [
        ["run", one_step, "--verify"],
        ["baseline", one_step, "--verify"],
        ["gates", "compare", one_step],
        ["run", two_step, "--mode", "physical"],
        ["baseline", two_step],
        ["gates", "compare", two_step],
    ]

    def outcomes(label, fresh):
        seen = []
        for i, argv in enumerate(calls * 2):
            if fresh:
                _build_parser.cache_clear()
            out = tmp_path / label / str(i)
            code = main([*argv, "--out-dir", str(out)])
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.exists() else {}
            seen.append((code, files, capsys.readouterr()))
        return seen

    reused = outcomes("reused", fresh=False)
    assert _build_parser() is _build_parser()
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 2] * 2
    moved = str(tmp_path / "reused"), str(tmp_path / "rebuilt")
    assert outcomes("rebuilt", fresh=True) == [
        (code, files, (out.replace(*moved), err)) for code, files, (out, err) in reused
    ]


# --- demos -------------------------------------------------------------------------


def test_demo_portfolio_default(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["demo", "portfolio", "--out-dir", str(out), "--shots", "2000"])
    assert code == 0
    with open(out / "portfolio.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["bits"] for r in rows] == ["00", "10", "01", "11"]
    amps = [float(r["amplitude"]) for r in rows]
    assert amps == pytest.approx([0.7, 0.7, 0.1, -0.1], abs=1e-12)
    total_emp = sum(float(r["empirical_frequency"]) for r in rows)
    assert total_emp == pytest.approx(1.0, abs=1e-9)


def test_demo_portfolio_custom_and_raw(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["demo", "portfolio", "--assets", "4,3,2,1", "--raw",
         "--out-dir", str(out), "--shots", "1000"]
    )
    assert code == 0
    code = main(
        ["demo", "portfolio", "--assets", "0.6,0.8", "--out-dir", str(out),
         "--shots", "1000"]
    )
    assert code == 0


def test_demo_portfolio_bad_assets(tmp_path):
    code = main(["demo", "portfolio", "--assets", "1,junk",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    code = main(["demo", "portfolio", "--assets", "1,1",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2


def test_demo_portfolio_seed_env(tmp_path, monkeypatch):
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    out3 = tmp_path / "o3"
    monkeypatch.setenv("QAFFINE_SEED", "55")
    assert main(["demo", "portfolio", "--out-dir", str(out1), "--shots", "5000"]) == 0
    assert main(["demo", "portfolio", "--out-dir", str(out2), "--shots", "5000"]) == 0
    monkeypatch.delenv("QAFFINE_SEED")
    assert main(["demo", "portfolio", "--out-dir", str(out3), "--shots", "5000",
                 "--seed", "55"]) == 0
    assert (out1 / "portfolio.csv").read_text() == (out2 / "portfolio.csv").read_text()
    assert (out1 / "portfolio.csv").read_text() == (out3 / "portfolio.csv").read_text()


def test_demo_portfolio_bad_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QAFFINE_SEED", "many")
    code = main(["demo", "portfolio", "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "QAFFINE_SEED" in capsys.readouterr().err


def test_demo_negative_seed_exit_code(tmp_path, monkeypatch, capsys):
    # a seed below 0 is invalid input (exit 3), not a traceback from numpy
    out = ["--out-dir", str(tmp_path / "o")]
    for demo in ("portfolio", "signal"):
        assert main(["demo", demo, "--seed", "-1", *out]) == 3
        assert "invalid-input:" in capsys.readouterr().err
    monkeypatch.setenv("QAFFINE_SEED", "-1")
    assert main(["demo", "portfolio", *out]) == 3
    assert "invalid-input:" in capsys.readouterr().err


def test_demo_signal(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["demo", "signal", "--length", "16", "--scale-a", "0.5",
                 "--bias-b", "0.2", "--out-dir", str(out), "--seed", "3"])
    assert code == 0
    with open(out / "signal.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    assert rows[0]["t"] == "0"
    q = np.array([float(r["quantum_out"]) for r in rows])
    c = np.array([float(r["classical_out"]) for r in rows])
    assert np.max(np.abs(q - c)) <= 1e-8
    assert "max deviation" in capsys.readouterr().out


def test_demo_signal_invalid_scale(tmp_path, capsys):
    code = main(["demo", "signal", "--scale-a", "1.5",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 3
    assert "contraction:" in capsys.readouterr().err
    code = main(["demo", "signal", "--scale-a", "nan", "--out-dir", str(tmp_path / "o")])
    assert code == 3
    assert "invalid-input:" in capsys.readouterr().err


def test_demo_sizes_past_memory_exit_4(tmp_path, capsys):
    # a signal length past 2^(MAX_QUBITS - 2) is refused before its samples
    # exist, and so is a shot count past int64, numpy's count type (10^20
    # once ended in numpy's traceback).  Neither writes an output
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        assert main(["demo", "signal", "--length", "1099511627776", "--out-dir", str(out)]) == 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "capacity: signal length 1099511627776 exceeds" in capsys.readouterr().err
    for shots in ("9223372036854775808", "100000000000000000000"):
        assert main(["demo", "portfolio", "--shots", shots, "--out-dir", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"capacity: shots {shots} exceed") and err.count("\n") == 1
    assert not out.exists()


def test_demo_portfolio_memory_does_not_grow_with_shots(tmp_path):
    # 10^12 shots are one multinomial draw over the 2^m bins: the run once
    # asked numpy for 7.3 TiB of per-shot draws
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        assert main(["demo", "portfolio", "--shots", "1000000000000", "--out-dir", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with open(out / "portfolio.csv", newline="") as fh:
        freqs = [float(row["empirical_frequency"]) for row in csv.DictReader(fh)]
    assert sum(freqs) == pytest.approx(1.0, abs=1e-12)


def test_demo_signal_longest_length_passes_the_capacity_check(tmp_path, monkeypatch, capsys):
    # 2^(MAX_QUBITS - 2) samples fit one filter step: the length reaches the
    # sample generator, here a stand-in that refuses it without allocating.
    # A MemoryError without a message still prints one line
    args = ["demo", "signal", "--length", str(1 << (MAX_QUBITS - 2)), "--out-dir", str(tmp_path / "o")]
    for error, code, line in ((InvalidInputError("reached"), 3, "invalid-input: reached"), (MemoryError(), 4, "capacity: out of memory")):

        def refuse(length, seed, error=error):
            raise error

        monkeypatch.setattr(qaffine.cli, "random_two_tone", refuse)
        assert main(args) == code
        assert capsys.readouterr().err == line + "\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "qaffine" in capsys.readouterr().out
