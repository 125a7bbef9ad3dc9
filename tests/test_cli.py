import csv
import json

import numpy as np
import pytest
from conftest import random_contraction, random_state_vector

from qaffine import AffineSequence, AffineStep, SchemaError, block_encode, build_augmented
from qaffine.blockenc import _Dilation
from qaffine.cli import main, parse_problem, serialize_problem


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
    path = tmp_path / "round.json"
    path.write_text(json.dumps(serialize_problem(seq, mode="physical")))
    parsed, mode = parse_problem(path)
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


def test_run_verification_failure_exit_code(tmp_path, capsys):
    problem = simple_problem(tmp_path)
    code = main(["run", problem, "--verify", "--tolerance", "0",
                 "--out-dir", str(tmp_path / "out")])
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
    encodings = []
    encoding = _Dilation.encoding
    monkeypatch.setattr(_Dilation, "encoding", lambda f: encodings.append(None) or encoding(f))
    problem = simple_problem(tmp_path, n=2)
    out = tmp_path / "out"
    assert main(["baseline", problem, "--out-dir", str(out)]) == 0
    assert "augmented dilation dimension: 16\n" in capsys.readouterr().out
    assert encodings == []
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "qaffine" in capsys.readouterr().out
