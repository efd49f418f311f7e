"""Tests of the benchmark itself: names, gate, generator, empty checkout.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from vibracav import cli  # noqa: E402
from vibracav.core import require_resolved  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_main(capsys, *argv):
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# metric names


def test_declared_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layers = {name: unit for name, (_, unit)
              in spans.layer_metrics([], []).items()}
    layers["trace.op_s_p50"] = "s"
    layers.update(probes.METRICS)
    assert per_layer == layers
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    result = _run_main(capsys, "--workload", "analytic_scan",
                       "--seed", "3", "--seconds", "1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = {m["name"] for m in _benchmark_json()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(capsys, monkeypatch):
    # the probes cost half a minute of numeric integration; their names
    # are checked against BENCHMARK.json above
    monkeypatch.setattr(probes, "run_all", lambda *a: {
        name: (1.0, unit) for name, unit in probes.METRICS.items()})
    result = _run_main(capsys, "--workload", "analytic_scan",
                       "--seed", "3", "--seconds", "1", "--trace", "1")
    assert result["correct"]
    names = {m["name"] for m in _benchmark_json()["per_layer"]}
    assert set(result["metrics"]) == names
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["analytic.calls"] == workloads.ANALYTIC_POINTS
    assert metrics["dynamics.evolve_calls"] == 0
    assert metrics["cli.rows"] == workloads.ANALYTIC_POINTS * workloads.K_MAX


def test_rk4_step_count_follows_the_halving_ladder():
    assert spans.rk4_steps(81488, 0, True) == 122232
    assert spans.rk4_steps(162976, 1, True) == 40744 + 81488 + 162976
    assert spans.rk4_steps(40744, 0, False) == 40744


# ---------------------------------------------------------------------------
# correctness gate


QUICKSTART_CSV = os.path.join(gate.REFERENCE_DIR, "quickstart.csv")
INCOMMENSURATE_CSV = os.path.join(gate.REFERENCE_DIR, "incommensurate.csv")


def _tampered_copy(tmp_path, edit, source=QUICKSTART_CSV):
    with open(source, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines = edit(lines)
    path = tmp_path / "tampered.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _as_freq_scan(lines, value=repr(math.e)):
    """A stored spectrum rewritten as a one-point freq-scan output."""
    meta = [ln for ln in lines if ln.startswith("#")
            and not ln.startswith(("# command", "# engine"))]
    rows = [f"{value},{ln}".split(",") for ln in lines
            if ln and not ln.startswith(("#", "k,"))]
    return (["# command = freq-scan", *meta, "# axis = gamma_right",
             "# engine = both", "# n_points = 1", "# failures = ",
             "gamma_right,engine,k,photon_number"]
            + [f"{g},{e},{k},{n}" for g, k, e, n in rows])


def _edit_row(k, engine, transform):
    def edit(lines):
        prefix = f"{k},{engine},"
        out = []
        for line in lines:
            if line.startswith(prefix):
                line = prefix + transform(float(line[len(prefix):]))
            out.append(line)
        return out
    return edit


def test_gate_passes_the_stored_reference(tmp_path):
    path = _tampered_copy(tmp_path, lambda lines: lines)
    checked = gate.check(workloads.QUICKSTART, "csv", 0, path,
                         "quickstart.csv")
    assert checked.rows == 32 and checked.spectra == 2


@pytest.mark.parametrize("edit", [
    _edit_row(2, "numeric", lambda v: repr(v * (1 + 1e-3))),
    _edit_row(1, "analytic", lambda v: repr(v * (1 + 1e-3))),
    _edit_row(7, "numeric", lambda v: "nan"),
    _edit_row(9, "numeric", lambda v: repr(-v)),
    lambda lines: [ln for ln in lines if not ln.startswith("16,numeric,")],
], ids=["numeric-1e-3", "analytic-1e-3", "nan-row", "negative-row",
        "missing-row"])
def test_gate_fails_a_tampered_output(tmp_path, edit):
    path = _tampered_copy(tmp_path, edit)
    with pytest.raises(gate.GateError):
        gate.check(workloads.QUICKSTART, "csv", 0, path, "quickstart.csv")


def test_gate_bounds_the_leakage_of_an_unreferenced_spectrum(tmp_path):
    # limit: 2e-2 of the closed-form peak 0.01; the stored mode 7 leaks
    # 9.5e-5
    assert gate.check(workloads.QUICKSTART, "csv", 0, QUICKSTART_CSV).rows
    path = _tampered_copy(tmp_path, _edit_row(10, "numeric",
                                              lambda v: repr(3e-4)))
    with pytest.raises(gate.GateError, match="leaks"):
        gate.check(workloads.QUICKSTART, "csv", 0, path)


def _freq_op():
    return next(workloads.cycles("freq_scan", 1))[0]


def test_gate_checks_the_incommensurate_reference_point(tmp_path):
    op = _freq_op()
    path = _tampered_copy(tmp_path, _as_freq_scan, INCOMMENSURATE_CSV)
    assert gate.check(op.argv, "csv", 0, path, op.reference).spectra == 2
    for edit in (
            lambda ls: _as_freq_scan(_edit_row(
                5, "numeric", lambda v: repr(v * (1 + 1e-3)))(ls)),
            lambda ls: _as_freq_scan(ls, value="2.7"),
            lambda ls: [ln.replace("# a_right = 1", "# a_right = 0.9")
                        for ln in _as_freq_scan(ls)]):
        path = _tampered_copy(tmp_path, edit, INCOMMENSURATE_CSV)
        with pytest.raises(gate.GateError):
            gate.check(op.argv, "csv", 0, path, op.reference)


def test_gate_fails_exit_2_and_missing_output(tmp_path):
    with pytest.raises(gate.GateError):
        gate.check(workloads.QUICKSTART, "csv", 2, QUICKSTART_CSV,
                   "quickstart.csv")
    with pytest.raises(gate.GateError):
        gate.check(workloads.QUICKSTART, "csv", 1,
                   str(tmp_path / "absent.csv"), "quickstart.csv")


def test_closed_form_matches_the_quickstart():
    cfg = {"epsilon": 1e-4, "t_final": 1000.0, "lam": math.pi,
           "a_left": 0.0, "a_right": 1.0, "gamma_left": 1.0,
           "gamma_right": 4.0, "phi_left": 0.0, "phi_right": 0.0}
    n_k, _, _ = gate.closed_form(cfg, np.arange(1.0, 17.0))
    assert np.allclose(n_k[:3], gate.QUICKSTART_ANALYTIC, rtol=1e-12)
    assert not n_k[3:].any()


# ---------------------------------------------------------------------------
# seed-to-config generator


def _ops(workload, seed, n_cycles=6):
    stream = workloads.cycles(workload, seed)
    return [op for _ in range(n_cycles) for op in next(stream)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert _ops(workload, 7) == _ops(workload, 7)
    assert _ops(workload, 7) != _ops(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", range(20))
def test_generated_configs_validate(workload, seed):
    parser = cli.build_parser()
    for op in _ops(workload, seed):
        args = parser.parse_args(list(op.argv))
        cfg, trunc = cli.parse_config(args.config, args.overrides)
        require_resolved(cfg, trunc)
        assert trunc.k_max == workloads.K_MAX
        assert (cfg.epsilon, cfg.t_final) == (1e-4, 1000.0)
        if workload != "analytic_scan":  # numeric ops: no refinement
            assert (cfg.a_left + cfg.a_right <= 1.0
                    or min(cfg.a_left, cfg.a_right) == 0.0)
        values = getattr(args, "values", None)
        if values:
            assert all(b > a for a, b in zip(values, values[1:]))
        if op.command == "freq-scan" and args.engine == "both":
            for value in values:
                nearest = Fraction(value).limit_denominator(
                    workloads.MAX_DENOMINATOR)
                assert abs(value - float(nearest)) > workloads.RATIONAL_GAP


def test_spectrum_runs_start_with_the_quickstart():
    for seed in range(5):
        first = _ops("spectrum", seed)[0]
        assert first.argv == workloads.QUICKSTART
        assert first.reference == "quickstart.csv"


def _resolved(argv, **axis):
    args = cli.build_parser().parse_args(list(argv))
    cfg, _ = cli.parse_config(args.config, args.overrides)
    return {key: float(axis.get(key, getattr(cfg, key)))
            for key in gate._CONFIG_KEYS}, args


@pytest.mark.parametrize("seed", range(5))
def test_ops_match_their_stored_reference(seed):
    quickstart, _ = _resolved(workloads.QUICKSTART)
    assert quickstart == gate.load_reference("quickstart.csv")[0]
    op = _ops("freq_scan", seed, n_cycles=1)[0]
    point, args = _resolved(op.argv, gamma_right=workloads.FREQ_REFERENCE)
    assert workloads.FREQ_REFERENCE in args.values
    assert point == gate.load_reference(op.reference)[0]


def test_scan_ops_have_the_documented_point_counts():
    for workload, points in (("phase_scan", workloads.PHASE_POINTS),
                             ("freq_scan", workloads.FREQ_POINTS)):
        for op in _ops(workload, 3):
            args = cli.build_parser().parse_args(list(op.argv))
            assert len(args.values) == points


# ---------------------------------------------------------------------------
# a checkout without the program


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectrum", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
