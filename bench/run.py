"""vibracav benchmark: seeded CLI workloads, gated outputs, named metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload spectrum --seed 1 --seconds 5 --trace 0

One client runs ops back to back (a closed loop) in this process: an op
is one ``vibracav.cli.main(argv)`` call writing into a scratch
directory, after which the output is read back and gated (gate.py).
A run measures whole op cycles, at least one, until the next cycle
would end past ``--seconds``.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` every op runs with spans on
(spans.py), then the workload's probes run (probes.py), and the run
prints the per-layer metrics.  The last line of stdout is the result;
the line before it records the environment and details.  Files go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os
import sys

# BLAS is pinned to one thread before numpy can load: at 2K = 32 a
# second OpenBLAS thread doubles CPU time without cutting wall time.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
import probes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# setup_s samples, taken half before and half after the measured ops:
# a fresh interpreter's import takes ~60 ms, short enough that bursts of
# load from outside the process swing single samples by 50%, so the
# median needs samples spread over the run.
SETUP_REPEATS = 12
SETUP_TIMEOUT_S = 60
# setup_s: a fresh interpreter imports the CLI and resolves the
# workload's first configuration.
_SETUP = """\
import sys, time
start = time.perf_counter()
import vibracav.cli as cli
args = cli.build_parser().parse_args(sys.argv[1:])
cli.parse_config(args.config, args.overrides)
print(time.perf_counter() - start)
"""

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "spectra_per_s": "1/s",
    "rows_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git(*args) -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True, timeout=30, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def environment(args) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "parameters": workloads.parameters(args.workload),
    }


def measure_setup(argv, repeats: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _SETUP, *argv], env=env,
                              capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_op(op, op_id: int, work_dir: str, tracer) -> dict:
    """Run and gate one op; ``tracer`` is None for an untraced op."""
    from vibracav import cli

    path = os.path.join(work_dir, f"op{op_id}.{op.fmt}")
    argv = [op.command, "--quiet", f"--out={path}", f"--format={op.fmt}",
            *op.argv[1:]]
    main = cli.main
    if tracer is not None:
        tracer.op = op_id
        main = tracer.wrap("op", cli.main)
    record = {"id": op_id, "command": op.command, "fmt": op.fmt,
              "traced": tracer is not None, "error": None}
    code = None
    # garbage of the previous op and its gate is not charged to this one
    gc.collect()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    except Exception:  # noqa: BLE001 - any exception fails the op
        record["error"] = traceback.format_exc(limit=3)
    record["seconds"] = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    record["cpu_s"] = (after.ru_utime - before.ru_utime
                       + after.ru_stime - before.ru_stime)
    record["exit"] = code
    if record["error"] is None:
        try:
            checked = gate.check(op.argv, op.fmt, code, path, op.reference)
            record.update(rows=checked.rows, spectra=checked.spectra,
                          bytes_out=checked.bytes_out,
                          verdict=checked.verdict)
        except (gate.GateError, OSError, ValueError, KeyError) as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
    if os.path.exists(path):
        os.unlink(path)
    return record


def run_cycles(workload: str, seed: int, seconds: float, work_dir: str,
               tracer) -> list[dict]:
    """Whole cycles, at least one, until the next would end past
    ``seconds``; every op is traced when ``tracer`` is given."""
    records = []
    start = time.perf_counter()
    last = 0.0
    if tracer is not None:
        tracer.install()
    try:
        for index, cycle in enumerate(workloads.cycles(workload, seed)):
            if index and time.perf_counter() - start + last > seconds:
                break
            cycle_start = time.perf_counter()
            for op in cycle:
                record = run_op(op, len(records), work_dir, tracer)
                record["cycle"] = index
                records.append(record)
            last = time.perf_counter() - cycle_start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return records


def tail(durations: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(durations)
    if n < 11:
        return None
    ordered = sorted(durations)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


def per_cycle(records: list[dict], numerator, denominator) -> float:
    """Median over cycles of a per-cycle ratio of sums over its ops.

    A cycle holds one op of each kind the workload mixes, and kinds can
    differ in cost (a JSON render takes about twice a CSV one), so the
    median of single op times would fall into the gap between kinds.
    Each figure is therefore taken per cycle (e.g. op_s_p50 is the mean
    op time of a cycle) and reported as the median over cycles.  Cycles
    with a failed op are left out unless every cycle has one.
    """
    cycles: dict[int, list[dict]] = {}
    for r in records:
        cycles.setdefault(r["cycle"], []).append(r)
    good = [ops for ops in cycles.values()
            if all(r["error"] is None for r in ops)] or list(cycles.values())
    return statistics.median(
        sum(numerator(r) for r in ops) / sum(denominator(r) for r in ops)
        for ops in good)


def op_s_p50(records: list[dict]) -> float:
    return per_cycle(records, lambda r: r["seconds"], lambda r: 1)


def end_to_end(records: list[dict], setup: list[float]) -> dict:
    """End-to-end figures, each a median over cycles (per_cycle)."""
    values = {
        "setup_s": statistics.median(setup),
        "op_s_p50": op_s_p50(records),
        "ops_per_s": per_cycle(records, lambda r: 1, lambda r: r["seconds"]),
        "spectra_per_s": per_cycle(records, lambda r: r.get("spectra", 0),
                                   lambda r: r["seconds"]),
        "rows_per_s": per_cycle(records, lambda r: r.get("rows", 0),
                                lambda r: r["seconds"]),
        "cpu_s_per_op": per_cycle(records, lambda r: r["cpu_s"],
                                  lambda r: 1),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vibracav", "cli.py")):
        print(f"error: no vibracav sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    env = environment(args)
    work_dir = tempfile.mkdtemp(dir=OUT_DIR, prefix="ops-")
    details = {}
    try:
        if args.trace:
            tracer = spans.Tracer()
            records = run_cycles(args.workload, args.seed, args.seconds,
                                 work_dir, tracer)
            layers = spans.layer_metrics(
                tracer.spans, [r["id"] for r in records if not r["error"]],
                spans.frame_cost())
            # against the untraced run's op_s_p50: the measured overhead
            layers["trace.op_s_p50"] = (op_s_p50(records), "s")
            try:
                layers.update(probes.run_all(args.workload, tracer.first_scan,
                                             SRC, work_dir, BLAS_THREAD_VARS))
            except Exception:  # noqa: BLE001 - a failed probe fails the run
                details["probe_error"] = traceback.format_exc(limit=3)
            tracer.dump(stem + "-spans.jsonl")
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layers.items()}
        else:
            first = next(workloads.cycles(args.workload, args.seed))[0]
            setup = measure_setup(first.argv, SETUP_REPEATS // 2)
            records = run_cycles(args.workload, args.seed, args.seconds,
                                 work_dir, None)
            setup += measure_setup(first.argv, SETUP_REPEATS - len(setup))
            details["setup_samples"] = setup
            metrics = end_to_end(records, setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for r in records if r["error"] is not None)
    durations = [r["seconds"] for r in records if r["error"] is None]
    by_kind: dict[str, list[float]] = {}
    for r in records:
        if r["error"] is None:
            by_kind.setdefault(f"{r['command']} {r['fmt']}", []).append(
                r["seconds"])
    details.update(
        error_rate=failed / len(records),
        op_s_tail=tail(durations),
        op_s_median_by_kind={k: statistics.median(v)
                             for k, v in by_kind.items()},
        compare_verdicts=[r["verdict"] for r in records
                          if r.get("verdict") is not None],
        ops=records,
    )
    result = {"correct": failed == 0 and "probe_error" not in details,
              "attempted": len(records), "failed": failed,
              "metrics": metrics}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "details": details, **result}, fh,
                  indent=2)
    print(json.dumps({"environment": env,
                      "details": {k: v for k, v in details.items()
                                  if k != "ops"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
