"""One-off measurements made at the end of a traced run.

Each probe re-measures the op of one workload and runs in that
workload's traced run only; elsewhere it reads 0.

* ``blas.default_*`` (``spectrum``): one quick-start spectrum in a
  fresh interpreter with the BLAS thread variables unset, i.e. the
  library's own thread count; the timed runs pin one thread.
* ``dynamics.single_pass_s`` / ``ladder_ratio`` (``spectrum``):
  evolve_fundamental on the quick-start without refinement, and the
  default refined call against it.
* ``sweep.pool_speedup`` (``phase_scan``): the run's first phase scan
  again through run_scan(workers=2), against its serial time in the
  traced op; absent on every workload once run_scan has no
  ``workers`` parameter.
"""

from __future__ import annotations

import inspect
import os
import resource
import subprocess
import sys
import time

import gate
import spans
import workloads

PROBE_TIMEOUT_S = 150
METRICS = {
    "blas.default_wall_s": "s",
    "blas.default_cpu_s": "s",
    "dynamics.single_pass_s": "s",
    "dynamics.ladder_ratio": "ratio",
    "sweep.pool_speedup": "ratio",
}
_MAIN = "import sys; from vibracav.cli import main; sys.exit(main(sys.argv[1:]))"


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def blas_default(src: str, work_dir: str, thread_vars) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in thread_vars}
    env["PYTHONPATH"] = src
    path = os.path.join(work_dir, "blas_probe.csv")
    argv = (workloads.QUICKSTART[0], "--quiet", f"--out={path}",
            *workloads.QUICKSTART[1:])
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _MAIN, *argv], env=env,
                          timeout=PROBE_TIMEOUT_S, check=False)
    wall = time.perf_counter() - start
    cpu = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN)) - _cpu(before)
    gate.check(workloads.QUICKSTART, "csv", proc.returncode, path,
               "quickstart.csv")
    return {"blas.default_wall_s": wall, "blas.default_cpu_s": cpu}


def ladder() -> dict:
    from vibracav.core import CavityConfig, Truncation
    from vibracav.dynamics import evolve_fundamental

    cfg = CavityConfig(epsilon=1e-4, t_final=1000.0, a_right=1.0,
                       gamma_right=4.0)
    trunc = Truncation(k_max=workloads.K_MAX)
    start = time.perf_counter()
    evolve_fundamental(cfg, trunc, refine=False)
    single = time.perf_counter() - start
    start = time.perf_counter()
    evolve_fundamental(cfg, trunc)
    refined = time.perf_counter() - start
    return {"dynamics.single_pass_s": single,
            "dynamics.ladder_ratio": refined / single}


def _pool_exists() -> bool:
    from vibracav.sweep import run_scan

    return "workers" in inspect.signature(run_scan).parameters


def pool(first_scan) -> dict:
    """Speed-up of the traced op's scan when run on two workers.

    The serial time is the op's run_scan span.  Tracing adds only the
    wrappers' bookkeeping to it, a few spans per point (see
    trace.overhead), so the pooled run goes untraced.
    """
    from vibracav.sweep import run_scan

    if first_scan is None:
        raise gate.GateError("no traced scan to re-run on two workers")
    serial, span = first_scan
    start = time.perf_counter()
    pooled = run_scan(serial.spec, workers=2)
    seconds = time.perf_counter() - start
    if pooled.failures or pooled.rows != serial.rows:
        raise gate.GateError("pooled scan differs from the serial scan")
    return {"sweep.pool_speedup": spans.seconds(span) / seconds}


def run_all(workload: str, first_scan, src: str, work_dir: str,
            thread_vars) -> dict:
    """The workload's probes, as {name: (value, unit)}; the others read 0."""
    values = dict.fromkeys(METRICS, 0.0)
    if workload == "spectrum":
        values.update(blas_default(src, work_dir, thread_vars))
        values.update(ladder())
    if not _pool_exists():
        del values["sweep.pool_speedup"]
    elif workload == "phase_scan":
        values.update(pool(first_scan))
    return {name: (value, METRICS[name]) for name, value in values.items()}
