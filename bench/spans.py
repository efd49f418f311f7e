"""Spans around the public functions of vibracav's five modules.

The tracer rebinds each public function, in every module that holds a
reference to it (``sweep`` keeps its own ``evolve_fundamental``,
``cli`` its own ``run_scan``, ``dynamics`` its own ``drive_terms``),
to a wrapper that records a span: name, start, end, parent span, op
id and the wrapper's own bookkeeping time.  Spans stay in memory until
the run ends.  Nothing inside the package is edited; ``uninstall``
restores every original binding.
"""

from __future__ import annotations

import json
import math
import time

# Complex (2K)x(2K) matrix products per RK4 step (k1..k4) and real
# floating-point operations per complex multiply-add.
MATMULS_PER_STEP = 4
FLOPS_PER_COMPLEX_FMA = 8

_NAME, _START, _END, _PARENT, _OP, _ATTRS, _OWN = range(1, 8)


def rk4_steps(n_steps: int, refinements: int, refined: bool) -> int:
    """RK4 steps one evolve_fundamental call took.

    A refined call runs the base pass, then passes of 2, 4, ... times
    the base count until one is accepted; ``n_steps`` is the accepted
    pass, so the base is n_steps / 2**(refinements + 1) and the total
    is base * (2**(refinements + 2) - 1).
    """
    if not refined:
        return n_steps
    base = n_steps // 2 ** (refinements + 1)
    return base * (2 ** (refinements + 2) - 1)


def frame_cost(calls: int = 20000) -> float:
    """Seconds a traced call costs beyond the wrapper's own timed part.

    The wrapper cannot time its own call frame, argument packing and
    return, so these are calibrated on a wrapped no-op: wrapped time,
    less plain time, less the ``own`` the wrapper recorded.
    """
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - start
    own = sum(s[_OWN] for s in tracer.spans)
    return max(wrapped - plain - own, 0.0) / calls


def seconds(span: list) -> float:
    """Wall time of a finished span."""
    return span[_END] - span[_START]


class Tracer:
    """Records spans; ``install`` rebinds the package's public functions."""

    def __init__(self) -> None:
        # [id, name, start, end, parent, op, attrs, own]
        self.spans: list[list] = []
        self.op = None
        # (ScanResult, its span) of the first traced scan, for the pool probe
        self.first_scan = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, describe=None):
        """``fn`` recording a span per call; ``describe`` adds attributes.

        ``own`` is the time the wrapper spends outside ``fn``: its
        bookkeeping and ``describe``, i.e. what tracing adds.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            start = time.perf_counter()
            span = [len(spans), name, start, None,
                    stack[-1] if stack else None, self.op, None, 0.0]
            spans.append(span)
            stack.append(span[0])
            done = None
            inner = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = time.perf_counter()
                if describe is not None:
                    span[_ATTRS] = describe(args, kwargs, result)
                return result
            finally:
                stack.pop()
                end = time.perf_counter()
                span[_END] = end
                span[_OWN] = inner - start + end - (end if done is None
                                                    else done)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import vibracav
        from vibracav import analytic, cli, core, dynamics, sweep

        modules = (vibracav, core, analytic, dynamics, sweep, cli)
        defect = dynamics.normalization_defect
        targets = (
            (core, "drive_terms", None),
            (dynamics, "evolve_fundamental", _describe_evolve),
            (dynamics, "extract_bogoliubov",
             lambda a, k, pair: {"defect": float(defect(pair).max())}),
            (dynamics, "numeric_spectrum", None),
            (analytic, "photon_spectrum", None),
            (sweep, "run_scan", self._describe_scan),
            (sweep, "compare_engines", _describe_compare),
            (cli, "build_parser", None),
            (cli, "parse_config", None),
            (cli, "render_csv", _describe_render),
            (cli, "render_json", _describe_render),
        )
        for home, attr, describe in targets:
            original = getattr(home, attr)
            short = home.__name__.rpartition(".")[2]
            traced = self.wrap(f"{short}.{attr}", original, describe)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, traced)
        build = vars(core.CouplingTables)["build"]
        self._restore.append((core.CouplingTables, "build", build))
        core.CouplingTables.build = classmethod(
            self.wrap("core.coupling_tables", build.__func__))

    def _describe_scan(self, args, kwargs, result):
        if self.first_scan is None:
            self.first_scan = (result, self.spans[self._stack[-1]])
        return {"points": len(result.spec.values),
                "failures": len(result.failures)}

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "id": span[0], "name": span[_NAME], "start": span[_START],
                    "end": span[_END], "parent": span[_PARENT],
                    "op": span[_OP], "attrs": span[_ATTRS],
                    "own": span[_OWN]}) + "\n")


def _describe_evolve(args, kwargs, sol):
    diag = sol.diagnostics
    refined = kwargs.get("refine", True)
    return {"n_steps": diag.n_steps, "refinements": diag.refinements,
            "error_estimate": diag.error_estimate, "k_max": sol.trunc.k_max,
            "rk4_steps": rk4_steps(diag.n_steps, diag.refinements, refined)}


def _describe_compare(args, kwargs, report):
    margins = [row.deviation / (report.rel_tol if row.criterion == "relative"
                                else report.empty_fraction)
               for row in report.rows]
    return {"passed": report.passed, "margin": max(margins, default=0.0)}


def _describe_render(args, kwargs, text):
    return {"rows": len(args[2]), "bytes": len(text.encode("utf-8"))}


def layer_metrics(spans: list[list], op_ids, frame_s: float = 0.0) -> dict:
    """Per-layer figures from the spans of the traced ops ``op_ids``.

    Times and call counts are per traced op; step counts are per
    evolve_fundamental call; maxima and ratios span the whole run.
    ``frame_s`` is frame_cost(), added to each span's own time.
    """
    op_ids = set(op_ids)
    spans = [s for s in spans if s[_OP] in op_ids]
    child_time: dict[int, float] = {}
    for s in spans:
        if s[_PARENT] is not None:
            child_time[s[_PARENT]] = (child_time.get(s[_PARENT], 0.0)
                                      + s[_END] - s[_START])
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[_NAME], []).append(s)

    def calls(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def self_s(*names):
        return sum(s[_END] - s[_START] - child_time.get(s[0], 0.0)
                   for s in calls(*names))

    def attr(name, key):
        # a call that raised has no attributes
        return [s[_ATTRS][key] for s in calls(name) if s[_ATTRS] is not None]

    def ratio(num, den):
        return num / den if den else 0.0

    n_ops = max(len(op_ids), 1)
    evolve = calls("dynamics.evolve_fundamental")
    steps = attr("dynamics.evolve_fundamental", "rk4_steps")
    accepted = attr("dynamics.evolve_fundamental", "n_steps")
    flops = [n * MATMULS_PER_STEP * FLOPS_PER_COMPLEX_FMA * (2 * k) ** 3
             for n, k in zip(steps, attr("dynamics.evolve_fundamental",
                                         "k_max"))]
    evolve_self = self_s("dynamics.evolve_fundamental")
    analytic_n = len(calls("analytic.photon_spectrum"))
    scans = calls("sweep.run_scan")
    scan_time = sum(s[_END] - s[_START] for s in scans)
    compares = attr("sweep.compare_engines", "passed")
    render_rows = sum(attr("cli.render_csv", "rows")
                      + attr("cli.render_json", "rows"))
    render_bytes = sum(attr("cli.render_csv", "bytes")
                       + attr("cli.render_json", "bytes"))
    render_s = self_s("cli.render_csv", "cli.render_json")
    roots = calls("op")
    root_ids = {r[0] for r in roots}
    covered = sum(s[_END] - s[_START] for s in spans if s[_PARENT] in root_ids)
    op_time = sum(r[_END] - r[_START] for r in roots)
    own = sum(s[_OWN] for s in spans) + frame_s * len(spans)
    errors = [e for e in attr("dynamics.evolve_fundamental", "error_estimate")
              if not math.isnan(e)]
    return {
        "core.drive_terms_s": (self_s("core.drive_terms") / n_ops, "s"),
        "core.drive_terms_calls": (len(calls("core.drive_terms")) / n_ops,
                                   "count"),
        "core.coupling_tables_calls": (
            len(calls("core.coupling_tables")) / n_ops, "count"),
        "dynamics.evolve_s": (evolve_self / n_ops, "s"),
        "dynamics.evolve_calls": (len(evolve) / n_ops, "count"),
        "dynamics.rk4_steps": (ratio(sum(steps), len(steps)), "count"),
        "dynamics.accepted_steps": (ratio(sum(accepted), len(accepted)),
                                    "count"),
        "dynamics.useful_step_ratio": (ratio(sum(accepted), sum(steps)),
                                       "ratio"),
        "dynamics.steps_per_s": (ratio(sum(steps), evolve_self), "1/s"),
        "dynamics.flops_computed": (ratio(sum(flops), len(flops)), "flop"),
        "dynamics.gflops": (ratio(sum(flops), evolve_self) / 1e9, "GFLOP/s"),
        "dynamics.refinements_max": (
            max(attr("dynamics.evolve_fundamental", "refinements"),
                default=0), "count"),
        "dynamics.error_estimate_max": (max(errors, default=0.0), "ratio"),
        "dynamics.norm_defect_max": (
            max(attr("dynamics.extract_bogoliubov", "defect"), default=0.0),
            "ratio"),
        "dynamics.extract_s": (self_s("dynamics.extract_bogoliubov") / n_ops,
                               "s"),
        "dynamics.reduce_s": (self_s("dynamics.numeric_spectrum") / n_ops,
                              "s"),
        "analytic.photon_spectrum_s": (
            self_s("analytic.photon_spectrum") / n_ops, "s"),
        "analytic.calls": (analytic_n / n_ops, "count"),
        "analytic.us_per_call": (
            ratio(self_s("analytic.photon_spectrum"), analytic_n) * 1e6, "us"),
        "sweep.run_scan_s": (self_s("sweep.run_scan") / n_ops, "s"),
        "sweep.points": (sum(attr("sweep.run_scan", "points")) / n_ops,
                         "count"),
        "sweep.failures": (sum(attr("sweep.run_scan", "failures")), "count"),
        "sweep.fanout_overhead_ratio": (
            ratio(self_s("sweep.run_scan"), scan_time), "ratio"),
        "sweep.compare_s": (self_s("sweep.compare_engines") / n_ops, "s"),
        "sweep.compare_passed": (ratio(sum(compares), len(compares)),
                                 "ratio"),
        "sweep.compare_margin_max": (
            max(attr("sweep.compare_engines", "margin"), default=0.0),
            "ratio"),
        "cli.parse_s": (self_s("cli.build_parser", "cli.parse_config") / n_ops,
                        "s"),
        "cli.render_s": (render_s / n_ops, "s"),
        "cli.rows": (render_rows / n_ops, "count"),
        "cli.bytes_out": (render_bytes / n_ops, "B"),
        "cli.render_rows_per_s": (ratio(render_rows, render_s), "1/s"),
        "trace.coverage": (ratio(covered, op_time), "ratio"),
        # traced op time / the same time less what the wrappers add - 1
        "trace.overhead": (ratio(own, op_time - own), "ratio"),
    }
