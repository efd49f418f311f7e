"""Seeded workloads: the seed becomes CLI argument lists, nothing else.

A workload is an endless sequence of *cycles*; a cycle is a short list
of ops, and a run always stops on a cycle boundary so every run holds
the same mix of op kinds.  An op is the argv of one ``vibracav``
command without ``--out``; the runner adds the output path.

Why each workload exists is written up in RATIONALE.md next to this
file.  In short: ``spectrum`` is time-to-solution of one numeric
spectrum, ``phase_scan`` is a scan whose points share k_max and the
drive period, ``freq_scan`` is a scan over incommensurate drives, and
``analytic_scan`` exercises the closed form and CLI rendering only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

# The benchmark drive of the ROADMAP; passed explicitly so a change of
# CLI defaults cannot change the work an op does.
DRIVE = ("epsilon=0.0001", "t_final=1000", "k_max=16")
K_MAX = 16
GAMMAS = (2, 3, 4)
# Single-wall amplitudes lie in [0.5, 1].  Two-wall draws take each
# amplitude from half that range, so the combined stroke a_left +
# a_right stays in [0.5, 1]: the base RK4 resolution then meets the
# 1e-6 step-halving tolerance (worst case seen: 8.5e-7 at gamma = 4),
# every numeric spectrum costs the same 122,232 RK4 steps, and op time
# does not depend on whether the seed happened to draw a refinement.
SINGLE_AMPLITUDE = (0.5, 1.0)
PAIR_AMPLITUDE = (0.25, 0.5)
# The README quick-start; every spectrum run starts with it and its
# output is checked against reference/quickstart.csv.
QUICKSTART = ("spectrum", "a_right=1", "gamma_right=4")
# Points per numeric scan op, cut to fit the time budget.  A full
# measurement of this benchmark is 92 runs (22 per workload plus 4)
# that must end within 3420 s, and one numeric point costs 5.5-6.3 s
# on a 2-core x86-64 box.  At the phase-scan
# default of 16 points (the size of the C3/C4 scans) the phase_scan runs
# alone would take 2,200 s and the whole set about 3,500 s.  At 12
# points, three quarters of a C3/C4 scan, the set takes about 2,850 s.
PHASE_POINTS = 12
# The freq-scan default is 11.  Incommensurate points cannot share a
# batch or a period, so their per-point cost does not depend on how
# many an op holds; 2 points keep the scan fan-out in the op.
FREQ_POINTS = 2
# Every freq-scan op includes this incommensurate drive with the base
# below; its rows are checked against reference/incommensurate.csv.
FREQ_REFERENCE = math.e
FREQ_BASE = ("a_right=1",)
ANALYTIC_POINTS = 5000
FREQ_RANGE = (1.5, 4.0)
# freq_scan draws keep this far from every p/q with q <= MAX_DENOMINATOR
# so a commensurability test cannot treat them as periodic drives.
MAX_DENOMINATOR = 12
RATIONAL_GAP = 1e-3

WORKLOADS = ("spectrum", "phase_scan", "freq_scan", "analytic_scan")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``argv``, the format of its output file and
    the stored reference (a file under reference/) it must reproduce."""

    argv: tuple[str, ...]
    fmt: str = "csv"
    reference: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


def _kv(key: str, value: float) -> str:
    return f"{key}={value!r}"


def _phase(rng: random.Random) -> float:
    return rng.uniform(0.0, 2.0 * math.pi)


def _pair(rng: random.Random, gamma: int) -> tuple[str, ...]:
    """Both walls on one integer resonance, combined stroke <= 1."""
    return (_kv("a_left", rng.uniform(*PAIR_AMPLITUDE)),
            _kv("a_right", rng.uniform(*PAIR_AMPLITUDE)),
            f"gamma_left={gamma}", f"gamma_right={gamma}",
            _kv("phi_left", _phase(rng)), _kv("phi_right", _phase(rng)))


def _cavity(rng: random.Random) -> tuple[str, ...]:
    """One or two walls on an integer resonance in GAMMAS."""
    gamma = rng.choice(GAMMAS)
    if rng.random() < 0.5:
        side = rng.choice(("left", "right"))
        return (_kv(f"a_{side}", rng.uniform(*SINGLE_AMPLITUDE)),
                f"gamma_{side}={gamma}", _kv(f"phi_{side}", _phase(rng)))
    return _pair(rng, gamma)


def _incommensurate(rng: random.Random) -> float:
    while True:
        value = rng.uniform(*FREQ_RANGE)
        nearest = Fraction(value).limit_denominator(MAX_DENOMINATOR)
        if abs(value - float(nearest)) > RATIONAL_GAP:
            return value


def _values(draws: list[float]) -> str:
    return "--values=" + ",".join(repr(v) for v in sorted(draws))


def _spectrum_cycles(rng):
    first = True
    while True:
        spectrum = (Op(QUICKSTART, reference="quickstart.csv") if first
                    else Op(("spectrum", *DRIVE, *_cavity(rng))))
        first = False
        yield [spectrum, Op(("compare", *DRIVE, *_cavity(rng)))]


def _phase_scan_cycles(rng):
    while True:
        gamma = rng.choice(GAMMAS)
        # distinct phase differences on a 0.1-degree grid
        deltas = rng.sample(range(0, 3600), PHASE_POINTS)
        values = [2.0 * math.pi * d / 3600 for d in deltas]
        yield [Op(("phase-scan", _values(values), *DRIVE, *_pair(rng, gamma)))]


def _freq_scan_cycles(rng):
    while True:
        values = [FREQ_REFERENCE]
        while len(values) < FREQ_POINTS:
            value = _incommensurate(rng)
            if all(abs(value - v) > RATIONAL_GAP for v in values):
                values.append(value)
        yield [Op(("freq-scan", _values(values), *DRIVE, *FREQ_BASE),
                  reference="incommensurate.csv")]


def _analytic_scan_cycles(rng):
    points = f"--points={ANALYTIC_POINTS}"
    while True:
        cycle = []
        for fmt in ("csv", "json"):
            gamma = rng.choice(GAMMAS)
            phase = ("phase-scan", "--engine=analytic", points, *DRIVE,
                     *_pair(rng, gamma))
            start = rng.uniform(FREQ_RANGE[0], 2.5)
            stop = rng.uniform(3.0, FREQ_RANGE[1])
            freq = ("freq-scan", "--engine=analytic", points,
                    _kv("--start", start), _kv("--stop", stop), *DRIVE,
                    _kv("a_left", rng.uniform(*SINGLE_AMPLITUDE)),
                    f"gamma_left={rng.choice(GAMMAS)}",
                    _kv("a_right", rng.uniform(*SINGLE_AMPLITUDE)),
                    _kv("phi_left", _phase(rng)), _kv("phi_right", _phase(rng)))
            other = "json" if fmt == "csv" else "csv"
            cycle += [Op(phase, fmt), Op(freq, other)]
        yield cycle


_GENERATORS = {
    "spectrum": _spectrum_cycles,
    "phase_scan": _phase_scan_cycles,
    "freq_scan": _freq_scan_cycles,
    "analytic_scan": _analytic_scan_cycles,
}


def cycles(workload: str, seed: int):
    """Endless, deterministic sequence of op cycles for ``seed``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def parameters(workload: str) -> dict:
    """Fixed workload parameters, recorded with every result."""
    params = {"drive": list(DRIVE), "k_max": K_MAX}
    if workload == "spectrum":
        params.update(first_op=list(QUICKSTART), gammas=list(GAMMAS),
                      single_amplitude=list(SINGLE_AMPLITUDE),
                      pair_amplitude=list(PAIR_AMPLITUDE))
    elif workload == "phase_scan":
        params.update(points=PHASE_POINTS, engines="both", workers=1)
    elif workload == "freq_scan":
        params.update(points=FREQ_POINTS, engines="both", workers=1,
                      reference_point=FREQ_REFERENCE, base=list(FREQ_BASE))
    else:
        params.update(points=ANALYTIC_POINTS, engines="analytic")
    return params
