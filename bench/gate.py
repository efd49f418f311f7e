"""Correctness gate: every op's output file is read back and checked.

An op fails on an exception, exit status 2, a missing output file
(an integration failure writes none), a missing, NaN or negative row,
an analytic row that disagrees with the closed form below, a populated
numeric mode more than REL_TOL from its analytic row, an empty mode of
a resonant drive above LEAKAGE_LIMIT, or a mismatch with the stored
reference the op names.  ``compare`` exiting 1 is its verdict, not a
failure; the verdict is recorded.

The tolerances are the benchmark's own copies, so a change to the
program's constants cannot loosen the gate.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

K_MAX = 16
ENGINES = ("analytic", "numeric")
# COMPARE_REL_TOL and COMPARE_EMPTY_FRACTION of vibracav.sweep.
REL_TOL = 0.05
EMPTY_FRACTION = 1e-2
# resonant_order's tolerance for an integer frequency ratio.
INTEGER_GAMMA_TOL = 1e-9
# Empty modes of a resonant drive must hold less than this share of
# their spectrum's closed-form peak (or of the single-pair scale, where
# that is larger, as at an interference null): twice compare's leakage
# bound.  That is above the largest leakage the README documents for
# the resonant cascade (1.53e-2 with both walls at amplitude 1 and
# gamma = 4), so a compare verdict of FAILED never becomes an op
# failure.  The quick-start leaks 9.5e-3, a 16-point gamma = 4 phase
# scan with the workload's amplitudes up to 5.6e-3.
LEAKAGE_LIMIT = 2 * EMPTY_FRACTION
# Analytic rows must equal the closed form to this share of the
# spectrum's scale; the program evaluates the same formula, so only
# rounding separates them.
ORACLE_REL_TOL = 1e-9
# Numeric rows must match a stored reference to this relative accuracy
# (ROADMAP item 2's guard): populated modes each, and every mode
# against the spectrum's peak.
REFERENCE_REL_TOL = 1e-6
# The quick-start's closed form, exactly; its analytic rows must equal
# these to rounding.
QUICKSTART_ANALYTIC = (0.0075, 0.01, 0.0075)
# Exact closed form of each stored reference: its leading modes, the
# rest zero.
EXACT_ANALYTIC = {"quickstart.csv": QUICKSTART_ANALYTIC,
                  "incommensurate.csv": ()}
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")
_CONFIG_KEYS = ("epsilon", "t_final", "lam", "a_left", "a_right",
                "gamma_left", "gamma_right", "phi_left", "phi_right")


class GateError(Exception):
    """An op's output failed a correctness check."""


@dataclass(frozen=True)
class Checked:
    """What a passing op produced; ``verdict`` is compare's pass/fail."""

    rows: int
    spectra: int
    bytes_out: int
    verdict: bool | None


def read_output(path: str, fmt: str) -> tuple[dict, list[dict]]:
    """Flat metadata mapping and rows (dicts keyed by header) of a file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        payload = json.loads(text)
        meta = {}
        for key, value in payload["metadata"].items():
            if isinstance(value, dict):
                meta.update(value)
            else:
                meta[key] = value
        return meta, payload["rows"]
    lines = text.splitlines()
    meta = {}
    body = 0
    while body < len(lines) and lines[body].startswith("#"):
        key, _, value = lines[body][1:].partition("=")
        meta[key.strip()] = value.strip()
        body += 1
    if body == len(lines):
        raise GateError("output has no header line")
    rows = list(csv.DictReader(lines[body:]))
    return meta, rows


def _numbers(rows: list[dict], column: str) -> np.ndarray:
    try:
        values = np.array([float(r[column]) for r in rows], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise GateError(f"column {column!r} unreadable: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise GateError(f"column {column!r} holds a NaN or infinite value")
    if np.any(values < 0.0):
        raise GateError(f"column {column!r} holds a negative value")
    return values


def _config(meta: dict) -> dict:
    try:
        return {key: float(meta[key]) for key in _CONFIG_KEYS}
    except (KeyError, ValueError) as exc:
        raise GateError(f"configuration metadata unreadable: {exc}") from exc


def closed_form(cfg: dict, k: np.ndarray, gamma_right=None,
                phase_delta=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-order N_k, the empty-mode scale and the resonance mask, per row.

    ``k`` is an array of mode numbers; ``gamma_right`` and
    ``phase_delta`` optionally override the config per row, as the
    scan axes do.  Returns (photon numbers, single-pair scale, rows
    whose drive has a wall on an integer resonance).
    """
    s2 = (0.5 * cfg["epsilon"] * (math.pi / cfg["lam"]) * cfg["t_final"]) ** 2
    g_r = np.full(k.shape, cfg["gamma_right"]) if gamma_right is None \
        else np.asarray(gamma_right, dtype=float)
    phi_l = np.full(k.shape, cfg["phi_left"]) if phase_delta is None \
        else cfg["phi_right"] + np.asarray(phase_delta, dtype=float)
    a_l, a_r = cfg["a_left"], cfg["a_right"]
    g_l = np.full(k.shape, cfg["gamma_left"])

    def resonant(g, a):
        order = np.round(g)
        on = (order >= 1) & (np.abs(g - order) <= INTEGER_GAMMA_TOL) & (a > 0)
        pairs = np.where(on, k * (order - k), 0.0)
        return order, on, np.clip(pairs, 0.0, None)

    o_r, on_r, pairs_r = resonant(g_r, a_r)
    o_l, on_l, pairs_l = resonant(g_l, a_l)
    n_k = s2 * (a_r ** 2 * pairs_r + a_l ** 2 * pairs_l)
    same = on_r & on_l & (o_r == o_l)
    cross = np.where(same, (-1.0) ** o_r * 2.0 * a_l * a_r
                     * np.cos(phi_l - cfg["phi_right"]) * pairs_r, 0.0)
    n_k = np.clip(n_k - s2 * cross, 0.0, None)
    scale = np.full(k.shape, s2 * max(a_l, a_r) ** 2)
    return n_k, scale, on_r | on_l


def _check_analytic(got: np.ndarray, expected: np.ndarray,
                    scale: np.ndarray, where: str) -> None:
    bad = np.abs(got - expected) > ORACLE_REL_TOL * np.maximum(expected, scale)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise GateError(f"{where}: analytic row {i} is {got[i]!r}, "
                        f"closed form gives {expected[i]!r}")


def _check_numeric(numeric: np.ndarray, analytic: np.ndarray,
                   scale: np.ndarray, resonant: np.ndarray,
                   where: str) -> None:
    """Populated modes within REL_TOL, empty modes below LEAKAGE_LIMIT.

    Rows come in spectra of K_MAX modes.  A mode is populated when its
    closed-form population exceeds EMPTY_FRACTION of the single-pair
    scale.  Below that the relative deviation of a first-order
    prediction is not defined by the physics (near an interference
    null, say), so the mode is bounded absolutely instead, as compare
    bounds it, but only where a wall is on an integer resonance.  Off
    resonance the closed form is zero and a near-resonant drive can
    populate modes up to the resonant scale; there only a stored
    reference checks the numbers.
    """
    populated = analytic > EMPTY_FRACTION * scale
    deviation = np.abs(numeric - analytic)
    bad = populated & (deviation > REL_TOL * analytic)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise GateError(f"{where}: numeric row {i} = {numeric[i]!r} is more "
                        f"than {REL_TOL:g} from analytic {analytic[i]!r}")
    peak = np.repeat(analytic.reshape(-1, K_MAX).max(axis=1), K_MAX)
    limit = LEAKAGE_LIMIT * np.maximum(peak, scale)
    leaking = resonant & ~populated & (deviation > limit)
    if np.any(leaking):
        i = int(np.argmax(leaking))
        raise GateError(f"{where}: empty numeric row {i} = {numeric[i]!r} "
                        f"leaks more than {limit[i]!r}")


def _modes(rows: list[dict], where: str) -> np.ndarray:
    k = _numbers(rows, "k")
    if not np.array_equal(k, np.arange(1, K_MAX + 1)):
        raise GateError(f"{where}: expected modes 1..{K_MAX}, got {k.tolist()}")
    return k


def _split_engines(rows: list[dict], engines, where: str) -> dict:
    by_engine = {e: [r for r in rows if r.get("engine") == e] for e in engines}
    if sum(map(len, by_engine.values())) != len(rows):
        raise GateError(f"{where}: rows from an unexpected engine")
    return by_engine


def _engines(meta: dict) -> tuple[str, ...]:
    engine = meta.get("engine", "both")
    return ENGINES if engine == "both" else (engine,)


def load_reference(name: str) -> tuple[dict, np.ndarray]:
    """Configuration and numeric photon numbers of a stored output."""
    meta, rows = read_output(os.path.join(REFERENCE_DIR, name), "csv")
    numeric = _split_engines(rows, ENGINES, name)["numeric"]
    _modes(numeric, name)
    return _config(meta), _numbers(numeric, "photon_number")


def _check_reference(name: str, cfg: dict, values: dict,
                     expected: np.ndarray) -> None:
    """One spectrum of configuration ``cfg`` against the stored ``name``.

    ``values`` maps engine to photon numbers.  Analytic rows must equal
    the reference's exact closed form; numeric rows must match the
    stored ones to REFERENCE_REL_TOL of the peak, and populated modes
    (``expected`` > 0) to REFERENCE_REL_TOL of themselves.
    """
    ref_cfg, ref_num = load_reference(name)
    if cfg != ref_cfg:
        raise GateError(f"the op's configuration is not that of {name}")
    if "analytic" in values:
        exact = np.zeros(K_MAX)
        exact[:len(EXACT_ANALYTIC[name])] = EXACT_ANALYTIC[name]
        if not np.allclose(values["analytic"], exact, rtol=1e-12, atol=0.0):
            raise GateError(f"analytic spectrum differs from the exact "
                            f"closed form of {name}")
    if "numeric" not in values:
        raise GateError(f"no numeric spectrum to check against {name}")
    numeric = values["numeric"]
    deviation = np.abs(numeric - ref_num)
    bad = deviation > REFERENCE_REL_TOL * ref_num.max()
    bad |= (expected > 0) & (deviation > REFERENCE_REL_TOL * ref_num)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise GateError(f"numeric mode {i + 1} = {numeric[i]!r} differs from "
                        f"{ref_num[i]!r} in {name}")


def _spectrum(meta, rows, reference) -> tuple:
    by_engine = _split_engines(rows, _engines(meta), "spectrum")
    cfg = _config(meta)
    expected, scale, resonant = closed_form(
        cfg, np.arange(1, K_MAX + 1, dtype=float))
    values = {}
    for engine, part in by_engine.items():
        _modes(part, f"spectrum {engine}")
        values[engine] = _numbers(part, "photon_number")
    if "analytic" in values:
        _check_analytic(values["analytic"], expected, scale, "spectrum")
    if "numeric" in values:
        _check_numeric(values["numeric"], expected, scale, resonant,
                       "spectrum")
    if reference is not None:
        _check_reference(reference, cfg, values, expected)
    return len(rows), len(by_engine), None


def _compare(meta, rows, code: int) -> tuple:
    _modes(rows, "compare")
    cfg = _config(meta)
    expected, scale, resonant = closed_form(
        cfg, np.arange(1, K_MAX + 1, dtype=float))
    analytic = _numbers(rows, "n_analytic")
    numeric = _numbers(rows, "n_numeric")
    _check_analytic(analytic, expected, scale, "compare")
    _check_numeric(numeric, expected, scale, resonant, "compare")
    verdict = str(meta.get("passed")).lower() == "true"
    if code != (0 if verdict else 1):
        raise GateError(f"compare verdict {verdict} but exit status {code}")
    return len(rows), 2, verdict


def _scan(meta, rows, axis: str, reference) -> tuple:
    if meta.get("failures"):
        raise GateError(f"scan reported failures: {meta['failures']}")
    engines = _engines(meta)
    n_points = int(meta["n_points"])
    if len(rows) != n_points * len(engines) * K_MAX:
        raise GateError(f"scan wrote {len(rows)} rows, expected "
                        f"{n_points} x {len(engines)} x {K_MAX}")
    cfg = _config(meta)
    by_engine = _split_engines(rows, engines, "scan")
    values = {}
    for engine, part in by_engine.items():
        k = _numbers(part, "k").reshape(n_points, K_MAX)
        if not np.all(k == np.arange(1, K_MAX + 1)):
            raise GateError(f"scan {engine}: modes out of order")
        axis_values = _numbers(part, axis)
        if not np.all(np.diff(axis_values.reshape(n_points, K_MAX)[:, 0]) > 0):
            raise GateError(f"scan {engine}: axis values not increasing")
        values[engine] = (k.ravel(), axis_values,
                          _numbers(part, "photon_number"))
    k, axis_values, _ = values[engines[0]]
    expected, scale, resonant = closed_form(cfg, k, **{axis: axis_values})
    if "analytic" in values:
        _check_analytic(values["analytic"][2], expected, scale, "scan")
    if "numeric" in values:
        if not np.array_equal(values["numeric"][1], axis_values):
            raise GateError("scan engines disagree on the axis values")
        _check_numeric(values["numeric"][2], expected, scale, resonant,
                       "scan")
    if reference is not None:  # a stored point of a freq-scan
        point = load_reference(reference)[0][axis]
        at = axis_values == point
        if at.sum() != K_MAX:
            raise GateError(f"scan lacks the reference point {axis}={point!r}")
        _check_reference(reference, dict(cfg, **{axis: point}),
                         {e: v[2][at] for e, v in values.items()},
                         expected[at])
    return len(rows), n_points * len(engines), None


def check(argv, fmt: str, code: int, path: str,
          reference: str | None = None) -> Checked:
    """Gate one op; raises GateError when it failed.

    ``reference`` names a stored output under reference/ that the op's
    spectrum (or, for a freq-scan, its point at the reference's
    gamma_right) must reproduce.
    """
    command = argv[0]
    if code == 2:
        raise GateError("exit status 2 (invalid configuration)")
    if code not in (0, 1):
        raise GateError(f"unexpected exit status {code}")
    if not os.path.exists(path):
        raise GateError(f"no output written (exit status {code})")
    if code == 1 and command != "compare":
        raise GateError(f"{command} exited 1")
    meta, rows = read_output(path, fmt)
    if command == "spectrum":
        n_rows, spectra, verdict = _spectrum(meta, rows, reference)
    elif command == "compare":
        n_rows, spectra, verdict = _compare(meta, rows, code)
    elif command == "phase-scan":
        n_rows, spectra, verdict = _scan(meta, rows, "phase_delta", reference)
    elif command == "freq-scan":
        n_rows, spectra, verdict = _scan(meta, rows, "gamma_right", reference)
    else:
        raise GateError(f"no gate for command {command!r}")
    return Checked(rows=n_rows, spectra=spectra,
                   bytes_out=os.path.getsize(path), verdict=verdict)
