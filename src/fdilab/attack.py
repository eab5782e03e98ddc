"""Stealth additive attacks on branch-flow measurements.

An additive perturbation a applied to the measurement vector (z_a = z + a)
is invisible to every residual-based detector when a lies in the column
space of H: writing a = H c, the corrupted estimate is x_hat + c and the
residual z_a - H (x_hat + c) is identical to the clean residual. The
vector c is exactly the error injected into the state.

Construction routes:

* ``attack_from_c``: direct a = H c for a chosen state shift.
* ``random_constrained_attack``: the attacker controls only a subset I_m
  of meters. Any c in the null space of the uncontrolled rows of H gives
  an attack with support inside I_m; such a c exists whenever
  |I_m| >= m - n + 1 (fewer than n uncontrolled rows cannot have full
  column rank), and may exist for smaller supports too. For branch-flow
  meters that null space is a property of the meter graph (as in Sou,
  Sandberg and Johansson, 2013): an uncontrolled meter on branch (i, j)
  forces c_i = c_j, or c_i = 0 when j is the slack, so c is feasible
  exactly when it is constant on each component of the graph of
  uncontrolled metered branches and zero on the slack's component. The
  basis is read off that graph, ``H.edges``, not off the dense H.
* ``targeted_attack``: pin chosen entries of c (e.g. to move a specific
  perceived flow by a chosen amount) and zero-fill the rest, the
  minimum-norm completion.

A meter or state index that is not an integer, such as 1.7, is a ValidationError.

``verify_stealth`` checks the guarantee end to end: equal residual norms
and identical detector verdicts before and after the injection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .detection import DetectionMethod, Detector, DetectorSpec, _check_probability
from .errors import DimensionMismatch, InfeasibleSupport, ValidationError
from .estimation import WeightModel, WlsModel, _rng
from .network import MeasurementMatrix, _components


@dataclass(frozen=True)
class AttackVector:
    """Measurement perturbation a = H c with its generating state shift."""

    a: np.ndarray
    c: np.ndarray
    support: tuple[int, ...]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite c or a is an error below, not a warning
def _finalize(H: MeasurementMatrix, c: np.ndarray, scale: float = 1.0) -> AttackVector:
    """a = H c of c * scale; a meter reads exactly 0 when c moves its two angles alike."""
    c = c * scale
    a = H.dot(c)
    if not (np.isfinite(c).all() and np.isfinite(a).all()):
        raise ValidationError("state shift c and attack a = Hc must be finite")
    support = tuple(int(i) for i in np.flatnonzero(a))
    return AttackVector(a=a, c=c, support=support)


def _index(i, what: str) -> int:
    """``i`` as an int, for a Python or numpy integer; any other value, such as 1.7, is a ValidationError."""
    if isinstance(i, (int, np.integer)):
        return int(i)
    raise ValidationError(f"{what} index {i} is not an integer")


def attack_from_c(H: MeasurementMatrix, c) -> AttackVector:
    """Attack vector a = H c for a given state shift c."""
    c = np.asarray(c, dtype=float).reshape(-1)
    if c.shape[0] != H.n:
        raise DimensionMismatch(f"c has {c.shape[0]} entries, H has {H.n} columns")
    return _finalize(H, c)


def random_constrained_attack(
    H: MeasurementMatrix, controlled: Iterable[int], seed=None, magnitude: float = 0.1
) -> AttackVector:
    """Random stealth attack confined to the ``controlled`` meter set of H.

    Draws c = B g, where B is the null-space basis of the uncontrolled
    meters (see ``_null_space``) and g is standard normal from ``seed``,
    and scales it so that ||a|| = magnitude. B is orthonormal, so c is an
    isotropic Gaussian on that null space; B depends only on which meters
    are controlled and on the meter graph ``H.edges``, so the draw is fixed
    by topology and seed. Raises InfeasibleSupport when the null space is
    trivial, and ValidationError when the magnitude is not finite and > 0
    or the seed is negative.
    """
    m = H.m
    controlled = sorted(set(_index(i, "controlled meter") for i in controlled))
    if not controlled:
        raise ValidationError("controlled meter set is empty")
    if controlled[0] < 0 or controlled[-1] >= m:
        raise DimensionMismatch(f"controlled meter indices {controlled} out of range 0..{m - 1}")
    if not (magnitude > 0 and np.isfinite(magnitude)):
        raise ValidationError(f"attack magnitude {magnitude} must be finite and > 0")

    uncontrolled = np.ones(m, dtype=bool)
    uncontrolled[controlled] = False
    basis = _null_space(H.n, H.edges, uncontrolled)
    if basis.shape[1] == 0:
        raise InfeasibleSupport(
            f"no nonzero state shift keeps meters {np.flatnonzero(uncontrolled).tolist()} untouched"
        )

    # One draw decides: H B g vanishes for every g when H B = 0, and for almost no g otherwise.
    c = basis @ _rng(seed).standard_normal(basis.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # a flow that overflows makes the scale NaN: an error below
        norm_a = float(np.linalg.norm(H.dot(c)))  # a float, so a scale that overflows is inf, not a warning
    if norm_a <= 1e-12:
        raise InfeasibleSupport("random draws produced only degenerate attacks")
    return _finalize(H, c, magnitude / norm_a)


def _null_space(n: int, edges: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {c : H[rows] c = 0}, n being H's states, ``edges`` its meter graph
    ``H.edges`` and ``rows`` a boolean mask: for each component of the ``rows`` meters' graph
    without the slack, in the order of its lowest state index, its indicator vector at unit norm."""
    label = np.array(_components(n + 1, edges[rows].tolist()))
    free = np.flatnonzero(label[:n] != label[n])
    roots = free[label[free] == free]
    column = np.searchsorted(roots, label[free])
    basis = np.zeros((n, len(roots)))
    basis[free, column] = 1.0 / np.sqrt(np.bincount(column)[column])
    return basis


def targeted_attack(H: MeasurementMatrix, pinned: Mapping[int, float]) -> AttackVector:
    """Attack whose state shift agrees exactly with the pinned entries.

    ``pinned`` maps state indices (columns of H) to chosen shift values;
    unpinned entries are zero, the minimum-norm completion.
    """
    n = H.n
    if not pinned:
        raise ValidationError("targeted attack needs at least one pinned entry")
    c = np.zeros(n)
    for idx, value in pinned.items():
        idx = _index(idx, "pinned state")
        if not 0 <= idx < n:
            raise DimensionMismatch(f"pinned state index {idx} out of range 0..{n - 1}")
        c[idx] = float(value)
    return _finalize(H, c)


def verify_stealth(
    z, atk: AttackVector, H: MeasurementMatrix, w: WeightModel, confidence: float = 0.99
) -> bool:
    """True iff the attack is invisible to both detectors on this data.

    Estimates on z and on z + a as one block, then requires (i) equal
    weighted residual norms within 1e-9 * (1 + ||r||) and (ii) identical
    chi-square and LNR verdicts at the given confidence, judged on the
    fit's own model: so a check on a meter set the diag(Omega) memo does
    not hold factors the gain once, for the fit, and forms diag(Omega) in
    that factor's buffer. A confidence outside (0, 1) is a ValidationError
    before any fit.
    """
    _check_probability(confidence)
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape[0] != H.m or atk.a.shape[0] != H.m:
        raise DimensionMismatch("z, attack and H disagree on meter count")

    with np.errstate(over="ignore"):  # a z + a that overflows fails fit's finiteness check, not with a warning
        block = np.stack((z, z + atk.a))
    model = WlsModel(H, w)
    both = model.fit(block)
    norm_clean, norm_attacked = np.sqrt(both.objective)
    if abs(norm_attacked - norm_clean) > 1e-9 * (1.0 + norm_clean):
        return False

    for method in DetectionMethod:
        detector = Detector.for_model(DetectorSpec(method, confidence), model)
        clean_fired, attacked_fired = detector.statistics(both)[0] > detector.threshold
        if clean_fired != attacked_fired:
            return False
    return True
