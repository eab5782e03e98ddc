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
  column rank), and may exist for smaller supports too.
* ``targeted_attack``: pin chosen entries of c (e.g. to move a specific
  perceived flow by a chosen amount) and zero-fill the rest, the
  minimum-norm completion.

``verify_stealth`` checks the guarantee end to end: equal residual norms
and identical detector verdicts before and after the injection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
import scipy.linalg

from .detection import DetectionMethod, Detector, DetectorSpec
from .errors import (
    DimensionMismatch,
    InfeasibleSupport,
    SingularGainMatrix,
    SingularGram,
    ValidationError,
)
from .estimation import WlsModel, _h_values, residual_norm

# |a_i| at or below this is treated as structurally zero when computing support.
SUPPORT_ZERO_THRESHOLD = 1e-12

# Singular values below this multiple of the largest count as zero in null-space
# extraction.
_RANK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class AttackVector:
    """Measurement perturbation a = H c with its generating state shift."""

    a: np.ndarray
    c: np.ndarray
    support: tuple[int, ...]


@dataclass(frozen=True)
class ProjectionMatrices:
    """Hat matrix P onto col(H) and its complement B = P - I.

    B annihilates exactly the column space: B a = 0 iff a = H c for some c.
    """

    hat: np.ndarray
    complement: np.ndarray


def projection_matrices(H) -> ProjectionMatrices:
    """P = H (H' H)^-1 H' and B = P - I. Requires full column rank."""
    Hv = _h_values(H)
    try:
        P = Hv @ WlsModel(Hv, np.ones(Hv.shape[0])).solve(Hv.T)
    except SingularGainMatrix as exc:
        raise SingularGram(f"H is rank deficient: {exc}") from exc
    P = 0.5 * (P + P.T)
    return ProjectionMatrices(hat=P, complement=P - np.eye(Hv.shape[0]))


def _finalize(Hv: np.ndarray, c: np.ndarray) -> AttackVector:
    a = Hv @ c
    a[np.abs(a) <= SUPPORT_ZERO_THRESHOLD] = 0.0
    support = tuple(int(i) for i in np.flatnonzero(a))
    return AttackVector(a=a, c=c, support=support)


def attack_from_c(H, c) -> AttackVector:
    """Attack vector a = H c for a given state shift c."""
    Hv = _h_values(H)
    c = np.asarray(c, dtype=float).reshape(-1)
    if c.shape[0] != Hv.shape[1]:
        raise DimensionMismatch(f"c has {c.shape[0]} entries, H has {Hv.shape[1]} columns")
    return _finalize(Hv, c.copy())


def random_constrained_attack(H, controlled: Iterable[int], seed=None, magnitude: float = 0.1) -> AttackVector:
    """Random stealth attack confined to the ``controlled`` meter set.

    Draws a seeded random combination of the null-space basis of the
    uncontrolled rows of H and scales it so that ||a|| = magnitude.
    Raises InfeasibleSupport when that null space is trivial.
    """
    Hv = _h_values(H)
    m = Hv.shape[0]
    controlled = sorted(set(int(i) for i in controlled))
    if not controlled:
        raise ValidationError("controlled meter set is empty")
    if controlled[0] < 0 or controlled[-1] >= m:
        raise DimensionMismatch(f"controlled meter indices {controlled} out of range 0..{m - 1}")
    if not magnitude > 0:
        raise ValidationError(f"attack magnitude {magnitude} must be > 0")

    uncontrolled = [i for i in range(m) if i not in controlled]
    if uncontrolled:
        basis = scipy.linalg.null_space(Hv[uncontrolled, :], rcond=_RANK_TOLERANCE)
    else:
        basis = np.eye(Hv.shape[1])  # no constraint: any c works
    if basis.shape[1] == 0:
        raise InfeasibleSupport(
            f"no nonzero state shift keeps meters {uncontrolled} untouched"
        )

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    for _ in range(16):
        c = basis @ rng.standard_normal(basis.shape[1])
        norm_a = np.linalg.norm(Hv @ c)
        if norm_a > 1e-12:
            break
    else:  # pragma: no cover - probability zero with a continuous draw
        raise InfeasibleSupport("random draws produced only degenerate attacks")
    scale = magnitude / norm_a
    atk = _finalize(Hv, c * scale)
    stray = [i for i in atk.support if i not in controlled]
    if stray:  # pragma: no cover - the null-space construction rules this out
        raise InfeasibleSupport(f"construction leaked onto uncontrolled meters {stray}")
    return atk


def targeted_attack(H, pinned: Mapping[int, float]) -> AttackVector:
    """Attack whose state shift agrees exactly with the pinned entries.

    ``pinned`` maps state indices (columns of H) to chosen shift values;
    unpinned entries are zero, the minimum-norm completion.
    """
    Hv = _h_values(H)
    n = Hv.shape[1]
    if not pinned:
        raise ValidationError("targeted attack needs at least one pinned entry")
    c = np.zeros(n)
    for idx, value in pinned.items():
        idx = int(idx)
        if not 0 <= idx < n:
            raise DimensionMismatch(f"pinned state index {idx} out of range 0..{n - 1}")
        c[idx] = float(value)
    if not np.all(np.isfinite(c)):
        raise ValidationError(f"pinned state shifts must be finite, got {dict(pinned)}")
    return _finalize(Hv, c)


def verify_stealth(z, atk: AttackVector, H, w, confidence: float = 0.99) -> bool:
    """True iff the attack is invisible to both detectors on this data.

    Estimates on z and on z + a, then requires (i) equal weighted residual
    norms within 1e-9 * (1 + ||r||) and (ii) identical chi-square and LNR
    verdicts at the given confidence.
    """
    model = WlsModel(H, w)
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape[0] != model.m or atk.a.shape[0] != model.m:
        raise DimensionMismatch("z, attack and H disagree on meter count")

    clean = model.estimate(z)
    attacked = model.estimate(z + atk.a)
    norm_clean = residual_norm(clean)
    if abs(residual_norm(attacked) - norm_clean) > 1e-9 * (1.0 + norm_clean):
        return False

    detectors = [Detector.for_model(DetectorSpec(method, confidence), model) for method in DetectionMethod]
    clean_verdicts, attacked_verdicts = (
        [detector.report(res).bad_data_detected for detector in detectors] for res in (clean, attacked)
    )
    return clean_verdicts == attacked_verdicts
