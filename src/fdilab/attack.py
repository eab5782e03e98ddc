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
  basis is read off that graph, with no factorisation of H.
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

    Draws c = B g, where B is the graph null-space basis of the
    uncontrolled rows of H (see ``_null_space``) and g is standard normal
    from ``seed``, and scales it so that ||a|| = magnitude. B is
    orthonormal, so c is an isotropic Gaussian on that null space; B
    depends only on which meters are controlled and on the meter graph,
    so the draw is fixed by topology and seed. Raises InfeasibleSupport
    when the null space is trivial, and ValidationError when an
    uncontrolled row of H is not a branch-flow row.
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

    uncontrolled = np.ones(m, dtype=bool)
    uncontrolled[controlled] = False
    basis = _null_space(Hv, uncontrolled)
    if basis.shape[1] == 0:
        raise InfeasibleSupport(
            f"no nonzero state shift keeps meters {np.flatnonzero(uncontrolled).tolist()} untouched"
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
    stray = [i for i in atk.support if uncontrolled[i]]
    if stray:  # pragma: no cover - the null-space construction rules this out
        raise InfeasibleSupport(f"construction leaked onto uncontrolled meters {stray}")
    return atk


def _null_space(Hv: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {c : H[rows] c = 0}, read off the meter graph.

    ``rows`` is a boolean mask over the rows of H. Each selected row must
    be a branch-flow row: two nonzeros of opposite value join their two
    state columns, one nonzero joins its column to the slack, and an
    all-zero row constrains nothing. The basis has one column per
    component of that graph without the slack, ordered by the component's
    lowest state index: its indicator vector scaled to unit norm.
    """
    n = Hv.shape[1]
    row, col = np.nonzero(Hv)  # row-major: the entries of one row are adjacent
    keep = rows[row]
    row, col = row[keep], col[keep]
    count = np.bincount(row, minlength=Hv.shape[0])
    if count.max(initial=0) > 2:
        worst = int(np.argmax(count))
        raise ValidationError(
            f"row {worst} of H has {count[worst]} nonzeros; a branch-flow meter reads at most two states"
        )
    pair = np.flatnonzero(row[1:] == row[:-1])  # first entry of each two-entry row
    first, second = Hv[row[pair], col[pair]], Hv[row[pair], col[pair + 1]]
    if (first != -second).any():
        bad = int(row[pair[np.argmax(first != -second)]])
        raise ValidationError(
            f"row {bad} of H is not a branch flow: its two nonzeros {Hv[bad][Hv[bad] != 0].tolist()} "
            "are not opposite"
        )

    parent = list(range(n + 1))  # node n is the slack

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    grounded = col[count[row] == 1]
    left = np.concatenate((col[pair], grounded)).tolist()
    right = np.concatenate((col[pair + 1], np.full(len(grounded), n))).tolist()
    for i, j in zip(left, right):
        ri, rj = find(i), find(j)
        if ri != rj:  # the lower index becomes the root, so a root is its component's minimum
            parent[max(ri, rj)] = min(ri, rj)
    label = np.array([find(i) for i in range(n)])
    free = np.flatnonzero(label != find(n))
    roots = free[label[free] == free]
    column = np.searchsorted(roots, label[free])
    basis = np.zeros((n, len(roots)))
    basis[free, column] = 1.0 / np.sqrt(np.bincount(column)[column])
    return basis


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
