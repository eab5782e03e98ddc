"""Bad-data detection on WLS residuals.

Two tests are provided, both at a configurable certainty level (default
99%):

* chi-square: the weighted residual sum of squares J follows a
  chi-square distribution with nu = m - n degrees of freedom when the
  data is clean; J above the quantile flags bad data.
* largest normalized residual (LNR): each residual is normalized by the
  square root of its variance Omega_ii and the maximum is compared with
  a two-sided unit-Gaussian threshold; the lowest meter whose normalized
  residual ties with the maximum names the suspect.

A meter whose residual variance is structurally zero (a critical
measurement, removal of which destroys observability) carries no bad-data
information and is excluded from the LNR statistic.

A ``Detector`` is one test made ready for one meter set: its threshold is
computed once, and it judges a single estimate or a block of them from
``WlsModel.fit``. ``chi_square_test``, ``lnr_test``, ``verify_stealth`` and
the scenario engine all judge through it.

``scipy.special`` is imported by the first threshold
(``chi_square_quantile`` or ``gaussian_quantile``), not by ``import fdilab``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AllMetersCritical, DegenerateFreedom, DimensionMismatch, ValidationError
from .estimation import EstimationResult, WlsModel

# Omega_ii below this multiple of the meter variance marks a critical measurement.
CRITICALITY_FLOOR = 1e-10

# Normalized residuals within this relative distance of the largest count as tied
# with it. Perfectly correlated meters tie in exact arithmetic, so without it
# round-off would choose the suspect among them.
LNR_TIE_TOLERANCE = 1e-9


class DetectionMethod(str, Enum):
    CHI_SQUARE = "chi_square"
    LNR = "largest_normalized_residual"


@dataclass(frozen=True)
class DetectionReport:
    method: DetectionMethod
    statistic: float
    threshold: float
    bad_data_detected: bool
    confidence: float
    suspect_meter: int | None = None


@dataclass(frozen=True)
class DetectorSpec:
    method: DetectionMethod
    confidence: float = 0.99


def chi_square_quantile(p: float, nu: int) -> float:
    """x such that the chi-square(nu) CDF at x equals p."""
    from scipy import special

    _check_probability(p)
    if nu < 1:
        raise ValidationError(f"degrees of freedom {nu} must be >= 1")
    return float(2.0 * special.gammaincinv(nu / 2.0, p))


def gaussian_quantile(p: float) -> float:
    """Standard normal inverse CDF."""
    from scipy import special

    _check_probability(p)
    return float(special.ndtri(p))


def _check_probability(p: float):
    if not 0 < p < 1:
        raise ValidationError(f"probability {p} must lie strictly between 0 and 1")


@dataclass(frozen=True, eq=False)
class Detector:
    """One detector spec made ready to judge estimates from one meter set.

    ``threshold`` is computed once. An LNR detector also holds the usable
    meters and sqrt(Omega_ii) of each; a chi-square detector holds neither.
    Build one with ``Detector.for_model``.
    """

    spec: DetectorSpec
    threshold: float
    usable: np.ndarray | None = None
    scale: np.ndarray | None = None

    @classmethod
    def for_model(cls, spec: DetectorSpec, model: WlsModel) -> Detector:
        """The detector for estimates made with ``model``; LNR uses its diag(Omega)."""
        if spec.method is DetectionMethod.CHI_SQUARE:
            return _chi_square_detector(spec.confidence, model.m, model.n)
        return _lnr_detector(spec.confidence, model.omega_diagonal, model.sigmas**2)

    def statistics(self, result: EstimationResult) -> tuple[np.ndarray, np.ndarray | None]:
        """(statistic, suspect meter) of one estimate, or of each row of a block.

        Chi-square: J and no suspect. LNR: the largest normalized residual
        |r_i| / sqrt(Omega_ii) over the usable meters, and the lowest meter
        whose normalized residual is within LNR_TIE_TOLERANCE of it.
        """
        if self.usable is None:
            return np.asarray(result.objective), None
        normalized = np.where(self.usable, np.abs(result.residual) / self.scale, -np.inf)
        statistic = normalized.max(axis=-1)
        suspect = np.argmax(normalized >= statistic[..., None] * (1.0 - LNR_TIE_TOLERANCE), axis=-1)
        return statistic, suspect

    def report(self, result: EstimationResult) -> DetectionReport:
        """The verdict on one estimate; the suspect is reported only when bad data is detected."""
        statistic, suspect = self.statistics(result)
        statistic = float(statistic)
        detected = statistic > self.threshold
        return DetectionReport(
            method=self.spec.method,
            statistic=statistic,
            threshold=self.threshold,
            bad_data_detected=detected,
            confidence=self.spec.confidence,
            suspect_meter=int(suspect) if detected and suspect is not None else None,
        )


def _chi_square_detector(confidence: float, m: int, n: int) -> Detector:
    """Chi-square detector with m - n degrees of freedom."""
    _check_probability(confidence)
    if m <= n:
        raise DegenerateFreedom(f"m={m} <= n={n}: residual has no degrees of freedom")
    return Detector(DetectorSpec(DetectionMethod.CHI_SQUARE, confidence), chi_square_quantile(confidence, m - n))


def _lnr_detector(confidence: float, diag: np.ndarray, variances: np.ndarray) -> Detector:
    """LNR detector normalizing by ``diag`` = diag(Omega); warns about critical meters."""
    _check_probability(confidence)
    if diag.shape != variances.shape:
        raise ValidationError("omega and estimation result disagree on meter count")
    usable = diag >= CRITICALITY_FLOOR * variances
    if not np.any(usable):
        raise AllMetersCritical("every meter is critical; LNR statistic is undefined")
    if not np.all(usable):
        skipped = np.flatnonzero(~usable).tolist()
        warnings.warn(f"critical meters excluded from LNR test: {skipped}", stacklevel=3)
    # two-sided: residual sign carries no information
    threshold = gaussian_quantile(1.0 - (1.0 - confidence) / 2.0)
    return Detector(
        DetectorSpec(DetectionMethod.LNR, confidence), threshold, usable, np.sqrt(np.where(usable, diag, 1.0))
    )


def chi_square_test(res: EstimationResult, m: int, n: int, confidence: float = 0.99) -> DetectionReport:
    """Compare J with the chi-square(m - n) quantile at the given confidence."""
    detector = _chi_square_detector(confidence, m, n)
    if m != len(res.residual) or n != len(res.state):
        raise DimensionMismatch(
            f"m={m}, n={n} disagree with an estimate of {len(res.state)} states "
            f"from {len(res.residual)} meters"
        )
    return detector.report(res)


def residual_covariance(H, w) -> np.ndarray:
    """Omega = R - H (H' R^-1 H)^-1 H', the covariance of the residual vector.

    Diagonal entries are the residual variances used to normalize the LNR
    statistic; Omega R^-1 is the (idempotent) residual projector. Returned symmetrised.
    """
    dense = H.dot(np.eye(H.n)).T  # each entry exactly +-w or 0
    omega = np.diag(w.sigmas**2) - dense @ WlsModel(H, w).solve(dense.T)
    return 0.5 * (omega + omega.T)  # strip asymmetric round-off


def lnr_test(
    res: EstimationResult, omega: np.ndarray, confidence: float = 0.99
) -> DetectionReport:
    """Largest normalized residual test with two-sided Gaussian threshold.

    Critical meters (Omega_ii below CRITICALITY_FLOOR * sigma_i^2) are
    skipped with a warning; if every meter is critical the test is
    undefined and AllMetersCritical is raised. The statistic is the
    largest normalized residual; ``suspect_meter`` is the lowest meter
    whose normalized residual is within LNR_TIE_TOLERANCE of it, reported
    only when bad data is detected.
    """
    return _lnr_detector(confidence, np.diag(omega), res.sigmas**2).report(res)

