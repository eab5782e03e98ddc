"""Bad-data detection on WLS residuals.

Two tests are provided, both at a configurable certainty level (default
99%):

* chi-square: the weighted residual sum of squares J follows a
  chi-square distribution with nu = m - n degrees of freedom when the
  data is clean; J above the quantile flags bad data.
* largest normalized residual (LNR): each residual is normalized by the
  square root of its variance Omega_ii and the maximum is compared with
  a two-sided unit-Gaussian threshold; the argmax names the suspect
  meter.

A meter whose residual variance is structurally zero (a critical
measurement, removal of which destroys observability) carries no bad-data
information and is excluded from the LNR statistic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import stats

from .errors import AllMetersCritical, DegenerateFreedom, DimensionMismatch, ValidationError
from .estimation import EstimationResult, WlsModel

# Omega_ii below this multiple of the meter variance marks a critical measurement.
CRITICALITY_FLOOR = 1e-10


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


@dataclass(frozen=True)
class ResidualCovariance:
    """Covariance Omega = R - H (H' R^-1 H)^-1 H' of the residual vector."""

    omega: np.ndarray


def chi_square_quantile(p: float, nu: int) -> float:
    """x such that the chi-square(nu) CDF at x equals p."""
    _check_probability(p)
    if nu < 1:
        raise ValidationError(f"degrees of freedom {nu} must be >= 1")
    return float(stats.chi2.ppf(p, nu))


def gaussian_quantile(p: float) -> float:
    """Standard normal inverse CDF."""
    _check_probability(p)
    return float(stats.norm.ppf(p))


def _check_probability(p: float):
    if not 0 < p < 1:
        raise ValidationError(f"probability {p} must lie strictly between 0 and 1")


def chi_square_test(res: EstimationResult, m: int, n: int, confidence: float = 0.99) -> DetectionReport:
    """Compare J with the chi-square(m - n) quantile at the given confidence."""
    _check_probability(confidence)
    if m <= n:
        raise DegenerateFreedom(f"m={m} <= n={n}: residual has no degrees of freedom")
    if m != len(res.residual) or n != len(res.state):
        raise DimensionMismatch(
            f"m={m}, n={n} disagree with an estimate of {len(res.state)} states "
            f"from {len(res.residual)} meters"
        )
    threshold = chi_square_quantile(confidence, m - n)
    statistic = res.objective
    return DetectionReport(
        method=DetectionMethod.CHI_SQUARE,
        statistic=statistic,
        threshold=threshold,
        bad_data_detected=statistic > threshold,
        confidence=confidence,
    )


def residual_covariance(H, w) -> ResidualCovariance:
    """Omega = R - H (H' R^-1 H)^-1 H'.

    Diagonal entries are the residual variances used to normalize the LNR
    statistic; Omega R^-1 is the (idempotent) residual projector.
    """
    return ResidualCovariance(omega=WlsModel(H, w).omega)


def lnr_test(
    res: EstimationResult, omega: ResidualCovariance, confidence: float = 0.99
) -> DetectionReport:
    """Largest normalized residual test with two-sided Gaussian threshold.

    Critical meters (Omega_ii below CRITICALITY_FLOOR * sigma_i^2) are
    skipped with a warning; if every meter is critical the test is
    undefined and AllMetersCritical is raised. ``suspect_meter`` is the
    argmax index, reported only when bad data is detected.
    """
    _check_probability(confidence)
    diag = np.diag(omega.omega)
    variances = res.sigmas**2
    if diag.shape != variances.shape:
        raise ValidationError("omega and estimation result disagree on meter count")
    usable = diag >= CRITICALITY_FLOOR * variances
    if not np.any(usable):
        raise AllMetersCritical("every meter is critical; LNR statistic is undefined")
    if not np.all(usable):
        skipped = np.flatnonzero(~usable).tolist()
        warnings.warn(f"critical meters excluded from LNR test: {skipped}", stacklevel=2)
    normalized = np.full(diag.shape, -np.inf)
    normalized[usable] = np.abs(res.residual[usable]) / np.sqrt(diag[usable])
    suspect = int(np.argmax(normalized))
    statistic = float(normalized[suspect])
    # two-sided: residual sign carries no information
    threshold = gaussian_quantile(1.0 - (1.0 - confidence) / 2.0)
    detected = statistic > threshold
    return DetectionReport(
        method=DetectionMethod.LNR,
        statistic=statistic,
        threshold=threshold,
        bad_data_detected=detected,
        confidence=confidence,
        suspect_meter=suspect if detected else None,
    )


def run_detectors(specs, result: EstimationResult, model: WlsModel) -> tuple[DetectionReport, ...]:
    """Run each detector spec on one estimate made with ``model``.

    Omega is taken from the model, so it is built only when an LNR spec
    is present and only once per model.
    """
    return tuple(
        chi_square_test(result, model.m, model.n, spec.confidence)
        if spec.method is DetectionMethod.CHI_SQUARE
        else lnr_test(result, ResidualCovariance(model.omega), spec.confidence)
        for spec in specs
    )
