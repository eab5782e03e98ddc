"""Weighted least-squares DC state estimation.

Measurement model: z = H x + e, with e_i ~ N(0, sigma_i^2) independent.
The WLS estimate solves the normal equations

    x_hat = (H' R^-1 H)^-1 H' R^-1 z,      R = diag(sigma_i^2),

and the goodness-of-fit objective is J = sum_i (r_i / sigma_i)^2 with
r = z - H x_hat. ``WlsModel`` holds one (H, sigmas) pair and factors its
gain once for every estimate and Omega made from it; it estimates one z
or a block of them with one solve. ``wls_estimate`` estimates through
``WlsModel.of``, the one model of a MeasurementMatrix and a WeightModel.

``scipy.linalg`` is imported by the model's first factorisation, solve or
diag(Omega), not by ``import fdilab``: building H and weights, and
synthesizing an attack, need numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, SingularGainMatrix, ValidationError
from .network import MeasurementMatrix, _read_only


@dataclass(frozen=True)
class WeightModel:
    """Per-meter standard deviations (per-unit). All strictly positive; read-only."""

    sigmas: np.ndarray

    def __post_init__(self):
        sig = np.atleast_1d(_read_only(self.sigmas))
        if sig.ndim != 1:
            raise ValidationError("sigmas must be a 1-D vector")
        object.__setattr__(self, "sigmas", _sigma_values(sig, len(sig)))


@dataclass(frozen=True)
class EstimationResult:
    """One estimate; from ``WlsModel.fit``, one per row of a block, stacked along a leading axis."""

    state: np.ndarray       # x_hat, radians, non-slack buses
    fitted: np.ndarray      # H x_hat
    residual: np.ndarray    # z - H x_hat
    objective: float        # J = sum((r_i / sigma_i)^2)
    sigmas: np.ndarray


def _h_values(H) -> np.ndarray:
    if isinstance(H, MeasurementMatrix):
        return H.values
    return np.asarray(H, dtype=float)


def _sigma_values(w, m: int, allow_zero: bool = False) -> np.ndarray:
    sig = w.sigmas if isinstance(w, WeightModel) else np.atleast_1d(np.asarray(w, dtype=float))
    if sig.shape != (m,):
        raise DimensionMismatch(f"expected {m} sigmas, got shape {sig.shape}")
    if not (np.all(np.isfinite(sig)) and np.all(sig >= 0 if allow_zero else sig > 0)):
        raise ValidationError(f"all sigmas must be finite and {'>=' if allow_zero else '>'} 0")
    return sig


class WlsModel:
    """The weighted normal equations of one meter set, solved for any z.

    Holds the validated H and sigmas, not R^-1/2 H. The Cholesky factor of
    the gain H' R^-1 H, the residual covariance Omega = R - H (H' R^-1
    H)^-1 H' and its diagonal are each worked out on first use and then
    kept, so every estimate and Omega made from one model shares one
    factorisation, and a caller pays only for what it uses.
    """

    def __init__(self, H, w):
        self.H = _h_values(H)
        self.m, self.n = self.H.shape
        self.sigmas = _sigma_values(w, self.m)

    @classmethod
    def of(cls, H, w) -> WlsModel:
        """The model of a MeasurementMatrix H and a WeightModel w, shared while H lives.

        H keeps the model of the last WeightModel it served, compared by
        identity and held strongly, so that identity is never reused; both
        arrays are read-only. Any other pair, such as plain arrays, gets a
        fresh model.
        """
        if not (isinstance(H, MeasurementMatrix) and isinstance(w, WeightModel)):
            return cls(H, w)
        if H._model is None or H._model[0] is not w:
            object.__setattr__(H, "_model", (w, cls(H, w)))
        return H._model[1]

    @cached_property
    def factor(self):
        """Cholesky factor of H' R^-1 H; SingularGainMatrix when it is not invertible."""
        import scipy.linalg

        Hw = self.H / self.sigmas[:, None]  # R^-1/2 H; fit forms it again by the same expression
        gain = Hw.T @ Hw
        try:
            return scipy.linalg.cho_factor(gain)
        except scipy.linalg.LinAlgError as exc:
            raise SingularGainMatrix(f"gain matrix is singular: {exc}") from exc

    def solve(self, rhs) -> np.ndarray:
        """(H' R^-1 H)^-1 rhs."""
        import scipy.linalg

        return scipy.linalg.cho_solve(self.factor, rhs)

    def estimate(self, z) -> EstimationResult:
        """WLS estimate on the measurement vector z, which must be finite."""
        z = np.asarray(z, dtype=float).reshape(-1)
        if z.shape[0] != self.m:
            raise DimensionMismatch(f"z has {z.shape[0]} entries, H has {self.m} rows")
        est = self.fit(z[None, :])
        return EstimationResult(
            state=est.state[0],
            fitted=est.fitted[0],
            residual=est.residual[0],
            objective=float(est.objective[0]),
            sigmas=self.sigmas,
        )

    def fit(self, Z) -> EstimationResult:
        """WLS estimates on each row of the (trials, m) block Z, which must be finite.

        One solve serves the whole block. Every field of the result but
        ``sigmas`` has a leading trial axis: state (trials, n), fitted and
        residual (trials, m), objective (trials,).
        """
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2 or Z.shape[1] != self.m:
            raise DimensionMismatch(f"z block has shape {Z.shape}, H has {self.m} rows")
        if not np.all(np.isfinite(Z)):
            raise ValidationError("measurement values must all be finite")
        # Trials are columns in the solve, so one z takes the matrix-vector
        # products and single right-hand side it always has, and keeps its bits.
        state = self.solve((self.H / self.sigmas[:, None]).T @ (Z / self.sigmas).T).T
        fitted = (self.H @ state.T).T
        residual = Z - fitted
        # C order makes np.sum add each row as it adds a single vector
        objective = np.sum(np.ascontiguousarray((residual / self.sigmas) ** 2), axis=1)
        return EstimationResult(
            state=state, fitted=fitted, residual=residual, objective=objective, sigmas=self.sigmas
        )

    @cached_property
    def omega(self) -> np.ndarray:
        """Omega = R - H (H' R^-1 H)^-1 H', symmetrised."""
        omega = np.diag(self.sigmas**2) - self.H @ self.solve(self.H.T)
        return 0.5 * (omega + omega.T)  # strip asymmetric round-off

    @cached_property
    def omega_diagonal(self) -> np.ndarray:
        """diag(Omega): sigma_i^2 - h_i G^-1 h_i' for each row h_i of H, G the gain.

        LAPACK potri forms G^-1, in about (2/3) n^3 flops, from a copy of the
        factor, which estimates go on using. Each row reads it only at the
        column pairs of its nonzeros: g_aa, g_bb and g_ab for a branch-flow
        row on columns a < b. G^-1 is dropped; the m x m Omega is never formed.
        """
        import scipy.linalg

        factor, lower = self.factor
        inverse, _ = scipy.linalg.lapack.dpotri(factor, lower=lower, overwrite_c=False)
        rows, cols = np.nonzero(self.H)  # row-major, so each row's columns ascend
        values = self.H[rows, cols]
        quad = np.bincount(rows, values**2 * inverse[cols, cols], self.m)
        # cross terms, twice: each nonzero with the one d places on in its row
        for d in range(1, np.bincount(rows).max()):
            p = np.flatnonzero(rows[d:] == rows[:-d])
            a, b = cols[p], cols[p + d]
            g = inverse[b, a] if lower else inverse[a, b]
            quad += np.bincount(rows[p], 2 * values[p] * values[p + d] * g, self.m)
        return self.sigmas**2 - quad


def wls_estimate(H, z, w) -> EstimationResult:
    """Solve the weighted normal equations for the state estimate.

    ``H`` may be a MeasurementMatrix or a plain (m, n) array; ``w`` a
    WeightModel or a sigma vector; the model is ``WlsModel.of(H, w)``.
    Raises SingularGainMatrix when H' R^-1 H is not invertible
    (unobservable configuration) and ValidationError when z is not finite.
    """
    return WlsModel.of(H, w).estimate(z)


def simulate_measurements(H, x_true, w, seed=None) -> np.ndarray:
    """Draw z = H x_true + e with e_i ~ N(0, sigma_i^2), deterministic per seed.

    ``w`` may contain zeros here (noiseless meters); ``seed`` is anything
    ``numpy.random.default_rng`` accepts, including a Generator.
    """
    Hv = _h_values(H)
    x_true = np.asarray(x_true, dtype=float).reshape(-1)
    m, n = Hv.shape
    if x_true.shape[0] != n:
        raise DimensionMismatch(f"x_true has {x_true.shape[0]} entries, H has {n} columns")
    sig = _sigma_values(w, m, allow_zero=True)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return Hv @ x_true + rng.standard_normal(m) * sig

