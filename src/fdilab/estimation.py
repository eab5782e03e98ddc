"""Weighted least-squares DC state estimation.

Measurement model: z = H x + e, with e_i ~ N(0, sigma_i^2) independent.
The WLS estimate solves the normal equations

    x_hat = (H' R^-1 H)^-1 H' R^-1 z,      R = diag(sigma_i^2),

and the goodness-of-fit objective is J = sum_i (r_i / sigma_i)^2 with
r = z - H x_hat. ``WlsModel`` holds one H, a MeasurementMatrix, and one
WeightModel, and factors its gain once for every estimate made from it; it
estimates one z or a block of them with one solve. Two caches, one job each:
``WlsModel.of`` shares one model, factor included, among the estimates and
detection of one H; the last diag(Omega) formed is kept for its meter set,
so a fresh H parsed from the same files reads it and runs no potri.

``scipy.linalg`` is imported by the model's first factorisation, solve or
diag(Omega), not by ``import fdilab``: building H and weights, and
synthesizing an attack, need numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NumericalError, SingularGainMatrix, ValidationError
from .network import MeasurementMatrix, WeightModel, _dot


@dataclass(frozen=True)
class EstimationResult:
    """One estimate; from ``WlsModel.fit``, one per row of a block, stacked along a leading axis."""

    state: np.ndarray       # x_hat, radians, non-slack buses
    fitted: np.ndarray      # H x_hat
    residual: np.ndarray    # z - H x_hat
    objective: float        # J = sum((r_i / sigma_i)^2)
    sigmas: np.ndarray


def _rng(seed) -> np.random.Generator:
    """``default_rng(seed)``, which passes a Generator through; a negative seed is a ValidationError."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ValidationError(f"seed {seed} must be a non-negative integer") from None


# (meter-set key, diag(Omega)) of the last diag(Omega) a WlsModel formed: its one home.
_last_omega: tuple = (None, None)


class WlsModel:
    """The weighted normal equations of one meter set, solved for any z.

    Holds ``H.edges`` and ``H.weights``, not H, whose memo holds the model (no
    reference cycle). The gain H' R^-1 H and H' R^-1 z are read off the edge
    list, so the model makes no m x n array. The gain's Cholesky factor is
    worked out on first use and then kept, so every estimate made from one
    model shares one factorisation. diag(Omega), Omega = R - H (H' R^-1 H)^-1 H',
    is read from the memo of the last meter set or formed in the factor's
    buffer, so a solve after a miss factors again.
    """

    def __init__(self, H: MeasurementMatrix, w: WeightModel):
        self.edges, self.weights, self.sigmas = H.edges, H.weights, w.sigmas
        self.m, self.n = H.m, H.n
        if self.sigmas.shape != (self.m,):
            raise DimensionMismatch(f"expected {self.m} sigmas, got shape {self.sigmas.shape}")

    @classmethod
    def of(cls, H: MeasurementMatrix, w: WeightModel) -> WlsModel:
        """The model of H and w, whose factor the estimates and detection of one H share
        while H lives: H keeps the model of the last WeightModel it served, compared by
        identity and held strongly, so that identity is never reused; both arrays are read-only."""
        if H._model is None or H._model[0] is not w:
            object.__setattr__(H, "_model", (w, cls(H, w)))
        return H._model[1]

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # a gain that overflows fails below, not with a warning
    def factor(self):
        """Cholesky factor of the gain H' R^-1 H; SingularGainMatrix when it is not invertible or not finite.
        One bincount adds, meter by meter, W = (w/sigma)^2 at (a, a) and (b, b) and -W at (a, b) and (b, a);
        a term at the slack, b = n, lands in cell n^2, past the gain. Its F-ordered ``.T`` is factored in place."""
        import scipy.linalg

        n, W = self.n, (self.weights / self.sigmas) ** 2
        ends = np.where(self.edges < n, self.edges, n * n)
        cells = np.minimum(ends @ [[n + 1, 0, n, 1], [0, n + 1, 1, n]], n * n)
        gain = np.bincount(cells.ravel(), np.multiply.outer(W, [1.0, 1.0, -1.0, -1.0]).ravel(), n * n + 1)
        gain = gain[:-1].reshape(n, n)
        try:
            return scipy.linalg.cho_factor(gain.T, overwrite_a=True)
        except (scipy.linalg.LinAlgError, ValueError) as exc:  # ValueError: infs or NaNs
            raise SingularGainMatrix(f"gain matrix is singular: {exc}") from exc

    def solve(self, rhs) -> np.ndarray:
        """(H' R^-1 H)^-1 rhs; an rhs that is not finite gives a result that is not finite."""
        import scipy.linalg

        return scipy.linalg.cho_solve(self.factor, rhs, check_finite=False)

    def estimate(self, z) -> EstimationResult:
        """WLS estimate on the measurement vector z, which must be finite."""
        z = np.asarray(z, dtype=float).reshape(-1)
        if z.shape[0] != self.m:
            raise DimensionMismatch(f"z has {z.shape[0]} entries, H has {self.m} rows")
        est = self.fit(z[None, :])
        return EstimationResult(est.state[0], est.fitted[0], est.residual[0], float(est.objective[0]), self.sigmas)

    @np.errstate(over="ignore", invalid="ignore")  # an overflow is a NumericalError below
    def fit(self, Z) -> EstimationResult:
        """WLS estimates on each row of the (trials, m) block Z, which must be finite.

        One solve serves the whole block. Every field of the result but
        ``sigmas`` has a leading trial axis: state (trials, n), fitted and
        residual (trials, m), objective (trials,). NumericalError when z / sigma
        or the objective overflows a float.
        """
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2 or Z.shape[1] != self.m:
            raise DimensionMismatch(f"z block has shape {Z.shape}, H has {self.m} rows")
        if not np.all(np.isfinite(Z)):
            raise ValidationError("measurement values must all be finite")
        # H' R^-1 Z by one bincount: meter by meter, q = (w/sigma)(z/sigma) at column a and -q at column b
        # of its trial's row, whose slack column n is dropped. Trials are columns in the solve.
        trials, cols = len(Z), self.n + 1
        q = np.empty((trials, self.m, 2))
        np.multiply(Z / self.sigmas, self.weights / self.sigmas, out=q[..., 0])
        np.negative(q[..., 0], out=q[..., 1])
        cells = np.arange(0, trials * cols, cols)[:, None] + self.edges.ravel()
        rhs = np.bincount(cells.ravel(), q.ravel(), trials * cols).reshape(trials, cols)[:, :-1]
        state = self.solve(rhs.T).T
        fitted = _dot(self.edges, self.weights, state)
        residual = Z - fitted
        # C order makes np.sum add each row as it adds a single vector
        objective = np.sum(np.ascontiguousarray((residual / self.sigmas) ** 2), axis=1)
        if not np.all(np.isfinite(objective)):
            raise NumericalError("the weighted measurements or residuals overflow a float")
        return EstimationResult(state, fitted, residual, objective, self.sigmas)

    @property
    def omega_diagonal(self) -> np.ndarray:
        """diag(Omega): sigma_i^2 - h_i G^-1 h_i' for each row h_i of H, G the gain; read-only.

        The memo's array when its meter set ``(n, edges, weights, sigmas)``
        equals this model's byte for byte, leaving the factor alone. Otherwise
        LAPACK potri forms G^-1, in about (2/3) n^3 flops, in the factor's own
        buffer, the factor is dropped (a later solve factors the gain again, to
        the same bits) and the memo takes the result. Row i holds +-w, its
        weight, at the columns a < b of its edge, so h_i G^-1 h_i' = W g_aa +
        W g_bb - 2 W g_ab, W = w^2, every g term at the slack, b = n, being
        zero. Omega is never formed.
        """
        global _last_omega
        key = (self.n, self.edges.tobytes(), self.weights.tobytes(), self.sigmas.tobytes())
        last_key, last_diagonal = _last_omega  # one read: another thread may replace the entry
        if last_key == key:
            return last_diagonal
        import scipy.linalg

        factor, _ = self.factor
        del self.factor
        inverse, _ = scipy.linalg.lapack.dpotri(factor, overwrite_c=True)
        a, b = self.edges.T
        W = self.weights**2
        g = np.append(np.diagonal(inverse), 0.0)  # g_bb is zero at the slack
        # cho_factor's default factor is upper, so potri fills the upper triangle: g_ab at [a, b], a < b
        g_ab = np.where(b < self.n, inverse[a, np.minimum(b, self.n - 1)], 0.0)
        diagonal = self.sigmas**2 - (W * g[a] + W * g[b] - 2 * (W * g_ab))
        diagonal.flags.writeable = False
        _last_omega = (key, diagonal)
        return diagonal


def wls_estimate(H: MeasurementMatrix, z, w: WeightModel) -> EstimationResult:
    """Solve the weighted normal equations for the state estimate, with ``WlsModel.of(H, w)``.

    Raises SingularGainMatrix when H' R^-1 H cannot be factored (a badly
    conditioned placement, or a gain that overflows), ValidationError when
    z is not finite and NumericalError when the weighted residuals overflow.
    """
    return WlsModel.of(H, w).estimate(z)


def _true_flows(H: MeasurementMatrix, x_true) -> np.ndarray:
    """The noiseless measurements H x_true; DimensionMismatch for an x_true of the wrong
    length, and ValidationError when a flow overflows a float."""
    x_true = np.asarray(x_true, dtype=float).reshape(-1)
    if x_true.shape[0] != H.n:
        raise DimensionMismatch(f"x_true has {x_true.shape[0]} entries, H has {H.n} columns")
    with np.errstate(over="ignore", invalid="ignore"):
        flows = H.dot(x_true)
    if not np.all(np.isfinite(flows)):
        raise ValidationError("the flows H x_true of the true state must be finite")
    return flows


def simulate_measurements(H: MeasurementMatrix, x_true, w: WeightModel, seed=None) -> np.ndarray:
    """Draw z = H x_true + e with e_i ~ N(0, sigma_i^2), deterministic per seed.

    ``seed`` is anything ``numpy.random.default_rng`` accepts, a Generator
    included; a negative seed is a ValidationError, and so is an x_true whose
    flows overflow (``_true_flows``).
    """
    flows = _true_flows(H, x_true)
    model = WlsModel(H, w)  # checks w against H, and factors nothing
    return flows + _rng(seed).standard_normal(model.m) * model.sigmas
