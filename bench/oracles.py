"""Output checks that do not reuse fdilab's own code paths.

The oracle builds H straight from the case JSON (a meter listed as
[i, j] reads (theta_i - theta_j) / x), solves WLS through a QR
factorization of R^-1/2 H, takes residual variances from the leverages
and thresholds from ``scipy.special``. Each ``check_*`` returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.special

# Omega_ii below this multiple of sigma_i^2 marks a critical meter (the
# criticality convention of the LNR test).
CRITICAL_FLOOR = 1e-10
STATE_RTOL = 1e-6
NORM_RTOL = 1e-7
BALANCE_ATOL_MW = 1e-5


def chi2_threshold(confidence: float, dof: int) -> float:
    return float(scipy.special.chdtri(dof, 1.0 - confidence))


def lnr_threshold(confidence: float) -> float:
    return float(scipy.special.ndtri(1.0 - (1.0 - confidence) / 2.0))


class Oracle:
    """Reference DC model of one network and meter set."""

    def __init__(self, network: dict, meters: dict):
        slack = int(network["slack"])
        self.state_buses = [int(b) for b in network["buses"] if int(b) != slack]
        col = {b: k for k, b in enumerate(self.state_buses)}
        reactance = {}
        for br in network["branches"]:
            reactance[frozenset((int(br["from"]), int(br["to"])))] = float(br["x_pu"])
        records = meters["meters"]
        H = np.zeros((len(records), len(self.state_buses)))
        for row, rec in enumerate(records):
            i, j = (int(v) for v in rec["branch"])
            b = 1.0 / reactance[frozenset((i, j))]
            if i != slack:
                H[row, col[i]] += b
            if j != slack:
                H[row, col[j]] -= b
        self.H = H
        self.sigmas = np.array([float(rec.get("sigma", 0.01)) for rec in records])
        self.m, self.n = H.shape
        self._q, self._r = np.linalg.qr(H / self.sigmas[:, None])
        leverage = np.sum(self._q**2, axis=1)
        self.omega_diag = self.sigmas**2 * (1.0 - leverage)

    def estimate(self, z) -> np.ndarray:
        return scipy.linalg.solve_triangular(self._r, self._q.T @ (np.asarray(z) / self.sigmas))

    def objective(self, z, x) -> float:
        return float(np.sum(((z - self.H @ x) / self.sigmas) ** 2))

    def normalized_residuals(self, z, x) -> np.ndarray:
        """|r_i| / sqrt(Omega_ii), with -inf for critical meters."""
        usable = self.omega_diag >= CRITICAL_FLOOR * self.sigmas**2
        normalized = np.full(self.m, -np.inf)
        normalized[usable] = np.abs((z - self.H @ x)[usable]) / np.sqrt(self.omega_diag[usable])
        return normalized

    def lnr(self, z, x) -> float:
        return float(np.max(self.normalized_residuals(z, x)))

    def verdicts(self, z, x, confidence: float) -> tuple[bool, bool]:
        chi = self.objective(z, x) > chi2_threshold(confidence, self.m - self.n)
        return chi, self.lnr(z, x) > lnr_threshold(confidence)

    # -- checks ---------------------------------------------------------------

    def check_estimate(self, z, est) -> list[str]:
        """Weighted residual orthogonality H'R^-1 r = 0 and consistent outputs."""
        problems = []
        x = np.asarray(est.state)
        r = z - self.H @ x
        gradient = self.H.T @ (r / self.sigmas**2)
        scale = np.abs(self.H).T @ (np.abs(z) / self.sigmas**2)
        if np.max(np.abs(gradient)) > NORM_RTOL * max(1.0, float(np.max(scale))):
            problems.append(f"H'R^-1 r is not 0 (max {np.max(np.abs(gradient)):.3e})")
        if np.max(np.abs(np.asarray(est.residual) - r)) > 1e-9 * (1.0 + np.max(np.abs(z))):
            problems.append("reported residual differs from z - H x_hat")
        j = float(np.sum((r / self.sigmas) ** 2))
        if abs(est.objective - j) > NORM_RTOL * (1.0 + j):
            problems.append(f"objective {est.objective} differs from {j}")
        return problems

    def check_detections(self, z, est, detections) -> list[str]:
        problems = []
        x = np.asarray(est.state)
        for rep in detections:
            if rep.method.value == "chi_square":
                stat = self.objective(z, x)
                thr = chi2_threshold(rep.confidence, self.m - self.n)
            else:
                normalized = self.normalized_residuals(z, x)
                stat = float(np.max(normalized))
                thr = lnr_threshold(rep.confidence)
                # Normalized residuals tie exactly when few meters are redundant, so
                # any meter attaining the maximum is a correct suspect.
                named = rep.suspect_meter is not None
                if named != rep.bad_data_detected or (
                    named and normalized[rep.suspect_meter] < stat * (1.0 - NORM_RTOL)
                ):
                    problems.append(f"suspect meter {rep.suspect_meter} is not a largest normalized residual")
            if abs(rep.statistic - stat) > NORM_RTOL * (1.0 + abs(stat)):
                problems.append(f"{rep.method.value} statistic {rep.statistic} != {stat}")
            if abs(rep.threshold - thr) > 1e-9 * thr:
                problems.append(f"{rep.method.value} threshold {rep.threshold} != {thr}")
            if rep.bad_data_detected != (stat > thr):
                problems.append(f"{rep.method.value} verdict disagrees with the oracle")
        return problems

    def check_stealth(self, z_clean, atk, controlled=None, confidence: float = 0.99) -> list[str]:
        """a = Hc, support inside the controlled set, exact shift c, unchanged residual and verdicts."""
        problems = []
        a, c = np.asarray(atk.a), np.asarray(atk.c)
        if np.max(np.abs(a - self.H @ c)) > 1e-9 * (1.0 + np.max(np.abs(a))):
            problems.append("attack vector is not H c")
        support = set(int(i) for i in np.flatnonzero(a))
        if set(atk.support) != support:
            problems.append("reported support differs from the nonzeros of a")
        if controlled is not None and not support <= set(controlled):
            problems.append(f"support leaks onto uncontrolled meters {sorted(support - set(controlled))}")
        x_clean = self.estimate(z_clean)
        x_attacked = self.estimate(z_clean + a)
        if np.max(np.abs(x_attacked - x_clean - c)) > STATE_RTOL * (1e-6 + np.max(np.abs(c))):
            problems.append("estimate shift differs from c")
        r_clean = math.sqrt(self.objective(z_clean, x_clean))
        r_attacked = math.sqrt(self.objective(z_clean + a, x_attacked))
        if abs(r_attacked - r_clean) > NORM_RTOL * (1.0 + r_clean):
            problems.append(f"residual norm moved from {r_clean} to {r_attacked}")
        if self.verdicts(z_clean, x_clean, confidence) != self.verdicts(z_clean + a, x_attacked, confidence):
            problems.append("a detector verdict changed under the attack")
        return problems


def check_dispatch(result, network: dict, market: dict, nodal: bool = True) -> list[str]:
    """Power balance (total and, for the case's own loads, per bus) and flow limits."""
    problems = []
    demand = {int(b): 0.0 for b in network["buses"]}
    for rec in market["loads"]:
        demand[int(rec["bus"])] += float(rec["mw"])
    gen = np.asarray(result.gen_output)
    total_demand = sum(demand.values())
    if abs(gen.sum() - total_demand) > BALANCE_ATOL_MW * max(1.0, total_demand):
        problems.append(f"generation {gen.sum()} MW != demand {total_demand} MW")
    for g, rec in zip(gen, market["generators"]):
        if g < float(rec.get("pmin", 0.0)) - BALANCE_ATOL_MW or g > float(rec["pmax"]) + BALANCE_ATOL_MW:
            problems.append(f"generator at bus {rec['bus']} outside its bounds: {g}")
    flows = np.asarray(result.flows)
    for br, flow in zip(network["branches"], flows):
        limit = br.get("limit_mw")
        if limit is not None and abs(flow) > float(limit) + BALANCE_ATOL_MW:
            problems.append(f"flow {flow} MW on {br['from']}-{br['to']} exceeds {limit}")
    if nodal:
        net = {b: -d for b, d in demand.items()}
        for g, rec in zip(gen, market["generators"]):
            net[int(rec["bus"])] += g
        for br, flow in zip(network["branches"], flows):
            net[int(br["from"])] -= flow
            net[int(br["to"])] += flow
        worst = max(abs(v) for v in net.values())
        if worst > BALANCE_ATOL_MW * max(1.0, total_demand):
            problems.append(f"nodal balance off by {worst} MW")
    return problems


def false_positive_problems(detections: int, trials: int, confidence: float) -> list[str]:
    """Clean-data alarm count within 5 binomial standard deviations of (1 - confidence) * trials."""
    p = 1.0 - confidence
    mean = p * trials
    slack = 5.0 * math.sqrt(trials * p * (1.0 - p)) + 1.0
    if abs(detections - mean) > slack:
        return [f"false-positive count {detections}/{trials} outside {mean:.1f} +- {slack:.1f}"]
    return []
