"""Sequence model under a polynomially decaying Gaussian prior.

The prior puts N(0, j^{-2 beta - 1}) on coordinates j <= n and a point
mass at zero beyond n.  The variational family frees the first k
coordinates and shrinks coordinates k+1..n to near-degenerate
N(0, e^{-j n}) factors (exact point masses would have infinite KL to the
posterior).  The optimizer over that family is explicit, and so is its
frequentist risk, which makes the rate-exponent curve computable without
any Monte Carlo: for k below n^{1/(2 beta + 1)} the risk behaves like
k/n + k^{-2 alpha}, above it like the full posterior's
n^{-2 (alpha ^ beta) / (2 beta + 1)}.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .sequence_model import SequenceObservation, SobolevSignal, make_signal

__all__ = [
    "TruncVBPosterior",
    "fit_vb_k",
    "exact_risk",
    "worst_case_risk",
    "theory_exponent",
    "rate_exponent_curve",
]


@dataclass(frozen=True)
class TruncVBPosterior:
    """Explicit variational posterior for the free-k family.

    Coordinates j <= k get N(n y_j / (n + j^{2b+1}), 1 / (n + j^{2b+1})),
    coordinates k < j <= n get N(0, e^{-j n}), and j > n are point masses
    at zero.
    """

    k: int
    beta: float
    n: int
    coord_means: np.ndarray
    coord_vars: np.ndarray

    def log_tail_variance(self, j: int) -> float:
        if not self.k < j <= self.n:
            raise InputError(f"tail index {j} outside ({self.k}, {self.n}]")
        return -float(j) * self.n


def _decay(j: np.ndarray, beta: float) -> np.ndarray:
    return j ** (2.0 * beta + 1.0)


def fit_vb_k(obs: SequenceObservation, beta: float, k: int) -> TruncVBPosterior:
    """Instantiate the explicit posterior for a given truncation level k."""
    if not beta >= 0:
        raise InputError("beta must be non-negative")
    n = int(obs.n)
    if n != obs.n or n < 1:
        raise InputError("this model indexes coordinates by n; n must be a positive integer")
    if not 0 <= k <= n:
        raise InputError(f"k={k} outside 0..{n}")
    if obs.y.size < k:
        raise InputError(f"need at least k={k} observed coordinates, got {obs.y.size}")
    j = np.arange(1, k + 1, dtype=float)
    denom = n + _decay(j, beta)
    return TruncVBPosterior(
        k=k,
        beta=beta,
        n=n,
        coord_means=n * obs.y[:k] / denom,
        coord_vars=1.0 / denom,
    )


def _log_tail_sum(k: int, n: int) -> float:
    """log of sum_{j=k+1}^{n} e^{-j n}, a finite geometric series."""
    if k >= n:
        return -math.inf
    # r = e^{-n}; sum = r^{k+1} (1 - r^{n-k}) / (1 - r)
    log_r = -float(n)
    lead = (k + 1) * log_r
    correction = math.log1p(-math.exp((n - k) * log_r)) if (n - k) * log_r > -700 else 0.0
    return lead + correction - math.log1p(-math.exp(log_r))


def exact_risk(signal: SobolevSignal, n: int, beta: float, k: int) -> float:
    """Exact value of E_Y E_Q ||theta - theta*||^2 for the explicit posterior.

    Five non-negative pieces: squared shrinkage bias on the free block,
    the signal tail beyond k, the sampling variance of the shrunk
    estimates, the posterior variance of the free block, and the
    near-degenerate tail variances (computed in log space; they underflow
    to zero long before they could matter for n >= 64).
    """
    if not beta >= 0:
        raise InputError("beta must be non-negative")
    if n < 1 or int(n) != n:
        raise InputError("n must be a positive integer")
    if not 0 <= k <= n:
        raise InputError(f"k={k} outside 0..{n}")
    theta = signal.theta
    kk = min(k, theta.size)
    j = np.arange(1, k + 1, dtype=float)
    denom = n + _decay(j, beta)

    bias_head = float(np.sum((_decay(j[:kk], beta) / denom[:kk]) ** 2 * theta[:kk] ** 2))
    tail_signal = float(np.sum(theta[k:] ** 2))
    sampling_var = float(np.sum(n / denom**2))
    posterior_var = float(np.sum(1.0 / denom))
    log_tail = _log_tail_sum(k, int(n))
    tail_var = math.exp(log_tail) if log_tail > -745.0 else 0.0
    return bias_head + tail_signal + sampling_var + posterior_var + tail_var


def _ceil_power(n: int, t: float) -> int:
    # guard against float noise pushing n^t just above an integer
    return int(math.ceil(n**t - 1e-9))


def worst_case_risk(alpha: float, beta: float, n: int, k: int, B: float = 1.0) -> float:
    """Max exact risk over the adversarial signals used for the rate curve.

    Three candidates approximate the supremum over the smoothness ball: a
    spike just past the truncation (position k+1), a spike at the prior's
    effective dimension n^{1/(2 beta + 1)}, and the near-boundary smooth
    signal.
    """
    if not beta >= 0:  # before n^{1/(2 beta + 1)} can blow up
        raise InputError("beta must be non-negative")
    j_eff = _ceil_power(n, 1.0 / (2 * beta + 1))
    length = max(4 * j_eff, k + 2, 8)
    candidates = [
        make_signal("spike", alpha, B, length, j0=k + 1),
        make_signal("spike", alpha, B, length, j0=j_eff),
        make_signal("sobolev_boundary", alpha, B, length),
    ]
    return max(exact_risk(sig, n, beta, k) for sig in candidates)


def theory_exponent(alpha: float, beta: float, t: float) -> float:
    """Predicted rate exponent for truncation k = n^t.

    max(t - 1, -2 alpha t) below the changepoint t = 1/(2 beta + 1),
    the full-posterior exponent -2 min(alpha, beta)/(2 beta + 1) above.
    """
    if not 0 < t <= 1:
        raise InputError("t must lie in (0, 1]")
    if t <= 1.0 / (2 * beta + 1):
        return max(t - 1.0, -2.0 * alpha * t)
    return -2.0 * min(alpha, beta) / (2 * beta + 1)


def rate_exponent_curve(alpha, beta, t_grid, n_grid, B: float = 1.0):
    """Fitted vs. predicted risk exponents along a grid of truncation powers.

    For each t, sets k = ceil(n^t) for every n in n_grid, evaluates the
    worst-case exact risk, and regresses log risk on log n.  Returns a
    list of (t, fitted_exponent, theory_exponent) triples.
    """
    t_arr = [float(t) for t in t_grid]
    n_arr = [int(n) for n in n_grid]
    if not t_arr or not n_arr:
        raise InputError("t_grid and n_grid must be non-empty")
    if len(n_arr) < 3:
        raise InputError("need at least 3 n values for an exponent fit")
    if any(n < 64 for n in n_arr):
        raise InputError("n values below 64 are dominated by tail artifacts")
    if not all(0 < t <= 1 for t in t_arr):  # before n^t can overflow
        raise InputError("t must lie in (0, 1]")
    log_n = np.log(np.asarray(n_arr, dtype=float))
    out = []
    for t in t_arr:
        risks = np.array(
            [worst_case_risk(alpha, beta, n, min(_ceil_power(n, t), n), B) for n in n_arr]
        )
        slope = np.polyfit(log_n, np.log(risks), 1)[0]
        out.append((t, float(slope), theory_exponent(alpha, beta, t)))
    return out
