"""Sequence model under a polynomially decaying Gaussian prior.

The prior puts N(0, j^{-2 beta - 1}) on coordinates j <= n and a point
mass at zero beyond n.  The variational family frees the first k
coordinates and shrinks coordinates k+1..n to near-degenerate
N(0, e^{-j n}) factors (exact point masses would have infinite KL to the
posterior).  exact_risk gives the frequentist risk of the best member
in closed form, which makes the rate-exponent curve computable without
any Monte Carlo: for k below n^{1/(2 beta + 1)} the risk behaves like
k/n + k^{-2 alpha}, above it like the full posterior's
n^{-2 (alpha ^ beta) / (2 beta + 1)}.

The risk splits into a signal-free part, the variances, and the
squared bias of the shrunk signal.  _free_block gives the first as
sequential prefix sums over j, so one pass serves every k of one n, and
worst_case_risk takes the bias of its three candidate signals from
their closed-form theta_j^2, so the rate curve builds no signal at all.
"""

import math

import numpy as np

from .errors import InputError, NumericError, count
from .sequence_model import SobolevSignal

__all__ = [
    "exact_risk",
    "worst_case_risk",
    "theory_exponent",
    "rate_exponent_curve",
]


def _truncations(n: int, beta: float, k) -> list:
    """k, one truncation or a sequence of them, as a list of ints in 0..n."""
    if not beta >= 0:  # before n^{1/(2 beta + 1)} can blow up
        raise InputError("beta must be non-negative")
    if n < 1 or int(n) != n:
        raise InputError("n must be a positive integer")
    ks = [count(kk, "k") for kk in (k if np.ndim(k) else [k])]
    for kk in ks:
        if kk > n:
            raise InputError(f"k={kk} outside 0..{n}")
    return ks


def _tail_variance(k: int, n: int) -> float:
    """sum_{j=k+1}^{n} e^{-j n}, a finite geometric series summed in log space."""
    if k >= n:
        return 0.0
    # r = e^{-n}; sum = r^{k+1} (1 - r^{n-k}) / (1 - r)
    log_r = -float(n)
    lead = (k + 1) * log_r
    correction = math.log1p(-math.exp((n - k) * log_r)) if (n - k) * log_r > -700 else 0.0
    log_tail = lead + correction - math.log1p(-math.exp(log_r))
    return math.exp(log_tail) if log_tail > -745.0 else 0.0


def _free_block(n: int, beta: float, ks: list) -> tuple:
    """The shrinkage over j = 1..max(ks) and the signal-free risk at each k of ks.

    The shrinkage is j^{2b+1} / (n + j^{2b+1}), the factor by which the
    posterior mean shrinks y_j.  The signal-free risk at k sums the
    sampling variance n / (n + j^{2b+1})^2 and posterior variance
    1 / (n + j^{2b+1}) over the free block j <= k, then adds the
    near-degenerate tail variances.  The block sums are sequential
    prefix sums, so a k's value does not depend on the other ks.
    """
    length = max(ks, default=0)
    decay = np.arange(1, length + 1, dtype=float)
    # j^(2 beta + 1) is inf once it leaves float range; n / (n + inf) = 0 is then the exact limit
    with np.errstate(over="ignore"):
        np.power(decay, 2.0 * beta + 1.0, out=decay)
    denom = n + decay
    # decay / denom tends to 1 where the decay overflows
    shrink = np.divide(decay, denom, out=np.ones(length), where=np.isfinite(decay))
    variance = np.reciprocal(denom, out=decay)
    with np.errstate(over="ignore"):
        np.square(denom, out=denom)
    variance += np.divide(n, denom, out=denom)
    np.cumsum(variance, out=variance)
    noise = [(float(variance[k - 1]) if k else 0.0) + _tail_variance(k, int(n)) for k in ks]
    return shrink, noise


def exact_risk(signal: SobolevSignal, n: int, beta: float, k: int) -> float:
    """Exact value of E_Y E_Q ||theta - theta*||^2 for the free-k variational posterior.

    That posterior puts N(n y_j / (n + j^{2b+1}), 1 / (n + j^{2b+1})) on
    coordinates j <= k, N(0, e^{-j n}) on k < j <= n, and point masses at
    zero beyond n.  Five non-negative pieces: squared shrinkage bias on the free block,
    the signal tail beyond k, and, from _free_block, the sampling variance
    of the shrunk estimates, the posterior variance of the free block, and
    the near-degenerate tail variances (computed in log space; they
    underflow to zero long before they could matter for n >= 64).
    """
    (k,) = _truncations(n, beta, [k])
    shrink, (noise,) = _free_block(n, beta, [k])
    theta = signal.theta
    kk = min(k, theta.size)
    with np.errstate(over="ignore"):  # a signal term past float range is a NumericError below
        bias_head = float(np.sum(shrink[:kk] ** 2 * theta[:kk] ** 2))
        tail_signal = float(np.sum(theta[k:] ** 2))
    if bias_head + tail_signal == math.inf:
        raise NumericError("the signal's exact risk is beyond float range")
    return bias_head + tail_signal + noise


def _ceil_power(n: int, t: float) -> int:
    # guard against float noise pushing n^t just above an integer
    return int(math.ceil(n**t - 1e-9))


def worst_case_risk(alpha: float, beta: float, n: int, k, B: float = 1.0):
    """Max exact risk over the adversarial signals used for the rate curve.

    Three candidates of length L = max(4 j_eff, k + 2, 8) on the ball
    sum_j j^{2 alpha} theta_j^2 <= B^2 approximate the supremum over it,
    as make_signal builds them: a spike B j0^{-alpha} just past the
    truncation (j0 = k + 1), one at the prior's effective dimension
    j0 = j_eff = n^{1/(2 beta + 1)}, and the near-boundary smooth signal
    theta_j^2 = c^2 j^{-2 alpha - 1.02}, with c^2 = 0.95 B^2 / sum_{j <= L} j^{-1.02}.
    Their exact risks come from one set of prefix sums over j, with no
    signal built.  k is one truncation, giving a float, or a sequence of
    them for this n, giving an array of the risk at each.
    """
    ks = _truncations(n, beta, k)
    if not (alpha > 0 and B > 0):
        raise InputError("alpha and B must be positive")
    shrink, noise = _free_block(n, beta, ks)
    j_eff = _ceil_power(n, 1.0 / (2 * beta + 1))
    floor = max(4 * j_eff, 8)  # the candidates' length L for every k <= floor - 2
    # read before shrink is squared in place below
    eff_shrink = float(shrink[j_eff - 1]) if j_eff <= shrink.size else 1.0
    j = np.arange(1, max(floor, max(ks, default=0) + 2) + 1, dtype=float)
    theta_sq = j ** (-2.0 * alpha - 1.02)  # the boundary signal's theta_j^2 / c^2
    bias = np.square(shrink, out=shrink)
    bias *= theta_sq[: bias.size]
    np.cumsum(bias, out=bias)
    tail = np.cumsum(theta_sq[floor - 1 :: -1])[::-1]  # sum over k < j <= floor, smallest terms first
    weight = np.cumsum(np.power(j, -1.02, out=j), out=j)
    # squares as products below: a Python float ** past float range raises OverflowError
    at_eff = B * j_eff ** (-alpha)
    risks = []
    for kk, kk_noise in zip(ks, noise):
        length = max(floor, kk + 2)
        scale = B * math.sqrt(0.95 / weight[length - 1])
        boundary_tail = tail[kk] if length == floor else theta_sq[kk] + theta_sq[kk + 1]
        boundary = ((float(bias[kk - 1] if kk else 0.0) + float(boundary_tail)) * scale) * scale
        past = B * (kk + 1) ** (-alpha)
        signal = max(boundary, past * past, (eff_shrink**2 if j_eff <= kk else 1.0) * (at_eff * at_eff))
        if signal == math.inf:
            raise NumericError("the signal's exact risk is beyond float range")
        risks.append(signal + kk_noise)
    return np.array(risks) if np.ndim(k) else risks[0]


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
    worst-case exact risk, and regresses log risk on log n.  Each n takes
    one worst_case_risk call for the k of every t, and a k's risk does
    not depend on the others, so a t's row is the same run alone or in
    any grid.  Returns a list of (t, fitted_exponent, theory_exponent)
    triples.
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
    # one call per n for all of its truncations: rows (n) by columns (t)
    risks = np.array(
        [worst_case_risk(alpha, beta, n, [min(_ceil_power(n, t), n) for t in t_arr], B) for n in n_arr]
    )
    out = []
    for t, col in zip(t_arr, risks.T):
        slope = np.polyfit(log_n, np.log(col), 1)[0]
        out.append((t, float(slope), theory_exponent(alpha, beta, t)))
    return out
