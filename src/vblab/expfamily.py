"""Exponential-family densities on [0, 1] in a trigonometric basis.

A density is exp(sum_j theta_j h_j(x) - c(theta)) against Lebesgue
measure, where the basis pairs sqrt(2) cos(2 pi l x) with
sqrt(2) sin(2 pi l x); the constant function is index 0 and its
coefficient is fixed to zero, so theta_1, theta_2, ... fully determine
the density.  KL(a || b) = (theta_a - theta_b) . E_a[h] - c_a + c_b and
D_2(a || b) = c(2 theta_a - theta_b) - 2 c_a + c_b are functions of
normalizers alone (Wainwright & Jordan 2008, section 3); H^2, which 1 minus
their affinity would lose at small distances, is a sum of non-negative terms
on one rule (hellinger_numeric).  Each c and E[h] is a sum over one
fixed N-point trapezoidal rule, the nodes i / N each of weight 1 / N:
exp(theta . h) is 1-periodic and entire, so the rule converges
geometrically (Trefethen & Weideman, SIAM Rev. 2014).  N is the fewest,
at most 32768, whose strip bound _rule_error meets 1e-12 at the
||theta||_1 at hand; past 32768 nodes NumericError names ||theta||_1.

The variational route fits a Gaussian mean-field factor per coefficient
at a fixed active length k, against N(0, sigma0_sq) prior coordinates;
the sieve prior's weight on k is then a constant, so only sigma0_sq
enters.  The ELBO's one intractable piece, the expected normalizer, is
estimated by reparameterized Monte Carlo with common random numbers --
given the seed the objective is a deterministic smooth function, so
plain gradients (and finite-difference checks) apply.  elbo, its
gradient and the fit share one input check and one draw of those numbers.

c(theta) and E_theta[h] inside the ELBO come from one such rule per
active length k: the fewest nodes, at most 512, whose bound stays below
_ELBO_TARGET = 1e-12 at every draw with ||theta||_1 at most
_ELBO_CAP = 2.5 (41 nodes at k = 3).  There |theta . h| <= sqrt(2) 2.5
< 3.6, so the rule exponentiates its draws without a max shift.  Every
step checks its draws against the cap; a fit whose draws ever cross it
runs on the shifted 512-node rule from its first step, so no trajectory
changes rule midway.  fit_gaussian_mf_batch ascends a list of samples,
of any lengths, together, each row with its own data, n, CRN normals,
best iterate and divergence check; fit_gaussian_mf is its one-row case.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from ._lse import _shifted_exp
from .errors import InputError, NumericError, count, data_array

__all__ = [
    "basis_matrix",
    "log_normalizer",
    "FourierDensity",
    "pdf",
    "sample",
    "hellinger_numeric",
    "kl_numeric",
    "d2_numeric",
    "GaussMFVariational",
    "OptConfig",
    "elbo",
    "elbo_and_gradient",
    "fit_gaussian_mf",
    "fit_gaussian_mf_batch",
]

# The ELBO rule: the trapezoidal rule of as few nodes (at most
# _ELBO_MAX_NODES) as keep the bound on the error of c(theta) and
# E_theta[h] below _ELBO_TARGET for every ||theta||_1 <= _ELBO_CAP.  The
# shipped fits' draws stay below 2.2; rows that cross the cap, and active
# lengths no smaller rule covers, use _ELBO_MAX_NODES.
_ELBO_MAX_NODES = 512
_ELBO_CAP = 2.5
_ELBO_TARGET = 1e-12
# c(theta) and the divergences take a rule sized for their ||theta||_1, of at most this many nodes.
_EXACT_MAX_NODES = 32768
# 2 pi L a on the grid of strip half-widths a that _rule_error minimizes over.
_STRIP = np.geomspace(1e-3, 40.0, 800)
# A stacked fit holds at most this many (row, draw, node) cells at a time.
_FIT_CELLS = 1 << 17


def basis_matrix(x, k: int) -> np.ndarray:
    """Values of the first k basis functions at the points x, shape (len(x), k)."""
    return _basis(data_array(x, "x", scalar=True), k)


def _basis(x: np.ndarray, k: int) -> np.ndarray:
    """basis_matrix at 1-d points the caller has already checked (nodes, checked data)."""
    out = np.empty((x.size, k))
    for j in range(1, k + 1):
        l = (j + 1) // 2
        if j % 2 == 1:
            out[:, j - 1] = math.sqrt(2.0) * np.cos(2 * math.pi * l * x)
        else:
            out[:, j - 1] = math.sqrt(2.0) * np.sin(2 * math.pi * l * x)
    return out


def log_normalizer(theta) -> float:
    """c(theta) = log integral_0^1 exp(sum_j theta_j h_j(x)) dx; exactly 0.0 for zero or no coefficients."""
    return FourierDensity(theta).c


def _exact_stats(theta: np.ndarray):
    """c(theta) and E_theta[h] for one checked coefficient vector, on the rule sized for its ||theta||_1."""
    if not theta.any():  # the uniform density
        return 0.0, np.zeros(theta.size)
    c, moments = _normalizer_stats(theta, _sized_nodes(theta))
    return float(c), moments


def _sized_nodes(theta: np.ndarray) -> int:
    """Nodes of the rule for c(theta) at theta's ||theta||_1; NumericError past _EXACT_MAX_NODES."""
    with np.errstate(over="ignore"):  # a norm past float range needs too many nodes anyway
        norm = float(np.abs(theta).sum())
    nodes = 2.0 * norm < math.inf and _exact_nodes(theta.size, max(_ELBO_CAP, math.ceil(2.0 * norm) / 2.0))
    if not nodes:
        raise NumericError(f"||theta||_1 = {norm:g} needs more than {_EXACT_MAX_NODES} quadrature nodes")
    return nodes


@dataclass(frozen=True)
class FourierDensity:
    """Coefficients, a finite 1-d array (possibly empty), plus their cached normalizer c(theta)."""

    theta: np.ndarray
    c: float = field(init=False)

    def __post_init__(self):
        t = data_array(self.theta, "coefficients", empty=True)
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "c", _exact_stats(t)[0])

    def log_pdf(self, x) -> np.ndarray:
        x = data_array(x, "points", scalar=True)
        if np.any((x < 0) | (x > 1)):
            raise InputError("points must lie in [0, 1]")
        return _basis(x, self.theta.size) @ self.theta - self.c


def _as_density(d) -> FourierDensity:
    return d if isinstance(d, FourierDensity) else FourierDensity(d)


def pdf(theta, x) -> np.ndarray:
    """Density value(s) at x in [0, 1]."""
    return np.exp(_as_density(theta).log_pdf(x))


def sample(theta, m: int, seed: Union[int, np.random.Generator]) -> np.ndarray:
    """m draws by inverse-CDF over a 4096-point grid, deterministic per seed."""
    m = count(m, "m")
    d = _as_density(theta)
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, 4096)
    dens = np.exp(d.log_pdf(xs))
    cdf = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(xs))))
    cdf /= cdf[-1]
    return np.interp(rng.random(m), cdf, xs)


def _pair(theta_a, theta_b):
    """Both densities' coefficients, zero-padded to one length, and their normalizers c_a and c_b."""
    a, b = _as_density(theta_a), _as_density(theta_b)
    k = max(a.theta.size, b.theta.size)
    return np.pad(a.theta, (0, k - a.theta.size)), np.pad(b.theta, (0, k - b.theta.size)), a.c, b.c


def hellinger_numeric(theta_a, theta_b) -> float:
    """Hellinger distance between two basis densities, on one rule, from their coefficient difference.

    On the rule sized for the larger ||theta||_1, with w = log(p_b / p_a) =
    (theta_b - theta_a) . h - (c_b - c_a), c_b - c_a corrected there by
    log E_a[e^w], H^2 = E_a[expm1(w / 2)^2] / 2: its terms are non-negative,
    so nothing cancels at small H^2, and each is written over max(p_a, p_b)
    as e^max(w, 0) times a factor below one, so none overflows.
    """
    ta, tb, c_a, c_b = _pair(theta_a, theta_b)
    if np.array_equal(ta, tb):  # two empty vectors too, which no rule is sized for
        return 0.0
    nodes = max(_sized_nodes(ta), _sized_nodes(tb))
    H = _elbo_rule(ta.size, nodes)
    log_pa = H @ ta - float(_normalizer_stats(ta, nodes)[0])

    def over_max(w, factor):  # E_a[e^max(w, 0) factor]: each term's density is max(p_a, p_b)
        return float(np.mean(np.exp(log_pa + np.maximum(w, 0.0)) * factor))

    w = H @ (tb - ta) - (c_b - c_a)
    w -= math.log1p(over_max(w, -np.sign(w) * np.expm1(-np.abs(w))))  # log E_a[e^w] = log1p(E_a[expm1(w)])
    return math.sqrt(min(0.5 * over_max(w, np.expm1(-0.5 * np.abs(w)) ** 2), 1.0))


def kl_numeric(theta_a, theta_b) -> float:
    """KL(P_a || P_b) = (theta_a - theta_b) . E_a[h] - c_a + c_b."""
    ta, tb, c_a, c_b = _pair(theta_a, theta_b)
    return max(float((ta - tb) @ _exact_stats(ta)[1]) - c_a + c_b, 0.0)


def d2_numeric(theta_a, theta_b) -> float:
    """Order-2 Renyi divergence log integral p_a^2 / p_b = c(2 theta_a - theta_b) - 2 c_a + c_b."""
    ta, tb, c_a, c_b = _pair(theta_a, theta_b)
    return max(_exact_stats(2.0 * ta - tb)[0] - 2.0 * c_a + c_b, 0.0)


# ---------------------------------------------------------------------------
# Gaussian mean-field ELBO
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussMFVariational:
    """Independent N(mu_j, sigma2_j) factors per coefficient; 0 variance = point mass."""

    mu: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        mu, s2 = data_array(self.mu, "mu"), data_array(self.sigma2, "sigma2")
        if mu.shape != s2.shape:
            raise InputError("mu and sigma2 must have equal length")
        if np.any(s2 < 0):
            raise InputError("variances must be non-negative")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma2", s2)

    @property
    def k(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class OptConfig:
    """Gradient-ascent settings for fit_gaussian_mf."""

    step_size: float = 0.25
    n_iters: int = 250
    n_mc: int = 64
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.step_size < math.inf:
            raise InputError("step_size must be positive and finite")
        _positive_count(self.n_iters, "n_iters")
        _positive_count(self.n_mc, "n_mc")
        count(self.seed, "seed")


def _positive_count(value, name: str) -> int:
    """value read through errors.count, which must also be at least 1."""
    value = count(value, name)
    if value < 1:
        raise InputError(f"{name} must be at least 1")
    return value


def _rule_error(nodes: int, L: int, cap: float) -> float:
    """Bound on the error of c(theta) and of each E_theta[h_j] on the trapezoidal rule of N = nodes nodes.

    It holds for every theta with ||theta||_1 <= cap (_ELBO_CAP for the
    ELBO, the rounded-up ||theta||_1 at hand for _exact_stats) whose
    frequencies are at most L.  f = exp(theta . h) is 1-periodic and
    entire.  On the strip |Im x| <= a, Re(theta . h) is at most
    max_x theta . h(x) + sqrt(2) cap (cosh(2 pi L a) - 1), since
    Re cos(u + iv) = cos(u) cosh(v), and likewise for sin.  With |f| <= M
    there, the N-node rule is off by at most 2 M / (exp(2 pi a N) - 1)
    (Trefethen & Weideman, SIAM Rev. 2014, Thm 3.2, on a period of 1).
    The integral Z of f is at least 1 (Jensen: each h_j integrates to 0),
    and at least exp(max theta . h) times the integral of exp(-K y^2 / 2)
    over |y| <= 1/2, where K = sqrt(2) cap (2 pi L)^2 bounds the
    curvature of the 1-periodic theta . h.  That bounds the relative
    error A of Z, and so the error of c = log Z by A / (1 - A).
    E_theta[h_j] = N_j / Z is off by the rule's error on (h_j - E h_j) f
    divided by the rule's Z, at most sqrt(2) (1 + cosh(2 pi L a)) A / (1 - A),
    which covers both.  The bound returned is its minimum over a fixed
    grid of a, so it falls as nodes grows.
    """
    K = math.sqrt(2.0) * cap * (2.0 * math.pi * L) ** 2  # inf for a cap near float range
    log_peak = 0.5 * (math.log(2.0 * math.pi) - math.log(K)) + math.log(math.erf(math.sqrt(K / 8.0)))
    log_lead = math.log(2.0) + min(-log_peak, math.sqrt(2.0) * cap)
    ch = np.cosh(_STRIP)
    decay = _STRIP * (nodes / L)  # 2 pi a N
    # log(exp(t) - 1) is taken as t + log(-expm1(-t)), which cannot overflow.  Where A >= 1 the
    # bound is void: log1p(-1) = -inf, as where a cap near float range overflows the strip term
    with np.errstate(over="ignore", divide="ignore"):
        log_a = log_lead + math.sqrt(2.0) * cap * (ch - 1.0) - decay - np.log(-np.expm1(-decay))
        log_err = np.log(math.sqrt(2.0) * (1.0 + ch)) + log_a - np.log1p(-np.exp(np.minimum(log_a, 0.0)))
    lowest = float(log_err.min())
    return math.exp(lowest) if lowest < 700.0 else math.inf


@lru_cache(maxsize=None)
def _exact_nodes(k: int, cap: float) -> Optional[int]:
    """Nodes of the rule for c(theta) and E_theta[h] at active length k and ||theta||_1 <= cap.

    The fewest whose _rule_error at L = ceil(k / 2) meets _ELBO_TARGET,
    found by doubling and then bisection; None when _EXACT_MAX_NODES do not.
    """
    L = (k + 1) // 2

    def meets(nodes):
        return _rule_error(nodes, L, cap) <= _ELBO_TARGET

    hi = 1
    while not meets(hi):
        if hi == _EXACT_MAX_NODES:
            return None
        hi *= 2
    lo = hi // 2  # misses the target, or is 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if meets(mid) else (mid, hi)
    return hi


def _elbo_nodes(k: int) -> int:
    """Nodes of the ELBO rule at active length k: _exact_nodes at _ELBO_CAP, or 512 where that needs more."""
    return min(_exact_nodes(k, _ELBO_CAP) or _ELBO_MAX_NODES, _ELBO_MAX_NODES)


@lru_cache(maxsize=64)
def _elbo_rule(k: int, nodes: int) -> np.ndarray:
    """Read-only basis values (nodes, k) at the nodes i / nodes of a trapezoidal rule.

    nodes is _elbo_nodes(k) for a fit whose draws stay within the cap,
    _ELBO_MAX_NODES for one whose draws cross it, and _exact_nodes for
    the normalizer and divergences; that one can be any count up to 32768,
    so only the rules used last are kept.
    """
    H = _basis(np.arange(nodes) / nodes, k)
    H.flags.writeable = False
    return H


def _normalizer_stats(draws: np.ndarray, nodes: int, capped: bool = False):
    """c(theta) and E_theta[h] for (..., k) coefficient draws, on the rule of nodes nodes.

    A fit keeps one rule for its whole run, so the map theta -> c(theta)
    it ascends is smooth and deterministic (required by the
    common-random-number gradient checks).  At draws with ||theta||_1 <=
    _ELBO_CAP the _elbo_nodes(k) rule is within _ELBO_TARGET of the exact
    values; a fit's draws past the cap are evaluated on the 512-node rule
    only, and _exact_stats sizes its rule for the theta it is given.
    capped says every draw is within the cap, so that |theta . h| < 3.6
    and exp(theta . h) needs no shift by its maximum.  The weights 1 / nodes
    cancel from E_theta[h] and enter c as the mean of the node values,
    whose log rounds at the scale of c rather than of log(nodes).
    """
    k = draws.shape[-1]
    H = _elbo_rule(k, nodes)  # (nodes, k)
    g = draws.reshape(-1, k) @ H.T  # (draws, nodes)
    if capped:
        top, f = 0.0, np.exp(g, out=g)
    else:
        top, f = _shifted_exp(g, axis=1, out=g)  # f = exp(g - top), in g's buffer
        top = top[:, 0]
    total = f.sum(axis=1)
    c = np.log(total / nodes) + top
    moments = f @ H
    moments /= total[:, None]
    return c.reshape(draws.shape[:-1]), moments.reshape(draws.shape)


def _crossed(draws: np.ndarray) -> np.ndarray:
    """Per row of (rows, S, k) draws: whether any draw has ||theta||_1 above _ELBO_CAP."""
    return np.abs(draws).sum(axis=2).max(axis=1) > _ELBO_CAP


def _elbo_inputs(data, sigma0_sq: float, k: int, n_mc: int, seed):
    """The checked sample's sum_i h(X_i) and size n, and the (n_mc, k) CRN normals."""
    data = data_array(data, "data")
    if np.any((data < 0) | (data > 1)):
        raise InputError("data must lie in [0, 1]")
    if not 0.0 < sigma0_sq < math.inf:
        raise InputError("sigma0_sq must be positive and finite")
    n_mc = _positive_count(n_mc, "n_mc")
    if not isinstance(seed, np.random.Generator):
        seed = count(seed, "seed")
    eps = np.random.default_rng(seed).standard_normal((n_mc, k))
    return _basis(data, k).sum(axis=0), data.size, eps


def elbo(
    q: GaussMFVariational,
    data,
    sigma0_sq: float,
    n_mc: int = 64,
    seed: Union[int, np.random.Generator] = 0,
) -> float:
    """Evidence lower bound at fixed active length k = q.k.

    E_Q[sum_i log p_theta(X_i)] - KL(q || N(0, sigma0_sq)^k); the
    expected normalizer is a CRN reparameterized Monte Carlo average, all
    other terms are exact.  Point-mass factors (zero variance) have
    infinite KL to the continuous prior coordinates, so the value is -inf.
    """
    if np.any(q.sigma2 == 0.0):
        _elbo_inputs(data, sigma0_sq, q.k, n_mc, seed)  # -inf only for valid inputs
        return -math.inf
    return elbo_and_gradient(q, data, sigma0_sq, n_mc, seed)[0]


def _elbo_terms(draws, mu, sigma, eps, suff, n, s0, nodes):
    """ELBO values and gradients for rows of (rows, k) factors and (rows, S, k) draws.

    suff holds each row's sum_i h(X_i), the (k,) sufficient statistic of its
    n data points, where n is one size for every row or a (rows,) array of
    sizes; draws = mu + sigma eps.  A rule below _ELBO_MAX_NODES only ever
    sees draws within the cap.
    """
    c, moments = _normalizer_stats(draws, nodes, capped=nodes < _ELBO_MAX_NODES)
    mean_c = c.mean(axis=1)
    mean_moment = moments.mean(axis=1)
    n = np.reshape(n, (-1, 1))
    kl = 0.5 * np.sum((sigma**2 + mu**2) / s0 - 1.0 - np.log(sigma**2 / s0), axis=1)
    value = np.vecdot(mu, suff) - n[:, 0] * mean_c - kl
    grad_mu = suff - n * mean_moment - mu / s0
    # d/d log sigma: through theta = mu + sigma eps and through the KL term
    grad_ls = -n * (moments * eps).mean(axis=1) * sigma - (sigma**2 / s0 - 1.0)
    return value, grad_mu, grad_ls


def elbo_and_gradient(
    q: GaussMFVariational,
    data,
    sigma0_sq: float,
    n_mc: int = 64,
    seed: Union[int, np.random.Generator] = 0,
):
    """ELBO with its analytic gradient in (mu, log sigma), same CRN draws."""
    suff, n, eps = _elbo_inputs(data, sigma0_sq, q.k, n_mc, seed)
    if np.any(q.sigma2 == 0.0):
        raise InputError("gradients need strictly positive variances")
    mu, sigma, eps = q.mu[None, :], np.sqrt(q.sigma2)[None, :], eps[None]
    draws = mu[:, None, :] + sigma[:, None, :] * eps
    nodes = _ELBO_MAX_NODES if _crossed(draws)[0] else _elbo_nodes(q.k)
    value, grad_mu, grad_ls = _elbo_terms(draws, mu, sigma, eps, suff[None, :], n, sigma0_sq, nodes)
    return float(value[0]), grad_mu[0], grad_ls[0]


def fit_gaussian_mf(
    data, sigma0_sq: float, k: int, opt_config: OptConfig = OptConfig()
) -> GaussMFVariational:
    """Gradient ascent on the CRN ELBO over (mu, log sigma) at fixed k.

    The prior is N(0, sigma0_sq) on each of the k coefficients.  Steps are
    scaled per datum; the best-scoring iterate is returned.  Variances are
    floored at 1e-12 during the run so the log-variance parameterization
    stays smooth.  The one-row case of fit_gaussian_mf_batch, with the CRN
    normals drawn from opt_config.seed.
    """
    x = data_array(data, "data")[None, :]
    return fit_gaussian_mf_batch(x, sigma0_sq, k, opt_config, [opt_config.seed])[0]


def fit_gaussian_mf_batch(
    samples, sigma0_sq: float, k: int, opt_config: OptConfig, seeds, labels=None
) -> list:
    """fit_gaussian_mf for each of a list of samples, of any lengths, in one stacked ascent.

    Row r is samples[r], of its own size n_r (an (R, n) array gives its R
    rows).  It draws its (n_mc, k) CRN normals from seeds[r] (opt_config.seed
    is not read), starts at log sigma = -log(n_r) / 2, steps by its gradient
    over n_r and keeps its own best iterate, so the result is
    [fit_gaussian_mf(samples[r], sigma0_sq, k, opt_config with seeds[r])].
    Rows ascend on the _elbo_nodes(k) rule in groups of at most _FIT_CELLS
    cells; a row leaves its group at the first step whose draws cross
    _ELBO_CAP and is run again from its first step, with the other such
    rows, on the 512-node rule.  A row whose ELBO is not finite or falls
    below -1e12 raises NumericError named by labels[r], "rep=r" by default.
    """
    if not isinstance(samples, (list, tuple)):
        samples = data_array(samples, "samples", 2)
    k = _positive_count(k, "k")
    if len(samples) == 0:
        raise InputError("need at least one sample")
    labels = [f"rep={r}" for r in range(len(samples))] if labels is None else labels
    if not len(seeds) == len(labels) == len(samples):
        raise InputError(
            f"need one seed and label per sample, got {len(seeds)} and {len(labels)} for {len(samples)}"
        )
    n_mc = opt_config.n_mc
    inputs = [_elbo_inputs(row, sigma0_sq, k, n_mc, seed) for row, seed in zip(samples, seeds)]
    suff = np.stack([row_suff for row_suff, _, _ in inputs])
    n = np.array([row_n for _, row_n, _ in inputs])
    eps = np.stack([row_eps for _, _, row_eps in inputs])
    mu, log_sigma = np.empty_like(suff), np.empty_like(suff)
    rows = np.arange(len(samples))
    for nodes in (_elbo_nodes(k), _ELBO_MAX_NODES):
        per_group = max(1, _FIT_CELLS // (n_mc * nodes))
        crossed = []
        for lo in range(0, rows.size, per_group):
            group = rows[lo : lo + per_group]
            done, mu[group], log_sigma[group] = _ascend(
                suff[group], n[group], eps[group], sigma0_sq, opt_config, nodes, [labels[r] for r in group]
            )
            crossed.extend(group[~done])
        rows = np.asarray(crossed, dtype=int)
        if rows.size == 0:
            break
    return [GaussMFVariational(mu=m, sigma2=np.exp(2.0 * ls)) for m, ls in zip(mu, log_sigma)]


def _ascend(suff, n, eps, s0, opt_config: OptConfig, nodes: int, labels):
    """Gradient ascent for one group of rows, of sizes n, on one rule.

    Returns which rows finished, with every row's best (mu, log sigma);
    on a rule below _ELBO_MAX_NODES a row whose draws cross the cap stops
    there, unfinished.  labels name the rows in errors.  Overflow and nan
    are not warned about: an ELBO they reach is not finite, and raises.
    """
    rows, k = suff.shape
    mu = np.zeros((rows, k))
    log_sigma = np.array([[-0.5 * math.log(row_n)] * k for row_n in n])
    best_value = np.full(rows, -math.inf)
    best_mu, best_ls = mu.copy(), log_sigma.copy()
    live = np.arange(rows)  # the rows still ascending
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(opt_config.n_iters):
            sigma = np.exp(log_sigma)
            draws = mu[:, None, :] + sigma[:, None, :] * eps
            if nodes < _ELBO_MAX_NODES:
                keep = ~_crossed(draws)
                if not keep.all():
                    live, mu, log_sigma, sigma = live[keep], mu[keep], log_sigma[keep], sigma[keep]
                    draws, eps, suff, n = draws[keep], eps[keep], suff[keep], n[keep]
                    if live.size == 0:
                        break
            value, grad_mu, grad_ls = _elbo_terms(draws, mu, sigma, eps, suff, n, s0, nodes)
            bad = ~(value >= -1e12)  # nan included
            if bad.any():
                row = np.argmax(bad)
                why = "diverged below -1e12" if value[row] < -1e12 else "is not finite"
                raise NumericError(f"{labels[live[row]]}: ELBO {why}")
            up = value > best_value[live]
            best_value[live[up]] = value[up]
            best_mu[live[up]] = mu[up]
            best_ls[live[up]] = log_sigma[up]
            mu = mu + opt_config.step_size * grad_mu / n[:, None]
            log_sigma = log_sigma + opt_config.step_size * grad_ls / n[:, None]
            log_sigma = np.maximum(log_sigma, -13.8)  # sigma^2 floor 1e-12
    done = np.zeros(rows, dtype=bool)
    done[live] = True
    return done, best_mu, best_ls
