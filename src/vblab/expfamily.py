"""Exponential-family densities on [0, 1] in a trigonometric basis.

A density is exp(sum_j theta_j h_j(x) - c(theta)) against Lebesgue
measure, where the basis pairs sqrt(2) cos(2 pi l x) with
sqrt(2) sin(2 pi l x); the constant function is index 0 and its
coefficient is fixed to zero, so theta_1, theta_2, ... fully determine
the density.  The normalizer c(theta) and all divergences are evaluated
by panel-doubled Gauss-Legendre quadrature.

The variational route fits a Gaussian mean-field factor per coefficient
at a fixed active length k, against N(0, sigma0_sq) prior coordinates;
the sieve prior's weight on k is then a constant, so only sigma0_sq
enters.  The ELBO's one intractable piece, the expected normalizer, is
estimated by reparameterized Monte Carlo with common random numbers --
given the seed the objective is a deterministic smooth function, so
plain gradients (and finite-difference checks) apply.  elbo, its
gradient and the fit share one input check and one draw of those numbers.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

import numpy as np

from ._lse import _logsumexp_weights
from ._quadrature import fixed_rule, integrate
from .errors import InputError, NumericError, data_array

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
]

_ELBO_PANELS = 64  # fixed panel count keeps the CRN objective smooth in theta


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
    """c(theta) = log integral_0^1 exp(sum_j theta_j h_j(x)) dx."""
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise InputError("coefficients must be finite")
    if theta.size == 0:
        return 0.0

    def integrand(x):
        return np.exp(_basis(x, theta.size) @ theta)

    return math.log(integrate(integrand, 0.0, 1.0, rel_tol=1e-10))


@dataclass(frozen=True)
class FourierDensity:
    """Coefficients plus their cached normalizer c(theta)."""

    theta: np.ndarray
    c: float = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "c", log_normalizer(t))

    def log_pdf(self, x) -> np.ndarray:
        x = data_array(x, "points", scalar=True)
        if np.any((x < 0) | (x > 1)):
            raise InputError("points must lie in [0, 1]")
        return _basis(x, self.theta.size) @ self.theta - self.c


def _as_density(d) -> FourierDensity:
    return d if isinstance(d, FourierDensity) else FourierDensity(np.asarray(d, dtype=float))


def pdf(theta, x) -> np.ndarray:
    """Density value(s) at x in [0, 1]."""
    return np.exp(_as_density(theta).log_pdf(x))


def sample(theta, m: int, seed: Union[int, np.random.Generator]) -> np.ndarray:
    """m draws by inverse-CDF over a 4096-point grid, deterministic per seed."""
    d = _as_density(theta)
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, 4096)
    dens = np.exp(d.log_pdf(xs))
    cdf = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(xs))))
    cdf /= cdf[-1]
    return np.interp(rng.random(m), cdf, xs)


def _padded(a: FourierDensity, b: FourierDensity):
    k = max(a.theta.size, b.theta.size)
    ta = np.zeros(k)
    tb = np.zeros(k)
    ta[: a.theta.size] = a.theta
    tb[: b.theta.size] = b.theta
    return ta, tb, k


def hellinger_numeric(theta_a, theta_b) -> float:
    """Hellinger distance between two basis densities, by quadrature."""
    a, b = _as_density(theta_a), _as_density(theta_b)
    ta, tb, k = _padded(a, b)
    mid = 0.5 * (ta + tb)
    shift = 0.5 * (a.c + b.c)

    def integrand(x):
        return np.exp(_basis(x, k) @ mid - shift)

    affinity = integrate(integrand, 0.0, 1.0, rel_tol=1e-10)
    return math.sqrt(min(max(1.0 - affinity, 0.0), 1.0))


def kl_numeric(theta_a, theta_b) -> float:
    """KL(P_a || P_b) by quadrature of the density log-ratio."""
    a, b = _as_density(theta_a), _as_density(theta_b)
    ta, tb, k = _padded(a, b)

    def integrand(x):
        H = _basis(x, k)
        return np.exp(H @ ta - a.c) * (H @ (ta - tb) - (a.c - b.c))

    return max(integrate(integrand, 0.0, 1.0, rel_tol=1e-10, abs_tol=1e-13), 0.0)


def d2_numeric(theta_a, theta_b) -> float:
    """Order-2 Renyi divergence log integral p_a^2 / p_b, by quadrature."""
    a, b = _as_density(theta_a), _as_density(theta_b)
    ta, tb, k = _padded(a, b)

    def integrand(x):
        H = _basis(x, k)
        return np.exp(2.0 * (H @ ta - a.c) - (H @ tb - b.c))

    return max(math.log(integrate(integrand, 0.0, 1.0, rel_tol=1e-10)), 0.0)


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
        if not self.step_size > 0:
            raise InputError("step_size must be positive")
        if self.n_iters < 1 or self.n_mc < 1:
            raise InputError("n_iters and n_mc must be at least 1")


@lru_cache(maxsize=None)
def _elbo_rule(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only basis values (nodes, k), weights and log weights of the ELBO rule."""
    nodes, wts, log_wts = fixed_rule(0.0, 1.0, _ELBO_PANELS, order=8)
    H = _basis(nodes, k)
    H.flags.writeable = False
    return H, wts, log_wts


def _normalizer_stats(draws: np.ndarray):
    """c(theta) and E_theta[h] for a batch of coefficient draws.

    Fixed-panel Gauss-Legendre so the map theta -> c(theta) is smooth and
    deterministic (required by the common-random-number gradient checks).
    """
    H, _, log_wts = _elbo_rule(draws.shape[1])  # H: (nodes, k)
    g = draws @ H.T  # (S, nodes)
    g += log_wts
    c, dens = _logsumexp_weights(g, axis=1, out=g)  # dens: quadrature masses, in g's buffer
    moments = dens @ H  # (S, k): E[h_j] under each drawn density
    return c, moments


def _elbo_inputs(data, sigma0_sq: float, k: int, n_mc: int, seed):
    """The checked sample's sum_i h(X_i) and size n, and the (n_mc, k) CRN normals."""
    data = data_array(data, "data")
    if np.any((data < 0) | (data > 1)):
        raise InputError("data must lie in [0, 1]")
    if not sigma0_sq > 0:
        raise InputError("sigma0_sq must be positive")
    if n_mc < 1:
        raise InputError("n_mc must be at least 1")
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


def _elbo_terms(mu, sigma, eps, suff, n, s0):
    # suff = sum_i h(X_i), the (k,) sufficient statistic of the n data points
    draws = mu[None, :] + sigma[None, :] * eps
    c, moments = _normalizer_stats(draws)
    mean_c = float(c.mean())
    mean_moment = moments.mean(axis=0)
    kl = 0.5 * np.sum((sigma**2 + mu**2) / s0 - 1.0 - np.log(sigma**2 / s0))
    value = float(mu @ suff - n * mean_c - kl)
    grad_mu = suff - n * mean_moment - mu / s0
    # d/d log sigma: through theta = mu + sigma eps and through the KL term
    grad_ls = -n * (moments * eps).mean(axis=0) * sigma - (sigma**2 / s0 - 1.0)
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
    return _elbo_terms(q.mu, np.sqrt(q.sigma2), eps, suff, n, sigma0_sq)


def fit_gaussian_mf(
    data, sigma0_sq: float, k: int, opt_config: OptConfig = OptConfig()
) -> GaussMFVariational:
    """Gradient ascent on the CRN ELBO over (mu, log sigma) at fixed k.

    The prior is N(0, sigma0_sq) on each of the k coefficients.  Steps are
    scaled per datum; the best-scoring iterate is returned.  Variances are
    floored at 1e-12 during the run so the log-variance parameterization
    stays smooth.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    suff, n, eps = _elbo_inputs(data, sigma0_sq, k, opt_config.n_mc, opt_config.seed)
    mu = np.zeros(k)
    log_sigma = np.full(k, -0.5 * math.log(n))
    best_value = -math.inf
    best = (mu.copy(), log_sigma.copy())
    for _ in range(opt_config.n_iters):
        sigma = np.exp(log_sigma)
        value, grad_mu, grad_ls = _elbo_terms(mu, sigma, eps, suff, n, sigma0_sq)
        if value < -1e12:
            raise NumericError("ELBO diverged below -1e12")
        if value > best_value:
            best_value = value
            best = (mu.copy(), log_sigma.copy())
        mu = mu + opt_config.step_size * grad_mu / n
        log_sigma = log_sigma + opt_config.step_size * grad_ls / n
        log_sigma = np.maximum(log_sigma, -13.8)  # sigma^2 floor 1e-12
    mu, log_sigma = best
    return GaussMFVariational(mu=mu, sigma2=np.exp(2.0 * log_sigma))
