"""Exponential-family densities on [0, 1] in a trigonometric basis.

A density is exp(sum_j theta_j h_j(x) - c(theta)) against Lebesgue
measure, where the basis pairs sqrt(2) cos(2 pi l x) with
sqrt(2) sin(2 pi l x); the constant function is index 0 and its
coefficient is fixed to zero, so theta_1, theta_2, ... fully determine
the density.  The normalizer c(theta) and all divergences are evaluated
by panel-doubled Gauss-Legendre quadrature.

The variational route fits a Gaussian mean-field factor per coefficient
by gradient ascent on an ELBO whose only intractable piece, the expected
normalizer, is estimated by reparameterized Monte Carlo with common
random numbers -- given the seed the objective is a deterministic smooth
function, so plain gradients (and finite-difference checks) apply.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import logsumexp

from ._quadrature import integrate, panel_nodes
from .errors import InputError, OptimizationError
from .sequence_model import SievePrior

__all__ = [
    "BASIS_LABEL",
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

BASIS_LABEL = "paired-trig: h_{2l-1} = sqrt2 cos(2 pi l x), h_{2l} = sqrt2 sin(2 pi l x)"

_ELBO_PANELS = 64  # fixed panel count keeps the CRN objective smooth in theta


def basis_matrix(x, k: int) -> np.ndarray:
    """Values of the first k basis functions at the points x, shape (len(x), k)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
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
        return np.exp(basis_matrix(x, theta.size) @ theta)

    return math.log(integrate(integrand, 0.0, 1.0, rel_tol=1e-10))


@dataclass(frozen=True)
class FourierDensity:
    """Coefficients plus the cached normalizer and basis convention."""

    theta: np.ndarray
    basis: str = BASIS_LABEL
    c: float = None

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", t)
        if self.c is None:
            object.__setattr__(self, "c", log_normalizer(t))

    def log_pdf(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any((x < 0) | (x > 1)):
            raise InputError("points must lie in [0, 1]")
        return basis_matrix(x, self.theta.size) @ self.theta - self.c


def _as_density(d) -> FourierDensity:
    return d if isinstance(d, FourierDensity) else FourierDensity(np.asarray(d, dtype=float))


def pdf(theta, x) -> np.ndarray:
    """Density value(s) at x in [0, 1]."""
    return np.exp(_as_density(theta).log_pdf(x))


def sample(theta, m: int, seed: Union[int, np.random.Generator]) -> np.ndarray:
    """m draws by inverse-CDF over a 4096-point grid, deterministic per seed."""
    d = _as_density(theta)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
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
        return np.exp(basis_matrix(x, k) @ mid - shift)

    affinity = integrate(integrand, 0.0, 1.0, rel_tol=1e-10)
    return math.sqrt(min(max(1.0 - affinity, 0.0), 1.0))


def kl_numeric(theta_a, theta_b) -> float:
    """KL(P_a || P_b) by quadrature of the density log-ratio."""
    a, b = _as_density(theta_a), _as_density(theta_b)
    ta, tb, k = _padded(a, b)

    def integrand(x):
        H = basis_matrix(x, k)
        return np.exp(H @ ta - a.c) * (H @ (ta - tb) - (a.c - b.c))

    return max(integrate(integrand, 0.0, 1.0, rel_tol=1e-10, abs_tol=1e-13), 0.0)


def d2_numeric(theta_a, theta_b) -> float:
    """Order-2 Renyi divergence log integral p_a^2 / p_b, by quadrature."""
    a, b = _as_density(theta_a), _as_density(theta_b)
    ta, tb, k = _padded(a, b)

    def integrand(x):
        H = basis_matrix(x, k)
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
        mu = np.asarray(self.mu, dtype=float)
        s2 = np.asarray(self.sigma2, dtype=float)
        if mu.shape != s2.shape or mu.ndim != 1:
            raise InputError("mu and sigma2 must be 1-d arrays of equal length")
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

    step_size: float = 0.2
    n_iters: int = 300
    n_mc: int = 64
    seed: int = 0

    def __post_init__(self):
        if not self.step_size > 0:
            raise InputError("step_size must be positive")
        if self.n_iters < 1 or self.n_mc < 1:
            raise InputError("n_iters and n_mc must be at least 1")


def _crn_draws(q_mu, q_sigma, eps):
    return q_mu[None, :] + q_sigma[None, :] * eps


def _normalizer_stats(draws: np.ndarray):
    """c(theta) and E_theta[h] for a batch of coefficient draws.

    Fixed-panel Gauss-Legendre so the map theta -> c(theta) is smooth and
    deterministic (required by the common-random-number gradient checks).
    """
    S, k = draws.shape
    nodes, wts = panel_nodes(0.0, 1.0, panels=_ELBO_PANELS, order=8)
    H = basis_matrix(nodes, k)  # (nodes, k)
    g = draws @ H.T  # (S, nodes)
    c = logsumexp(g + np.log(wts)[None, :], axis=1)
    dens = np.exp(g - c[:, None]) * wts[None, :]
    moments = dens @ H  # (S, k): E[h_j] under each drawn density
    return c, moments


def _check_elbo_inputs(q: GaussMFVariational, data, prior: SievePrior):
    data = np.asarray(data, dtype=float)
    if data.ndim != 1 or data.size == 0:
        raise InputError("data must be a non-empty 1-d sample")
    if np.any((data < 0) | (data > 1)):
        raise InputError("data must lie in [0, 1]")
    if q.k > prior.K_max:
        raise InputError(f"active length {q.k} exceeds prior K_max {prior.K_max}")
    if not hasattr(prior.coordinate_family, "kl_from_gaussian"):
        raise InputError("ELBO requires a Gaussian coordinate family")
    return data


def elbo(
    q: GaussMFVariational,
    data,
    prior: SievePrior,
    n_mc: int = 64,
    seed: Union[int, np.random.Generator] = 0,
) -> float:
    """Evidence lower bound at fixed active length k = q.k.

    E_Q[sum_i log p_theta(X_i)] - KL(q || prior coordinates 1..k); the
    expected normalizer is a CRN reparameterized Monte Carlo average, all
    other terms are exact.  Point-mass factors (zero variance) have
    infinite KL to the continuous prior coordinates, so the value is -inf.
    """
    data = _check_elbo_inputs(q, data, prior)
    if np.any(q.sigma2 == 0.0):
        return -math.inf
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    eps = rng.standard_normal((n_mc, q.k))
    value, _, _ = _elbo_terms(q.mu, np.sqrt(q.sigma2), eps, data, prior)
    return value


def _elbo_terms(mu, sigma, eps, data, prior):
    k = mu.size
    n = data.size
    fam = prior.coordinate_family
    s0 = fam.sigma0_sq
    Hx = basis_matrix(data, k)
    suff = Hx.sum(axis=0)  # (k,)
    draws = _crn_draws(mu, sigma, eps)
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
    prior: SievePrior,
    n_mc: int = 64,
    seed: Union[int, np.random.Generator] = 0,
):
    """ELBO with its analytic gradient in (mu, log sigma), same CRN draws."""
    data = _check_elbo_inputs(q, data, prior)
    if np.any(q.sigma2 == 0.0):
        raise InputError("gradients need strictly positive variances")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    eps = rng.standard_normal((n_mc, q.k))
    return _elbo_terms(q.mu, np.sqrt(q.sigma2), eps, data, prior)


def fit_gaussian_mf(
    data, prior: SievePrior, k: int, opt_config: OptConfig = OptConfig()
) -> GaussMFVariational:
    """Gradient ascent on the CRN ELBO over (mu, log sigma) at fixed k.

    Steps are scaled per datum; the best-scoring iterate is returned.
    Variances are floored at 1e-12 during the run so the log-variance
    parameterization stays smooth.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    data = np.asarray(data, dtype=float)
    if data.ndim != 1 or data.size == 0:
        raise InputError("data must be a non-empty 1-d sample")
    rng = np.random.default_rng(opt_config.seed)
    eps = rng.standard_normal((opt_config.n_mc, k))
    mu = np.zeros(k)
    log_sigma = np.full(k, -0.5 * math.log(data.size))
    n = data.size
    best_value = -math.inf
    best = (mu.copy(), log_sigma.copy())
    for _ in range(opt_config.n_iters):
        sigma = np.exp(log_sigma)
        value, grad_mu, grad_ls = _elbo_terms(mu, sigma, eps, data, prior)
        if value < -1e12:
            raise OptimizationError("ELBO diverged below -1e12")
        if value > best_value:
            best_value = value
            best = (mu.copy(), log_sigma.copy())
        mu = mu + opt_config.step_size * grad_mu / n
        log_sigma = log_sigma + opt_config.step_size * grad_ls / n
        log_sigma = np.maximum(log_sigma, -13.8)  # sigma^2 floor 1e-12
    mu, log_sigma = best
    return GaussMFVariational(mu=mu, sigma2=np.exp(2.0 * log_sigma))
