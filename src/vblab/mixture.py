"""Location-scale mixture density estimation by conjugate coordinate ascent.

The kernel family exp(-(|x|/sigma)^p) / (2 sigma Gamma(1 + 1/p)) is
Gaussian at p = 2 (variance sigma^2 / 2), which is the only power with
conjugate updates; the coordinate-ascent path is therefore restricted to
p = 2.  The factorization keeps the weight simplex as one block:
q(tau) x q(w) x prod_j q(mu_j) times the assignment responsibilities,
with a shared precision tau = sigma^{-2} across components.

Model selection maximizes the converged bound plus the log prior weight
of the component count (Poisson by default), ties to the smaller k.
"""

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.special import digamma, gammaln, logsumexp

from ._rng import derive_seed
from .errors import InputError, OptimizationError

__all__ = [
    "MixtureModel",
    "MixtureHyper",
    "GMFState",
    "kernel_psi",
    "mixture_pdf",
    "sample_mixture",
    "cavi_fixed_k",
    "select_k",
    "hellinger_to_truth",
    "hellinger_to_truth_mc",
]


def kernel_psi(x, sigma: float, p: int):
    """Normalized kernel density exp(-(|x|/sigma)^p) / (2 sigma Gamma(1+1/p))."""
    if not sigma > 0:
        raise InputError("sigma must be positive")
    if not (isinstance(p, (int, np.integer)) and p > 0 and p % 2 == 0):
        raise InputError("p must be a positive even integer")
    x = np.asarray(x, dtype=float)
    log_norm = math.log(2.0 * sigma) + gammaln(1.0 + 1.0 / p)
    return np.exp(-np.abs(x / sigma) ** p - log_norm)


@dataclass(frozen=True)
class MixtureModel:
    """A k-component location mixture with shared kernel scale."""

    k: int
    mu: np.ndarray
    w: np.ndarray
    sigma: float
    p: int = 2

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if mu.size != self.k or w.size != self.k:
            raise InputError("mu and w must have length k")
        if np.any(w < 0):
            raise InputError("weights must be non-negative")
        total = w.sum()
        if abs(total - 1.0) > 1e-9:
            raise InputError(f"weights sum to {total}, beyond the 1e-9 drift budget")
        if not self.sigma > 0:
            raise InputError("sigma must be positive")
        if not (self.p > 0 and self.p % 2 == 0):
            raise InputError("p must be a positive even integer")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "w", w / total)


def mixture_pdf(model: MixtureModel, x):
    """sum_j w_j psi_sigma(x - mu_j)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return kernel_psi(x[:, None] - model.mu[None, :], model.sigma, model.p) @ model.w


def sample_mixture(
    model: MixtureModel, n: int, seed: Union[int, np.random.Generator]
) -> np.ndarray:
    """n draws; Gaussian kernels only (component variance sigma^2 / 2)."""
    if model.p != 2:
        raise InputError("sampling is implemented for the Gaussian kernel p = 2")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    comps = rng.choice(model.k, size=n, p=model.w)
    return model.mu[comps] + rng.standard_normal(n) * model.sigma / math.sqrt(2.0)


@dataclass(frozen=True)
class MixtureHyper:
    """Conjugate prior settings: mu_j ~ N(0, sigma0_sq), w ~ Dir(alpha0),
    tau = sigma^{-2} ~ Gamma(a0, b0), component count ~ Poisson(xi0)."""

    sigma0_sq: float = 4.0
    alpha0: float = 1.0
    a0: float = 2.0
    b0: float = 1.0
    xi0: float = 2.0

    def __post_init__(self):
        if min(self.sigma0_sq, self.alpha0, self.a0, self.b0, self.xi0) <= 0:
            raise InputError("all hyperparameters must be positive")


@dataclass(frozen=True)
class GMFState:
    """Converged (or best-effort) coordinate-ascent state at fixed k."""

    k: int
    mu_mean: np.ndarray
    mu_var: np.ndarray
    w_concentration: np.ndarray
    tau_shape: float
    tau_rate: float
    responsibilities: np.ndarray
    elbo_trace: tuple
    converged: bool
    hyper: MixtureHyper

    @property
    def elbo(self) -> float:
        return self.elbo_trace[-1]

    @property
    def q_mu(self) -> tuple:
        from .divergences import ScalarGaussian

        return tuple(
            ScalarGaussian(float(m), float(v)) for m, v in zip(self.mu_mean, self.mu_var)
        )

    def posterior_mean_model(self) -> MixtureModel:
        """Plug-in mixture at the factor means."""
        sigma = 1.0 / math.sqrt(self.tau_shape / self.tau_rate)
        w = self.w_concentration / self.w_concentration.sum()
        return MixtureModel(k=self.k, mu=self.mu_mean, w=w, sigma=sigma, p=2)


def _elbo_value(x, r, m, v, alpha, a, b, hyper: MixtureHyper) -> float:
    n, k = r.shape
    e_tau = a / b
    e_logtau = digamma(a) - math.log(b)
    alpha_hat = alpha.sum()
    e_logw = digamma(alpha) - digamma(alpha_hat)
    delta = (x[:, None] - m[None, :]) ** 2 + v[None, :]

    lik = float(np.sum(r * (0.5 * e_logtau - 0.5 * math.log(math.pi) - e_tau * delta)))
    assign = float(np.sum(r * e_logw[None, :]))
    a0 = hyper.alpha0
    p_w = gammaln(k * a0) - k * gammaln(a0) + (a0 - 1.0) * float(e_logw.sum())
    p_mu = float(
        np.sum(-0.5 * math.log(2 * math.pi * hyper.sigma0_sq) - (m**2 + v) / (2 * hyper.sigma0_sq))
    )
    p_tau = (
        hyper.a0 * math.log(hyper.b0)
        - gammaln(hyper.a0)
        + (hyper.a0 - 1.0) * e_logtau
        - hyper.b0 * e_tau
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        h_assign = -float(np.sum(np.where(r > 0, r * np.log(r), 0.0)))
    h_w = float(
        np.sum(gammaln(alpha))
        - gammaln(alpha_hat)
        + (alpha_hat - k) * digamma(alpha_hat)
        - np.sum((alpha - 1.0) * digamma(alpha))
    )
    h_mu = float(np.sum(0.5 * np.log(2 * math.pi * math.e * v)))
    h_tau = a - math.log(b) + gammaln(a) + (1.0 - a) * digamma(a)
    return lik + assign + p_w + p_mu + p_tau + h_assign + h_w + h_mu + h_tau


def _init_centers(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    qs = np.quantile(x, (np.arange(k) + 0.5) / k)
    return qs + 0.01 * x.std() * rng.standard_normal(k)


def cavi_fixed_k(
    data,
    k: int,
    hyper: MixtureHyper = MixtureHyper(),
    seed: Union[int, np.random.Generator] = 0,
    tol: float = 1e-8,
    max_sweeps: int = 1000,
) -> GMFState:
    """Conjugate coordinate ascent at a fixed component count.

    Each sweep cycles responsibilities -> q(w) -> q(mu) -> q(tau); the
    bound is evaluated after the full cycle and is non-increasing only up
    to float roundoff (a decrease beyond 1e-9 would indicate a bug, and
    the tests enforce that).
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InputError("data must be a non-empty 1-d sample")
    if k < 1:
        raise InputError("k must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = x.size

    m = _init_centers(x, k, rng)
    v = np.full(k, x.var() / max(k, 1) + 1e-6)
    alpha = np.full(k, hyper.alpha0)
    a, b = hyper.a0, hyper.b0

    trace = []
    converged = False
    for _ in range(max_sweeps):
        e_tau = a / b
        e_logtau = digamma(a) - math.log(b)
        e_logw = digamma(alpha) - digamma(alpha.sum())
        delta = (x[:, None] - m[None, :]) ** 2 + v[None, :]
        log_r = e_logw[None, :] + 0.5 * e_logtau - 0.5 * math.log(math.pi) - e_tau * delta
        log_r -= logsumexp(log_r, axis=1, keepdims=True)
        r = np.exp(log_r)

        counts = r.sum(axis=0)
        alpha = hyper.alpha0 + counts
        prec = 1.0 / hyper.sigma0_sq + 2.0 * e_tau * counts
        v = 1.0 / prec
        m = 2.0 * e_tau * (r * x[:, None]).sum(axis=0) * v
        a = hyper.a0 + 0.5 * n
        b = hyper.b0 + float(np.sum(r * ((x[:, None] - m[None, :]) ** 2 + v[None, :])))

        trace.append(_elbo_value(x, r, m, v, alpha, a, b, hyper))
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-1])):
            converged = True
            break
    return GMFState(
        k=k,
        mu_mean=m,
        mu_var=v,
        w_concentration=alpha,
        tau_shape=float(a),
        tau_rate=float(b),
        responsibilities=r,
        elbo_trace=tuple(trace),
        converged=converged,
        hyper=hyper,
    )


def select_k(
    data,
    k_candidates: Sequence[int],
    hyper: MixtureHyper = MixtureHyper(),
    seed: int = 0,
) -> tuple[int, GMFState]:
    """Best component count by converged bound plus log Poisson(k; xi0).

    Candidates are scanned in increasing order with strict improvement
    required, so ties resolve to the smaller k.
    """
    cands = sorted(set(int(k) for k in k_candidates))
    if not cands:
        raise InputError("need at least one candidate k")
    if cands[0] < 1:
        raise InputError(f"candidate k must be at least 1, got {cands[0]}")
    best = None
    failures = []
    for k in cands:
        try:
            state = cavi_fixed_k(data, k, hyper, seed=derive_seed(seed, k))
        except (InputError, OptimizationError) as exc:
            failures.append((k, exc))
            continue
        penalty = k * math.log(hyper.xi0) - hyper.xi0 - gammaln(k + 1.0)
        score = state.elbo + penalty
        if best is None or score > best[0]:
            best = (score, k, state)
    if best is None:
        raise OptimizationError(f"all candidate fits failed: {failures}")
    return best[1], best[2]


def _check_grid_density(f0: np.ndarray, grid: np.ndarray) -> None:
    total = float(np.trapezoid(f0, grid))
    if abs(total - 1.0) > 1e-3:
        raise InputError(f"f0 integrates to {total} on this grid; refine or widen it")


def hellinger_to_truth(state: GMFState, f0, grid) -> float:
    """Squared Hellinger distance between the plug-in mixture and f0 on a grid."""
    grid = np.asarray(grid, dtype=float)
    f0 = np.asarray(f0, dtype=float)
    if f0.shape != grid.shape:
        raise InputError("f0 must be tabulated on the grid")
    _check_grid_density(f0, grid)
    fit = mixture_pdf(state.posterior_mean_model(), grid)
    return 0.5 * float(np.trapezoid((np.sqrt(fit) - np.sqrt(f0)) ** 2, grid))


def hellinger_to_truth_mc(
    state: GMFState, f0, grid, draws: int = 32, seed: Union[int, np.random.Generator] = 0
) -> float:
    """Average squared Hellinger distance over draws from the fitted factors."""
    grid = np.asarray(grid, dtype=float)
    f0 = np.asarray(f0, dtype=float)
    _check_grid_density(f0, grid)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    total = 0.0
    for _ in range(draws):
        mu = state.mu_mean + np.sqrt(state.mu_var) * rng.standard_normal(state.k)
        w = rng.dirichlet(state.w_concentration)
        tau = rng.gamma(state.tau_shape, 1.0 / state.tau_rate)
        model = MixtureModel(k=state.k, mu=mu, w=w, sigma=1.0 / math.sqrt(tau), p=2)
        dens = mixture_pdf(model, grid)
        total += 0.5 * float(np.trapezoid((np.sqrt(dens) - np.sqrt(f0)) ** 2, grid))
    return total / draws
