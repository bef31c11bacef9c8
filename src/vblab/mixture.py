"""Location-scale mixture density estimation by conjugate coordinate ascent.

The kernel family exp(-(|x|/sigma)^p) / (2 sigma Gamma(1 + 1/p)) is
Gaussian at p = 2 (variance sigma^2 / 2), which is the only power with
conjugate updates; the coordinate-ascent path is therefore restricted to
p = 2.  The factorization keeps the weight simplex as one block:
q(tau) x q(w) x prod_j q(mu_j) times the assignment responsibilities,
with a shared precision tau = sigma^{-2} across components.

Model selection maximizes the converged bound plus the log prior weight
of the component count (Poisson by default), ties to the smaller k.

There is one coordinate ascent, _cavi_rows, and it fits a stack of rows
at once: each row is one (sample, k) pair at a common n, padded to the
stack's largest k.  Padded components get log-weight -inf, so their
responsibilities are exactly 0, and they are masked out of every term of
the bound.  The -E[tau] x^2 term of the log-responsibilities is the same
for every component and cancels in the normalization, so they are affine
in x, and one log-sum-exp over the stack gives the responsibilities and
the per-point normalizers; the assignment entropy follows from those
without a log(r) pass.  The conjugate updates and the rest of the bound
need only the per-component sufficient statistics N = sum r, sum r x and
sum r x^2 (Blei, Kucukelbir & McAuliffe 2017, sec. 3; Bishop 2006,
sec. 10.2), taken about each sample's mean so that they do not cancel
when the data sit far from 0.  A row leaves the stack at the sweep where
its own bound stops moving, and the stack is cut into groups of at most
_CAVI_CELLS (row, component, point) cells, so neither a row's result nor
the memory depends on how many rows are fit together.  select_k_batch
fits every candidate k of every sample this way; cavi_fixed_k and
select_k are its one-row and one-sample cases.
"""

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.special import digamma, gammaln

from ._lse import _logsumexp_weights
from ._rng import derive_seed
from .errors import InputError

__all__ = [
    "MixtureModel",
    "MixtureHyper",
    "GMFState",
    "kernel_psi",
    "mixture_pdf",
    "sample_mixture",
    "cavi_fixed_k",
    "select_k",
    "select_k_batch",
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
    rng = np.random.default_rng(seed)
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


# The batched fit holds at most this many (row, component, point) cells in
# one stack, so its memory grows with neither replications nor candidates.
_CAVI_CELLS = 1 << 17
# A fit stops once its bound moves by at most _TOL relative (absolute below
# 1), or after _MAX_SWEEPS sweeps.
_TOL = 1e-8
_MAX_SWEEPS = 1000


def _init_centers(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    qs = np.quantile(x, (np.arange(k) + 0.5) / k)
    return qs + 0.01 * x.std() * rng.standard_normal(k)


def _finite_sample(data, ndim: int) -> np.ndarray:
    """data as a non-empty float array with ndim axes and finite entries."""
    x = np.asarray(data, dtype=float)
    if x.ndim != ndim or x.size == 0 or not np.all(np.isfinite(x)):
        shape = "1-d sample" if ndim == 1 else "(R, n) stack of samples"
        raise InputError(f"data must be a non-empty finite {shape}")
    return x


def _cavi_rows(samples, rows, hyper: MixtureHyper, tol: float, max_sweeps: int, k_max: int):
    """Coordinate ascent for a sequence of rows; yields one GMFState per row, in order.

    Row (i, k, seed) fits samples[i] with k components, its centers
    initialized from seed (a Generator or a seed for one).  The rows go
    through the sweep in groups of at most _CAVI_CELLS cells, each padded to
    k_max components, and only one group is held at a time.  A row leaves
    its group at the sweep where its own bound stops moving (or at
    max_sweeps), so its trace, flag and state do not depend on the rows it
    was grouped with.
    """
    if max_sweeps < 1:
        raise InputError("max_sweeps must be at least 1")
    n = samples.shape[1]
    per_group = max(1, _CAVI_CELLS // (n * k_max))
    for lo in range(0, len(rows), per_group):
        group = rows[lo : lo + per_group]
        x = samples[[i for i, _, _ in group]]
        k = np.array([k for _, k, _ in group])
        m, v = np.zeros((len(group), k_max)), np.ones((len(group), k_max))
        for row, (_, kr, seed) in enumerate(group):
            rng = np.random.default_rng(seed)
            m[row, :kr] = _init_centers(x[row], kr, rng)
            v[row, :kr] = x[row].var() / kr + 1e-6
        yield from _cavi_group(x, k, m, v, hyper, tol, max_sweeps)


def _cavi_group(x, k, m, v, hyper: MixtureHyper, tol: float, max_sweeps: int):
    """Run one (rows, k_max, n) stack to the end; GMFStates in row order.

    Each sweep cycles responsibilities -> q(w) -> q(mu) -> q(tau) and
    evaluates the bound after the full cycle.  With y = x - c, c the row's
    sample mean, the log-responsibilities are A_k + B_k y, and with N,
    S1 = sum r y and S2 = sum r y^2 the assignment entropy is
    sum_j logsumexp_j - sum_k (A_k N_k + B_k S1_k), with no log(r) pass.
    Taking the moments about c rather than 0 keeps sum r (x - m)^2 from
    cancelling when the data sit far from 0; what cancellation is left
    grows with the squared ratio of the sample's range to a component's
    spread.  Padded components keep finite placeholder factors and zero
    statistics; the live mask drops them from the bound.
    """
    rows, n = x.shape
    k_max = m.shape[1]
    ids = np.arange(rows)
    live = (np.arange(k_max) < k[:, None]).astype(float)
    pad = np.where(live > 0, 0.0, -np.inf)
    # y = x - c, and m holds the centers less c
    c = x.mean(axis=1, keepdims=True)
    y = x - c
    m = m - c
    moments = np.stack([np.ones_like(y), y, y * y], axis=2)  # (rows, n, 3)
    a0, b0, alpha0, s0 = hyper.a0, hyper.b0, hyper.alpha0, hyper.sigma0_sq
    # q(tau) has shape a0 + n / 2 after the first cycle, whatever the data
    a = a0 + 0.5 * n
    dg_a = digamma(a)
    # the terms of the bound that are fixed per row: the normalizers of the
    # priors on w (Dir(alpha0) on the row's k components) and tau, and the
    # parts of the entropy of q(tau) that do not involve its rate
    fixed = (
        gammaln(k * alpha0) - k * gammaln(alpha0)
        + a0 * math.log(b0) - gammaln(a0)
        + a + gammaln(a) + (1.0 - a) * dg_a
    )
    log_mu0 = -0.5 * math.log(2 * math.pi * s0)

    alpha = np.full((rows, k_max), alpha0)
    e_tau = np.full((rows, 1), a0 / b0)
    e_logw = digamma(alpha) - digamma((alpha * live).sum(axis=1))[:, None]
    traces = [[] for _ in range(rows)]
    out = [None] * rows
    for sweep in range(max_sweeps):
        A = e_logw - e_tau * (m * m + v)
        B = 2.0 * e_tau * m
        lse, r = _logsumexp_weights((A + pad)[:, :, None] + B[:, :, None] * y[:, None, :], axis=1)
        stats = r @ moments
        N, S1, S2 = stats[..., 0], stats[..., 1], stats[..., 2]
        h_assign = lse.sum(axis=1) - (A * N + B * S1).sum(axis=1)

        alpha = alpha0 + N
        v = 1.0 / (1.0 / s0 + 2.0 * e_tau * N)
        mu = 2.0 * e_tau * (S1 + c * N) * v  # sum r x = S1 + c N
        m = mu - c
        rdelta = (S2 - 2.0 * m * S1 + (m * m + v) * N).sum(axis=1)  # sum r ((x - mu)^2 + v)
        b = b0 + rdelta

        # the expectations under the new factors, which the next sweep reuses
        log_b = np.log(b)
        e_tau = (a / b)[:, None]
        e_logtau = dg_a - log_b
        alpha_hat = (alpha * live).sum(axis=1)
        dg_alpha, dg_hat = digamma(alpha), digamma(alpha_hat)
        e_logw = dg_alpha - dg_hat[:, None]

        # per component: E log p(z, w) + E log p(mu) + H[q(w)] + H[q(mu)] terms
        per_k = (
            (N + alpha0 - 1.0) * e_logw
            + log_mu0 - (mu * mu + v) / (2 * s0)
            + gammaln(alpha) - (alpha - 1.0) * dg_alpha
            + 0.5 * np.log(2 * math.pi * math.e * v)
        )
        t = e_tau[:, 0]
        elbo = (
            fixed
            + (per_k * live).sum(axis=1)
            + n * (0.5 * e_logtau - 0.5 * math.log(math.pi)) - t * rdelta  # E log p(x | z, mu, tau)
            + (a0 - 1.0) * e_logtau - b0 * t  # E log p(tau)
            - gammaln(alpha_hat) + (alpha_hat - k) * dg_hat  # H[q(w)]
            - log_b  # H[q(tau)]
            + h_assign
        )

        if sweep:
            stop = np.abs(elbo - last) <= tol * np.maximum(1.0, np.abs(elbo))
        else:
            stop = np.zeros(ids.size, dtype=bool)
        last = elbo
        for i, value in zip(ids, elbo.tolist()):
            traces[i].append(value)
        done = stop | (sweep + 1 == max_sweeps)
        for j in np.flatnonzero(done):
            kj, i = int(k[j]), ids[j]
            out[i] = GMFState(
                k=kj,
                mu_mean=mu[j, :kj].copy(),
                mu_var=v[j, :kj].copy(),
                w_concentration=alpha[j, :kj].copy(),
                tau_shape=float(a),
                tau_rate=float(b[j]),
                responsibilities=np.ascontiguousarray(r[j, :kj].T),
                elbo_trace=tuple(traces[i]),
                converged=bool(stop[j]),
                hyper=hyper,
            )
        if done.all():
            break
        if done.any():
            keep = ~done
            ids, k, live, pad, c, y, moments = (
                ids[keep], k[keep], live[keep], pad[keep], c[keep], y[keep], moments[keep]
            )
            m, v, alpha, e_tau, e_logw, fixed, last = (
                m[keep], v[keep], alpha[keep], e_tau[keep], e_logw[keep], fixed[keep], last[keep]
            )
    return out


def cavi_fixed_k(
    data,
    k: int,
    hyper: MixtureHyper = MixtureHyper(),
    seed: Union[int, np.random.Generator] = 0,
    tol: float = _TOL,
    max_sweeps: int = _MAX_SWEEPS,
) -> GMFState:
    """Conjugate coordinate ascent at a fixed component count.

    Each sweep cycles responsibilities -> q(w) -> q(mu) -> q(tau); the
    bound is evaluated after the full cycle and is non-increasing only up
    to float roundoff (a decrease beyond 1e-9 would indicate a bug, and
    the tests enforce that).  This is the one-row case of the batched fit.
    """
    x = _finite_sample(data, 1)[None, :]
    if k < 1:
        raise InputError("k must be at least 1")
    k = int(k)
    return next(_cavi_rows(x, [(0, k, seed)], hyper, tol, max_sweeps, k))


def select_k_batch(
    samples,
    k_candidates: Sequence[int],
    hyper: MixtureHyper,
    seeds: Sequence[int],
) -> list:
    """select_k for each row of an (R, n) stack of samples, in one batched fit.

    Row r is fit at every candidate k from derive_seed(seeds[r], k); the
    result is [(k, state)] in row order, equal to select_k(samples[r],
    k_candidates, hyper, seeds[r]) for each r.
    """
    x = _finite_sample(samples, 2)
    cands = sorted(set(int(k) for k in k_candidates))
    if not cands:
        raise InputError("need at least one candidate k")
    if cands[0] < 1:
        raise InputError(f"candidate k must be at least 1, got {cands[0]}")
    if len(seeds) != x.shape[0]:
        raise InputError(f"need one seed per sample, got {len(seeds)} for {x.shape[0]}")
    rows = [(rep, k, derive_seed(seed, k)) for rep, seed in enumerate(seeds) for k in cands]
    states = _cavi_rows(x, rows, hyper, _TOL, _MAX_SWEEPS, cands[-1])
    out = []
    for _ in seeds:  # each sample's candidates come out together, in increasing k
        best = None
        for k in cands:
            state = next(states)
            score = state.elbo + k * math.log(hyper.xi0) - hyper.xi0 - gammaln(k + 1.0)
            if best is None or score > best[0]:
                best = (score, k, state)
        out.append(best[1:])
    return out


def select_k(
    data,
    k_candidates: Sequence[int],
    hyper: MixtureHyper = MixtureHyper(),
    seed: int = 0,
) -> tuple[int, GMFState]:
    """Best component count by converged bound plus log Poisson(k; xi0).

    Candidates are scanned in increasing order with strict improvement
    required, so ties resolve to the smaller k.  The one-sample case of
    select_k_batch.
    """
    return select_k_batch(_finite_sample(data, 1)[None, :], k_candidates, hyper, [seed])[0]


def _check_grid_density(f0: np.ndarray, grid: np.ndarray) -> None:
    if f0.shape != grid.shape:
        raise InputError("f0 must be tabulated on the grid")
    total = float(np.trapezoid(f0, grid))
    if abs(total - 1.0) > 1e-3:
        raise InputError(f"f0 integrates to {total} on this grid; refine or widen it")


def hellinger_to_truth(state: GMFState, f0, grid) -> float:
    """Squared Hellinger distance between the plug-in mixture and f0 on a grid."""
    grid = np.asarray(grid, dtype=float)
    f0 = np.asarray(f0, dtype=float)
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
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(draws):
        mu = state.mu_mean + np.sqrt(state.mu_var) * rng.standard_normal(state.k)
        w = rng.dirichlet(state.w_concentration)
        tau = rng.gamma(state.tau_shape, 1.0 / state.tau_rate)
        model = MixtureModel(k=state.k, mu=mu, w=w, sigma=1.0 / math.sqrt(tau), p=2)
        dens = mixture_pdf(model, grid)
        total += 0.5 * float(np.trapezoid((np.sqrt(dens) - np.sqrt(f0)) ** 2, grid))
    return total / draws
