"""Piecewise-constant signal model X_i = theta_i + sigma Z_i.

Two variational routes are implemented against two prior variants,
the per-site change prior and the uniform-positions prior; under both,
every piece draws its value from one value density:

* product (coordinatewise) posteriors, which ignore the dependence
  between neighbouring sites and therefore keep a risk proportional to
  the sample size -- the cautionary baseline;
* first-order Markov chains over a value grid.  Under the per-site
  change prior the discretized posterior itself is a grid chain, so
  forward-backward recovers it exactly and the variational gap is zero.
  Under the uniform-positions prior the pattern weight is a function of
  the total change count, which no chain factorizes; coordinate ascent
  alternates an exact chain solve against a tangent bound of that count
  term, monotonically decreasing an upper-bound free energy.

Both chain kernels are a diagonal plus a rank-one term: (1-p) + p g_b on
the diagonal and p g_b off it for the per-site prior, 1 and e^lambda g_b
for the tangent sweep.  One scaled linear-space smoother (_smooth) runs
forward-backward on that structure in O(nG) time and memory, as in the
change-point recursions of Fearnhead (2006), over a batch of datasets at
once; grid_posterior and fit_markov_vb are its single-dataset case and
markov_chain_risks its batched one.  GridChain keeps the O(nG) output
and derives marginals, pairwise tables and samples from it on demand.

A dynamic-programming least-squares segmenter is included as the
frequentist baseline.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np
from scipy.special import gammaln, ndtr

from ._lse import _logsumexp
from .errors import InputError, NumericError

__all__ = [
    "UniformDensity",
    "GaussianDensity",
    "PiecewiseSignal",
    "MarkovSitePrior",
    "UniformPositionsPrior",
    "GridChain",
    "CoordinatewisePosterior",
    "make_grid",
    "make_piecewise_signal",
    "make_prefix_signal",
    "snap_to_grid",
    "fit_mean_field",
    "grid_posterior",
    "fit_markov_vb",
    "risk",
    "mle_segmentation",
    "markov_chain_risks",
    "change_count_distribution",
]


# ---------------------------------------------------------------------------
# value densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformDensity:
    """Uniform value density on [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise InputError("need hi > lo")

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        out = np.full(x.shape, -np.inf)
        out[inside] = -math.log(self.hi - self.lo)
        return out


@dataclass(frozen=True)
class GaussianDensity:
    """Gaussian value density, for priors without compact support."""

    mean: float
    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise InputError("variance must be positive")

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5 * ((x - self.mean) ** 2 / self.variance) - 0.5 * math.log(
            2 * math.pi * self.variance
        )


ValueDensity = Union[UniformDensity, GaussianDensity]


# ---------------------------------------------------------------------------
# signals and priors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseSignal:
    """A length-n signal with exactly k_star constant pieces, sup-norm <= B."""

    values: np.ndarray
    k_star: int
    B: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise InputError("values must be a non-empty 1-d sequence")
        object.__setattr__(self, "values", v)
        pieces = 1 + int(np.sum(v[1:] != v[:-1]))
        if pieces != self.k_star:
            raise InputError(f"signal has {pieces} pieces, declared k_star={self.k_star}")
        if np.max(np.abs(v)) > self.B + 1e-12:
            raise InputError("signal exceeds the sup-norm bound B")


def make_piecewise_signal(
    n: int, k_star: int, B: float, amplitude: float = 0.75
) -> PiecewiseSignal:
    """Equal-length segments alternating between +/- amplitude * B.

    Equal jumps keep every change point in the same detection regime, so
    replicated risks measure change-point localization rather than a mix
    of detected and smeared jumps.
    """
    if not 1 <= k_star <= n:
        raise InputError("need 1 <= k_star <= n")
    if not 0 < amplitude <= 1:
        raise InputError("amplitude must lie in (0, 1]")
    if k_star == 1:
        levels = np.array([amplitude * B])
    else:
        levels = amplitude * B * (-1.0) ** np.arange(k_star)
    edges = np.linspace(0, n, k_star + 1).astype(int)
    values = np.empty(n)
    for seg in range(k_star):
        values[edges[seg] : edges[seg + 1]] = levels[seg]
    return PiecewiseSignal(values=values, k_star=k_star, B=B)


def make_prefix_signal(
    n: int, k_star: int, B: float, seg_len: int = 20, amplitude: float = 0.9
) -> PiecewiseSignal:
    """k_star - 1 change points in a fixed-length prefix, constant tail.

    Holding the segment lengths fixed while n grows keeps every risk
    component except the change-count penalty n-independent, which is
    what a risk / (k_star log n) flatness check needs; the amplitude is
    chosen near the detection boundary of the smallest n so the penalty
    term stays active across the whole range.
    """
    if not 1 <= k_star <= n:
        raise InputError("need 1 <= k_star <= n")
    if seg_len < 1:
        raise InputError("seg_len must be at least 1")
    if k_star > 1 and (k_star - 1) * seg_len >= n:
        raise InputError("prefix segments do not fit")
    values = np.zeros(n)
    level = amplitude
    for seg in range(k_star - 1):
        values[seg * seg_len : (seg + 1) * seg_len] = level
        level = -level
    values[(k_star - 1) * seg_len :] = level
    return PiecewiseSignal(values=values, k_star=k_star, B=B)


def snap_to_grid(signal: PiecewiseSignal, grid: np.ndarray) -> PiecewiseSignal:
    """Replace each level by its nearest grid point.

    Used by the rate experiments so that grid quantization (an O(1/G^2)
    floor per site) does not contaminate the contraction measurement.
    """
    idx = np.argmin(np.abs(signal.values[:, None] - grid[None, :]), axis=1)
    snapped = grid[idx]
    pieces = 1 + int(np.sum(snapped[1:] != snapped[:-1]))
    return PiecewiseSignal(values=snapped, k_star=pieces, B=float(max(signal.B, np.max(np.abs(snapped)))))


@dataclass(frozen=True)
class MarkovSitePrior:
    """Each site after the first changes value with probability p.

    On a change the new value is drawn from the value density; otherwise
    the previous value is copied.  The induced prior over signals is a
    first-order Markov chain, so the exact grid posterior is one too.
    """

    change_prob: float
    value_density: ValueDensity

    def __post_init__(self):
        if not 0.0 < self.change_prob < 1.0:
            raise InputError("change_prob must lie in (0, 1)")


@dataclass(frozen=True)
class UniformPositionsPrior:
    """k pieces with uniformly placed boundaries, each valued from one density.

    log_dimension_weights[k-1] is log pi(k) for k = 1..n pieces; given k,
    the k-1 change positions are uniform over the n-1 interior sites, and
    every piece draws its value independently from value_density.
    """

    n: int
    log_dimension_weights: np.ndarray
    value_density: ValueDensity

    def __post_init__(self):
        lw = np.asarray(self.log_dimension_weights, dtype=float)
        if lw.size != self.n:
            raise InputError("need one dimension weight per piece count 1..n")
        lw = lw - _logsumexp(lw)
        object.__setattr__(self, "log_dimension_weights", lw)

    @classmethod
    def power(cls, n: int, density: ValueDensity, base: Optional[float] = None):
        """pi(k) proportional to base^{-k} (base defaults to n)."""
        b = float(n if base is None else base)
        if b <= 1:
            raise InputError("base must exceed 1")
        lw = -np.arange(1, n + 1, dtype=float) * math.log(b)
        return cls(n=n, log_dimension_weights=lw, value_density=density)

    def pattern_weight(self) -> np.ndarray:
        """w(c) = log pi(c+1) - log C(n-1, c) for c = 0..n-1 change sites.

        The tangent-bound sweep in fit_markov_vb requires this to be
        convex in c; log-concave pi (geometric, power, Poisson) all
        qualify.
        """
        c = np.arange(self.n, dtype=float)
        m = self.n - 1.0
        log_binom = gammaln(m + 1.0) - gammaln(c + 1.0) - gammaln(m - c + 1.0)
        w = self.log_dimension_weights - log_binom
        if self.n >= 3:
            second = w[2:] - 2 * w[1:-1] + w[:-2]
            if np.min(second) < -1e-9:
                raise InputError("pattern weight is not convex in the change count")
        return w


ChangePointPrior = Union[MarkovSitePrior, UniformPositionsPrior]


def make_grid(B: float, sigma: float, G: int = 64) -> np.ndarray:
    """Uniform value grid covering the prior support plus likelihood spread."""
    if G < 16:
        raise InputError("need at least 16 grid points")
    half = B + 1.0 + 4.0 * sigma
    return np.linspace(-half, half, G)


# ---------------------------------------------------------------------------
# coordinatewise (product) posterior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoordinatewisePosterior:
    """Means and variances of the tilted densities q_i(t) ~ g(t) exp(-(t - X_i)^2 / 2 sigma^2).

    kind records how they were computed: "truncated_gaussian" in closed
    form when g is uniform, "grid" by quadrature on a value grid otherwise.
    """

    means: np.ndarray
    variances: np.ndarray
    kind: str

    def __len__(self) -> int:
        return self.means.size


def _truncnorm_moments(x: np.ndarray, sigma: float, lo: float, hi: float):
    a = (lo - x) / sigma
    b = (hi - x) / sigma
    phi_a = np.exp(-0.5 * a * a) / math.sqrt(2 * math.pi)
    phi_b = np.exp(-0.5 * b * b) / math.sqrt(2 * math.pi)
    z = np.maximum(ndtr(b) - ndtr(a), 1e-300)
    shift = (phi_a - phi_b) / z
    mean = x + sigma * shift
    var = sigma**2 * (1.0 + (a * phi_a - b * phi_b) / z - shift**2)
    return mean, np.maximum(var, 0.0)


def fit_mean_field(
    X: np.ndarray,
    sigma: float,
    prior: ChangePointPrior,
    grid: Optional[np.ndarray] = None,
) -> CoordinatewisePosterior:
    """Product-measure variational optimum.

    Any product candidate with finite divergence to the posterior must
    put zero mass on neighbour-equality events, so the optimum tilts each
    site's value density by its own likelihood and nothing else.
    """
    X = np.asarray(X, dtype=float)
    if not sigma > 0:
        raise InputError("sigma must be positive")
    if not isinstance(prior, (MarkovSitePrior, UniformPositionsPrior)):
        raise InputError(f"unsupported prior type {type(prior).__name__}")
    if isinstance(prior, UniformPositionsPrior) and prior.n != X.size:
        raise InputError(f"prior was built for n={prior.n}, data has n={X.size}")
    g = prior.value_density
    if isinstance(g, UniformDensity):
        mean, var = _truncnorm_moments(X, sigma, g.lo, g.hi)
        return CoordinatewisePosterior(means=mean, variances=var, kind="truncated_gaussian")
    if grid is None:
        raise InputError("non-uniform value densities need an explicit grid")
    logw = g.log_pdf(grid) - 0.5 * ((grid[None, :] - X[:, None]) / sigma) ** 2
    logw = logw - _logsumexp(logw, axis=1, keepdims=True)
    probs = np.exp(logw)
    means = probs @ grid
    variances = probs @ grid**2 - means**2
    return CoordinatewisePosterior(means=means, variances=variances, kind="grid")


# ---------------------------------------------------------------------------
# grid Markov chains
# ---------------------------------------------------------------------------


_TINY = np.finfo(float).tiny


def _step_factors(stay: np.ndarray, move: np.ndarray, weights: np.ndarray):
    """Weighted kernel factors of one chain step and their row sums.

    Row a of the step carries stay[b] * weights[b] on its diagonal and
    move[b] * weights[b] everywhere else; every term is non-negative, and
    a floating-point sum of non-negatives is no smaller than any of its
    terms, so the row sums never go negative through cancellation.
    """
    st = stay * weights
    mv = move * weights
    return st, mv, st + (mv.sum(axis=-1, keepdims=True) - mv)


def _dense_transitions(stay: np.ndarray, move: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-normalized G x G matrices of the steps given by (..., G) factors."""
    st, mv, norm = _step_factors(stay, move, weights)
    G = st.shape[-1]
    T = np.repeat(mv[..., None, :], G, axis=-2)
    T[..., np.arange(G), np.arange(G)] = st
    return T / norm[..., :, None]


@dataclass(frozen=True)
class GridChain:
    """A first-order Markov chain over a fixed value grid, in O(nG) storage.

    Step i -> i+1 moves from value a to value b with probability
    proportional to K_i(a, b) * weights[i, b], where the kernel K_i is
    stay[i, b] on the diagonal and move[i, b] off it (a diagonal plus
    rank-one kernel; stay and move may be given as one row for all
    steps).  Under the per-site change prior the kernel is (1-p) + p g_b
    on the diagonal and p g_b off it; the tangent sweep of fit_markov_vb
    uses 1 on the diagonal and e^lambda g_b off it.  The weights are the
    backward weights of the smoother: the emission at site i+1 times its
    backward message.  Marginals, pairwise tables, change counts and
    samples are derived on demand in O(G) per step; the dense
    log_transitions tensor is built only when asked for.
    """

    grid: np.ndarray
    log_initial: np.ndarray
    stay: np.ndarray
    move: np.ndarray
    weights: np.ndarray  # (n-1, G)
    converged: bool = True
    objective_trace: tuple = ()

    def __post_init__(self):
        G = self.grid.size
        if self.log_initial.shape != (G,):
            raise InputError("initial distribution does not match the grid")
        if self.weights.ndim != 2 or self.weights.shape[1] != G:
            raise InputError("weights must be one row of G values per step")
        try:
            for name in ("stay", "move"):
                object.__setattr__(
                    self, name, np.broadcast_to(getattr(self, name), self.weights.shape)
                )
        except ValueError:
            raise InputError("kernel factors do not match the weights") from None

    @property
    def n_sites(self) -> int:
        return self.weights.shape[0] + 1

    @property
    def initial(self) -> np.ndarray:
        return np.exp(self.log_initial)

    @property
    def transitions(self) -> np.ndarray:
        """Dense (n-1, G, G) row-normalized transition matrices."""
        return _dense_transitions(self.stay, self.move, self.weights)

    @property
    def log_transitions(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.transitions)

    def _forward(self):
        """Yield each later site's marginal and the part of it that arrived by a change."""
        st, mv, norm = _step_factors(self.stay, self.move, self.weights)
        np.maximum(norm, _TINY, out=norm)  # a row with zero sum is unreachable
        m = self.initial
        for i in range(self.n_sites - 1):
            u = m / norm[i]
            moved = mv[i] * (u.sum() - u)
            m = st[i] * u + moved
            yield m, moved

    def marginals(self) -> np.ndarray:
        """Site marginals by forward propagation of the transitions."""
        out = np.empty((self.n_sites, self.grid.size))
        out[0] = self.initial
        for i, (m, _) in enumerate(self._forward(), start=1):
            out[i] = m
        return out

    def pairwise(self, i: int) -> np.ndarray:
        """Joint distribution of (site i, site i+1), 0-based."""
        T = _dense_transitions(self.stay[i], self.move[i], self.weights[i])
        return self.marginals()[i][:, None] * T

    def expected_change_count(self) -> float:
        return float(sum(moved.sum() for _, moved in self._forward()))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        G = self.grid.size
        out = np.empty((size, self.n_sites))
        init = self.initial
        states = rng.choice(G, size=size, p=init / init.sum())
        out[:, 0] = self.grid[states]
        rows = np.arange(size)
        for i in range(self.n_sites - 1):
            st, mv, _ = _step_factors(self.stay[i], self.move[i], self.weights[i])
            cum = np.tile(mv, (size, 1))
            cum[rows, states] = st[states]
            np.cumsum(cum, axis=1, out=cum)
            u = rng.random(size) * cum[:, -1]
            states = (u[:, None] > cum).sum(axis=1)
            out[:, i + 1] = self.grid[states]
        return out


def _smooth(
    log_first: np.ndarray,
    log_emis: np.ndarray,
    stay: np.ndarray,
    move: np.ndarray,
    site_loss: Optional[np.ndarray] = None,
):
    """Scaled backward pass for a batch of diagonal-plus-rank-one chains.

    The unnormalized chain is
        exp(log_first[x_0] + log_emis[x_0]) * prod_i K_i(x_i, x_{i+1}) exp(log_emis[x_{i+1}])
    with K_i equal to stay[i, b] on the diagonal and move[i, b] off it
    (both broadcastable to (n-1, G)); log_emis is (n, R, G), site-major so
    that each step reads contiguous rows, and is overwritten.  Each
    emission row is shifted to a maximum of one and each backward message
    rescaled to sum one, so the pass runs in linear space at O(G) per
    site with log Z accumulated from the scales.

    With site_loss (n, G), a second backward message carries the expected
    loss still to come given the current value, so the same pass also
    returns E sum_i site_loss[i, x_i] without any forward pass.

    Returns (first-site marginals (R, G), backward weights (n-1, R, G),
    log Z (R,), expected loss (R,) or None); the weights with stay and
    move define each GridChain.
    """
    n, R, G = log_emis.shape
    stay = np.broadcast_to(stay, (n - 1, G))
    move = np.broadcast_to(move, (n - 1, G))
    shift = log_emis.max(axis=2, keepdims=True)
    log_emis -= shift
    emis = np.exp(log_emis, out=log_emis)
    scales = np.empty((n, R, 1))
    beta = np.ones((R, G))
    to_come = None if site_loss is None else np.zeros((R, G))
    for i in range(n - 2, -1, -1):
        w = emis[i + 1]
        w *= beta  # the emission slot now holds the backward weight of step i
        st, mv, beta = _step_factors(stay[i], move[i], w)
        if to_come is not None:
            # the kernel applied to w * loss, with w already folded into st and mv
            _, _, to_come = _step_factors(st, mv, site_loss[i + 1] + to_come)
            to_come /= np.maximum(beta, _TINY)  # a zero row sum means an unreachable value
        beta /= beta.sum(axis=1, keepdims=True, out=scales[i + 1])
    first = np.exp(log_first) * emis[0] * beta
    first /= first.sum(axis=1, keepdims=True, out=scales[0])
    log_z = (shift + np.log(scales)).sum(axis=0)[:, 0]
    if not np.all(np.isfinite(log_z)):
        raise NumericError("chain smoother underflowed: the data are impossible under the prior")
    loss = None if to_come is None else np.einsum("rg,rg->r", first, site_loss[0] + to_come)
    return first, emis[1:], log_z, loss


def _log_emissions(X: np.ndarray, sigma: float, grid: np.ndarray) -> np.ndarray:
    """-(t - X)^2 / 2 sigma^2 on the grid, (n, R, G) for a batch X of shape (R, n)."""
    out = grid - X.T[:, :, None]
    out /= sigma
    np.square(out, out=out)
    out *= -0.5
    return out


def _grid_pmf(density: ValueDensity, grid: np.ndarray) -> np.ndarray:
    lp = density.log_pdf(grid)
    total = _logsumexp(lp)
    if not np.isfinite(total):
        raise InputError("the value density puts no mass on the grid")
    return lp - total


def _site_kernel(prior: MarkovSitePrior, grid: np.ndarray):
    """log g and the (stay, move) rows of the per-site change kernel (1-p) I + p 1 g^T."""
    p = prior.change_prob
    log_g = _grid_pmf(prior.value_density, grid)
    move = p * np.exp(log_g)
    return log_g, (1.0 - p) + move, move


def _single_chain(grid: np.ndarray, log_first: np.ndarray, log_emis: np.ndarray, stay, move):
    """The smoother's GridChain and log Z for one dataset (log_emis is (n, 1, G))."""
    first, weights, log_z, _ = _smooth(log_first, log_emis, stay, move)
    with np.errstate(divide="ignore"):
        log_initial = np.log(first[0])
    chain = GridChain(grid=grid, log_initial=log_initial, stay=stay, move=move, weights=weights[:, 0])
    return chain, float(log_z[0])


def grid_posterior(
    X: np.ndarray, sigma: float, prior: MarkovSitePrior, grid: np.ndarray
) -> GridChain:
    """Exact posterior of the grid-discretized per-site change model.

    The prior transition kernel mixes a copy of the previous value with a
    fresh draw from the value density; combined with the independent
    Gaussian emissions the posterior is itself a first-order chain, which
    forward-backward extracts exactly (zero variational gap within the
    chain family).
    """
    X = np.asarray(X, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise InputError("grid must be 1-d with at least 2 points")
    if not sigma > 0:
        raise InputError("sigma must be positive")
    log_g, stay, move = _site_kernel(prior, grid)
    return _single_chain(grid, log_g, _log_emissions(X[None, :], sigma, grid), stay, move)[0]


def fit_markov_vb(
    X: np.ndarray,
    sigma: float,
    prior: ChangePointPrior,
    grid: np.ndarray,
    tol: float = 1e-8,
    max_sweeps: int = 500,
) -> GridChain:
    """Best first-order grid chain for the change-point posterior.

    With the per-site change prior the posterior is a chain, so the exact
    answer comes straight from forward-backward.  With the
    uniform-positions prior the pattern weight w(count) is not pairwise;
    each sweep replaces it by its tangent at the current expected count
    (a lower bound, by convexity of w), solves the resulting chain model
    exactly, and re-tightens the tangent.  The recorded objective is the
    resulting upper-bound free energy, non-increasing by construction.
    """
    if isinstance(prior, MarkovSitePrior):
        return grid_posterior(X, sigma, prior, grid)
    if not isinstance(prior, UniformPositionsPrior):
        raise InputError(f"unsupported prior type {type(prior).__name__}")

    X = np.asarray(X, dtype=float)
    n = X.size
    if prior.n != n:
        raise InputError(f"prior was built for n={prior.n}, data has n={n}")
    if grid.ndim != 1 or grid.size < 2:
        raise InputError("grid must be 1-d with at least 2 points")
    if max_sweeps < 1:
        raise InputError("max_sweeps must be at least 1")
    w = prior.pattern_weight()
    slopes = np.diff(w)  # subgradients of the piecewise-linear extension
    counts = np.arange(n, dtype=float)

    log_emis = _log_emissions(X[None, :], sigma, grid)
    log_g = _grid_pmf(prior.value_density, grid)

    def conjugate(lam: float) -> float:
        return float(np.max(lam * counts - w))

    c_bar = float(np.dot(np.exp(prior.log_dimension_weights), counts))
    trace = []
    chain = None
    prev = math.inf
    converged = False
    for _ in range(max_sweeps):
        # a single site has no change to tilt, and its objective is final
        lam = float(slopes[min(int(c_bar), n - 2)]) if n > 1 else 0.0
        # pairwise factor: copy on the diagonal, lam + fresh-draw weight off it
        chain, log_z = _single_chain(grid, log_g, log_emis.copy(), 1.0, np.exp(lam + log_g))
        objective = -log_z + conjugate(lam)
        trace.append(objective)
        if n == 1 or abs(prev - objective) <= tol * max(1.0, abs(objective)):
            converged = True
            break
        prev = objective
        c_bar = chain.expected_change_count()
    return replace(chain, converged=converged, objective_trace=tuple(trace))


def markov_chain_risks(
    X_batch: np.ndarray,
    sigma: float,
    prior: MarkovSitePrior,
    grid: np.ndarray,
    signal: PiecewiseSignal,
    chunk: int = 25,
) -> np.ndarray:
    """E_Q ||theta - theta*||^2 under grid_posterior for a batch of datasets.

    Streaming evaluator for the rate experiments: the smoother of
    grid_posterior, run on chunks of replications at once (R x G rows per
    step), with the risk carried as a second backward message instead of
    building one GridChain per dataset.  Grid values outside the support
    of the value density are dropped first: neither the first site nor a
    change can land on them, so their posterior mass is exactly zero.
    Memory is one (n, chunk, G) array; agreement with grid_posterior is
    pinned by tests.
    """
    X_batch = np.atleast_2d(np.asarray(X_batch, dtype=float))
    R, n = X_batch.shape
    if signal.values.size != n:
        raise InputError("signal length does not match the data")
    if not sigma > 0:
        raise InputError("sigma must be positive")
    log_g, stay, move = _site_kernel(prior, grid)
    live = np.isfinite(log_g)
    grid, log_g, stay, move = grid[live], log_g[live], stay[live], move[live]
    sq_err = (grid[None, :] - signal.values[:, None]) ** 2  # (n, G)
    out = np.empty(R)
    for lo in range(0, R, chunk):
        log_emis = _log_emissions(X_batch[lo : lo + chunk], sigma, grid)
        out[lo : lo + chunk] = _smooth(log_g, log_emis, stay, move, site_loss=sq_err)[3]
    return out


def change_count_distribution(chain: GridChain) -> np.ndarray:
    """Distribution of the number of value changes under a grid chain.

    Dynamic program over (site, value, count); used to audit the tangent
    bound of fit_markov_vb against the exact pattern-weight expectation.
    """
    n = chain.n_sites
    dist = np.zeros((chain.grid.size, n))
    dist[:, 0] = chain.initial
    for i in range(n - 1):
        T = _dense_transitions(chain.stay[i], chain.move[i], chain.weights[i])
        stay = np.diag(T)[:, None] * dist
        np.fill_diagonal(T, 0.0)
        moved = T.T @ dist  # arrive at b by a change: one more count
        dist = stay
        dist[:, 1:] += moved[:, :-1]
    return dist.sum(axis=0)


# ---------------------------------------------------------------------------
# risk and the DP baseline
# ---------------------------------------------------------------------------


def risk(Q: Union[GridChain, CoordinatewisePosterior], signal: PiecewiseSignal) -> float:
    """E_Q ||theta - theta*||^2 for either posterior representation."""
    theta = signal.values
    if isinstance(Q, GridChain):
        if Q.n_sites != theta.size:
            raise InputError(f"chain has {Q.n_sites} sites, signal has {theta.size}")
        m = Q.marginals()
        return float(np.sum(m * (Q.grid[None, :] - theta[:, None]) ** 2))
    if isinstance(Q, CoordinatewisePosterior):
        if len(Q) != theta.size:
            raise InputError(f"posterior has {len(Q)} sites, signal has {theta.size}")
        return float(np.sum(Q.variances + (Q.means - theta) ** 2))
    raise InputError(f"unsupported posterior type {type(Q).__name__}")


def mle_segmentation(X: np.ndarray, m: int) -> tuple[np.ndarray, float]:
    """Exact least-squares fit with at most m constant pieces.

    Dynamic programming over segment boundaries with prefix-sum segment
    costs; O(m n^2) time.
    """
    X = np.asarray(X, dtype=float)
    n = X.size
    if not 1 <= m <= n:
        raise InputError(f"m={m} outside 1..{n}")
    s1 = np.concatenate(([0.0], np.cumsum(X)))
    s2 = np.concatenate(([0.0], np.cumsum(X**2)))

    def seg_cost(i: np.ndarray, j: int):
        # SSE of X[i:j] around its mean, vectorized over start indices i
        length = j - i
        tot = s1[j] - s1[i]
        return (s2[j] - s2[i]) - tot**2 / length

    best = np.full((m + 1, n + 1), np.inf)
    split = np.zeros((m + 1, n + 1), dtype=int)
    best[0, 0] = 0.0
    for pieces in range(1, m + 1):
        for j in range(pieces, n + 1):
            starts = np.arange(pieces - 1, j)
            cand = best[pieces - 1, starts] + seg_cost(starts, j)
            idx = int(np.argmin(cand))
            best[pieces, j] = cand[idx]
            split[pieces, j] = starts[idx]
    pieces = int(np.argmin(best[1 : m + 1, n])) + 1
    sse = float(best[pieces, n])
    theta = np.empty(n)
    j = n
    for p in range(pieces, 0, -1):
        i = split[p, j]
        theta[i:j] = (s1[j] - s1[i]) / (j - i)
        j = i
    return theta, sse
