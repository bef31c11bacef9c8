"""Piecewise-constant signal model X_i = theta_i + sigma Z_i.

Two variational routes are implemented against two prior variants,
the per-site change prior and the uniform-positions prior; under both,
every piece draws its value from one value density:

* product (coordinatewise) posteriors, which ignore the dependence
  between neighbouring sites and therefore keep a risk proportional to
  the sample size -- the cautionary baseline, whose risks over a batch
  of datasets mean_field_risks takes in blocks of rows;
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
change-point recursions of Fearnhead (2006), over one dataset or over a
whole n grid of batches at once.  The grid's groups are aligned at site
0, and a group joins the backward pass at its own last site, so the pass
takes max n sites, not their sum.  Messages keep the datasets on the
contiguous axis, the expected loss rides under the backward message as an
unnormalized second row, and each site applies the kernel once to both,
as d P + (move . P): d = stay - move is the scalar 1-p, factored out of
every step, or the column 1 - e^lambda g_b, and the column sum move . P,
broadcast over the grid, uses no BLAS, so a dataset's bits depend neither
on its place in the batch, nor on the groups beside it, nor on the BLAS
thread count.  grid_posterior and
fit_markov_vb are its single-dataset case, whose one block of sites
becomes GridChain.weights; markov_chain_risks is its batched one at one
n and _grid_chain_risks the n grid's, their emissions built in site
blocks capped by a cell count.  GridChain derives marginals, pairwise
tables and samples from it on demand.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from ._lse import _logsumexp
from ._quadrature import fixed_rule
from .errors import InputError, NumericError, count, data_array

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
    "mean_field_risks",
    "grid_posterior",
    "fit_markov_vb",
    "risk",
    "markov_chain_risks",
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
        if not math.isfinite(self.mean):
            raise InputError("mean must be finite")
        if not 0 < self.variance < math.inf:
            raise InputError("variance must be positive and finite")

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
        v = data_array(self.values, "values")
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
    levels, at = np.unique(signal.values, return_inverse=True)  # each distinct level snapped once
    snapped = grid[np.argmin(np.abs(levels[:, None] - grid[None, :]), axis=1)][at]
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
        lw = data_array(self.log_dimension_weights, "log_dimension_weights")
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
        from scipy.special import gammaln

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
    if count(G, "G") < 16:
        raise InputError("need at least 16 grid points")
    half = B + 1.0 + 4.0 * sigma
    if not 0 < half < math.inf:
        raise InputError(f"B + 1 + 4 sigma must be positive and finite, got {half!r}")
    return np.linspace(-half, half, G)


# ---------------------------------------------------------------------------
# coordinatewise (product) posterior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoordinatewisePosterior:
    """Means and variances of the tilted densities q_i(t) ~ g(t) exp(-(t - X_i)^2 / 2 sigma^2).

    Closed forms: a truncated Gaussian's when g is uniform (by quadrature where
    that form loses digits), the conjugate Gaussian's when g is Gaussian.
    """

    means: np.ndarray
    variances: np.ndarray

    def __len__(self) -> int:
        return self.means.size


# Below lo the closed form's z = ndtr(b) - ndtr(a) cancels: the variance is off by 5e-12
# relative 3 sigmas out, 1e-7 at 5, and z hits its 1e-300 floor from 8.  On a support narrower
# than sigma the variance, sigma^2 times about ((hi - lo) / sigma)^2 / 12, cancels.  From _TAIL
# sigmas out, and on such a support, quadrature takes the moments, within 7e-16 relative.
_TAIL = 1.5


def _truncnorm_moments(x: np.ndarray, sigma: float, lo: float, hi: float):
    from scipy.special import ndtr

    dist = np.maximum(lo - x, x - hi)
    if hi - lo < sigma:
        quad, mean, var = np.ones(x.shape, dtype=bool), np.empty(x.shape), np.empty(x.shape)
    else:
        quad = dist > _TAIL * sigma
        # past |t| = 40, phi(t) and ndtr(-t) are 0 and ndtr(t) is 1 in floats, so clipping
        # the edges there (an infinite one too) changes no result and keeps their squares finite;
        # on the quadrature rows, which overwrite it, the closed form may overflow
        with np.errstate(over="ignore"):
            a, b = (np.clip((edge - x) / sigma, -40.0, 40.0) for edge in (lo, hi))
            phi_a = np.exp(-0.5 * a * a) / math.sqrt(2 * math.pi)
            phi_b = np.exp(-0.5 * b * b) / math.sqrt(2 * math.pi)
            z = np.maximum(ndtr(b) - ndtr(a), 1e-300)
            shift = (phi_a - phi_b) / z
            mean = x + sigma * shift
            var = np.maximum(sigma * sigma * (1.0 + (a * phi_a - b * phi_b) / z - shift**2), 0.0)
    if quad.any():
        # at t = edge -/+ width u, u in [0, 1], the density is proportional to exp(-u (p + q u)),
        # q = (width / sigma)^2 / 2.  The edge is hi above the support and lo elsewhere, and
        # p = e (hi - lo) / sigma, e = (x - hi) / sigma above and (lo - x) / sigma elsewhere.
        # At e sigmas outside, the density at v s inside the edge, s = sigma / e, goes as
        # exp(-v - (v / e)^2 / 2): p stops at 50, where e^-v < 1e-21, and the width at 50 s
        x = x[quad]
        above = x > hi
        with np.errstate(over="ignore", divide="ignore"):
            e = np.where(above, x - hi, lo - x) / sigma
            p = np.minimum(e * ((hi - lo) / sigma), 50.0)
            width = np.where(p < 50.0, hi - lo, 50.0 * sigma / e)
        nodes, weights = fixed_rule(0.0, 1.0, 16)
        dens = weights * np.exp(-nodes * (p[:, None] + 0.5 * (width / sigma)[:, None] ** 2 * nodes))
        total = dens.sum(axis=1)
        u = (dens * nodes).sum(axis=1) / total
        mean[quad] = np.where(above, hi - width * u, lo + width * u)
        with np.errstate(over="ignore"):  # a width past 1e154 squares to inf, which the risk check reports
            var[quad] = width * width * (dens * (nodes - u[:, None]) ** 2).sum(axis=1) / total
    return mean, var


def fit_mean_field(X: np.ndarray, sigma: float, prior: ChangePointPrior) -> CoordinatewisePosterior:
    """Product-measure variational optimum.

    Any product candidate with finite divergence to the posterior must
    put zero mass on neighbour-equality events, so the optimum tilts each
    site's value density by its own likelihood and nothing else.  Each
    tilt's moments are closed forms or a fixed quadrature (_site_moments).
    """
    X = data_array(X, "X")
    _check_mean_field(X.size, sigma, prior)
    mean, var = _site_moments(X, sigma, prior.value_density)
    return CoordinatewisePosterior(means=mean, variances=var)


# mean_field_risks fits blocks of at most _MEAN_FIELD_CELLS (replication, site) cells.
_MEAN_FIELD_CELLS = 1 << 15


def mean_field_risks(
    X_batch: np.ndarray,
    sigma: float,
    prior: ChangePointPrior,
    signal: PiecewiseSignal,
) -> np.ndarray:
    """risk(fit_mean_field(X, sigma, prior), signal) for each row of an (R, n) batch.

    The rows are fitted in blocks of at most _MEAN_FIELD_CELLS cells,
    whatever R is.  The moments are elementwise and each row's sum is
    taken alone, so a row has the bits it has in fit_mean_field and risk.
    """
    X_batch = data_array(X_batch, "X_batch", 2)
    R, n = X_batch.shape
    if signal.values.size != n:
        raise InputError("signal length does not match the data")
    _check_mean_field(n, sigma, prior)
    risks = np.empty(R)
    rows = max(1, _MEAN_FIELD_CELLS // n)
    for lo in range(0, R, rows):
        mean, var = _site_moments(X_batch[lo : lo + rows], sigma, prior.value_density)
        risks[lo : lo + rows] = _coordinatewise_risk(mean, var, signal.values)
    return risks


def _check_mean_field(n: int, sigma: float, prior: ChangePointPrior) -> None:
    """InputError unless sigma > 0 and the prior and its value density are supported kinds, for n sites."""
    if not sigma > 0:
        raise InputError("sigma must be positive")
    if not isinstance(prior, (MarkovSitePrior, UniformPositionsPrior)):
        raise InputError(f"unsupported prior type {type(prior).__name__}")
    if isinstance(prior, UniformPositionsPrior) and prior.n != n:
        raise InputError(f"prior was built for n={prior.n}, data has n={n}")
    if not isinstance(prior.value_density, (UniformDensity, GaussianDensity)):
        raise InputError(f"unsupported value density {type(prior.value_density).__name__}")


def _site_moments(X: np.ndarray, sigma: float, g: ValueDensity) -> tuple:
    """Means and variances of each site's tilt q_i, for data X of any shape.

    A truncated Gaussian's when g is uniform; when g is N(mu0, tau^2), the
    conjugate var = 1 / (1 / tau^2 + 1 / sigma^2) and
    mean = var (mu0 / tau^2 + X / sigma^2).
    """
    if isinstance(g, UniformDensity):
        return _truncnorm_moments(X, sigma, g.lo, g.hi)
    var = 1.0 / (1.0 / g.variance + 1.0 / (sigma * sigma))
    return var * (g.mean / g.variance + X / (sigma * sigma)), np.full(X.shape, var)


def _coordinatewise_risk(means: np.ndarray, variances: np.ndarray, theta: np.ndarray):
    """The sum over the last axis of variance + (mean - theta)^2, checked as _unscaled checks a risk."""
    with np.errstate(over="ignore"):
        return _unscaled(np.sum(variances + (means - theta) ** 2, axis=-1), 0)


# ---------------------------------------------------------------------------
# grid Markov chains
# ---------------------------------------------------------------------------


_TINY = np.finfo(float).tiny
# fit_markov_vb's tangent sweeps stop once the objective moves by at most _TOL
# relative (absolute below 1), or after _MAX_SWEEPS sweeps.
_TOL = 1e-8
_MAX_SWEEPS = 500
# markov_chain_risks streams emission blocks of at most _SMOOTH_CELLS (site, value, replication) cells.
_SMOOTH_CELLS = 1 << 18
# GridChain._forward takes its step factors in blocks of at most _FORWARD_CELLS (step, value) cells.
_FORWARD_CELLS = 1 << 15


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
    proportional to K(a, b) * weights[i, b], where the kernel K, the same
    for every step, is stay[b] on the diagonal and move[b] off it (each
    a scalar or one (G,) row): (1-p) + p g_b and p g_b under the per-site
    change prior, 1 and e^lambda g_b in the tangent sweep of fit_markov_vb.
    The weights are the backward weights of the smoother: the emission at
    site i+1 times its backward message.  Marginals, pairwise tables,
    change counts and samples are derived on demand in O(G) per step; the
    dense log_transitions tensor is built only when asked for.
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
        for name in ("stay", "move"):
            factor = np.asarray(getattr(self, name), dtype=float)
            if factor.shape not in ((), (G,)):
                raise InputError(f"{name} must be a scalar or one row of G values")
            object.__setattr__(self, name, factor)

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
        """Yield each later site's marginal and the part of it that arrived by a change.

        The step factors are taken a block of steps at a time, so the pass
        holds no (n-1, G) table; each step's factors are its own row's.
        """
        m = self.initial
        steps = max(1, _FORWARD_CELLS // self.grid.size)
        for lo in range(0, self.n_sites - 1, steps):
            st, mv, norm = _step_factors(self.stay, self.move, self.weights[lo : lo + steps])
            np.maximum(norm, _TINY, out=norm)  # a row with zero sum is unreachable
            for i in range(st.shape[0]):
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
        """Joint distribution of (site i, site i+1), 0-based, for 0 <= i < n-1."""
        if not 0 <= i < self.n_sites - 1:
            raise InputError(f"pairwise needs 0 <= i < {self.n_sites - 1}, got {i}")
        i = count(i, "i")
        T = _dense_transitions(self.stay, self.move, self.weights[i])
        return self.marginals()[i][:, None] * T

    def expected_change_count(self) -> float:
        return float(sum(moved.sum() for _, moved in self._forward()))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        size = count(size, "size")
        G = self.grid.size
        out = np.empty((size, self.n_sites))
        init = self.initial
        states = rng.choice(G, size=size, p=init / init.sum())
        out[:, 0] = self.grid[states]
        rows = np.arange(size)
        for i in range(self.n_sites - 1):
            st, mv, _ = _step_factors(self.stay, self.move, self.weights[i])
            cum = np.tile(mv, (size, 1))
            cum[rows, states] = st[states]
            np.cumsum(cum, axis=1, out=cum)
            u = rng.random(size) * cum[:, -1]
            states = (u[:, None] > cum).sum(axis=1)
            out[:, i + 1] = self.grid[states]
        return out


# a sum of beta that underflows to 0 gives a non-finite log Z, which raises NumericError
@np.errstate(divide="ignore", invalid="ignore")
def _smooth(
    log_first: np.ndarray,
    X,
    sigma: float,
    grid: np.ndarray,
    diag,
    move: np.ndarray,
    site_loss: Optional[Callable] = None,
    labels: Optional[list] = None,
):
    """Scaled backward pass for diagonal-plus-rank-one chains: one dataset, or an n grid of batches.

    The unnormalized chain of one dataset x of n sites is
        exp(log_first[x_0] + e_0[x_0]) * prod_i K(x_i, x_{i+1}) exp(e_{i+1}[x_{i+1}])
    with the Gaussian log emissions e_i = -(grid - x_i)^2 / 2 sigma^2 and
    K(a, b) = diag[b] [a = b] + move[b]: stay = diag + move on the
    diagonal and move off it.  X is either one dataset (n,), whose diag is
    a scalar or a (G,) row and whose move is a (G,) row, or a list of K
    groups (n_k, data_k) with n_k increasing, whose diag holds one scalar
    per group and whose move is (G, K), one column per group.
    data_k(edges) gives group k's (R, n_k) batch of datasets cut at the
    site edges 0, n_0, ..., n_k into (R, b - a) chunks.

    The groups are aligned at site 0 and share one backward pass: group k
    joins when the pass reaches its last site n_k - 1, with beta = 1 and
    U = 0, in front of the groups already open, which change only at an
    n_k.  Its data are asked for when it joins, and the chunks of every
    open group are dropped once the pass leaves their sites, so the data
    held never exceed (K - j) R n_j values at the join of group j.
    Messages are (G,) for one dataset and (G, K, R) over the open groups,
    contiguous, datasets on the last axis, so each op runs long inner
    loops.  Emissions are built in site blocks that end on every n_k, from
    the last block back: one of all n sites for one dataset, whose step
    weights are returned, else blocks of at most _SMOOTH_CELLS (site, value,
    dataset) cells over the open groups.
    Emission rows peak at one.  With site_loss, U is stacked on beta: beta
    times the loss still expected given the current value, unnormalized;
    site_loss(j, lo, hi) gives the (hi - lo, G, K - j) loss of sites
    lo..hi-1 for groups j..K-1.  Each site adds beta * loss to U,
    multiplies both rows by the emission to give P and applies the kernel
    once as diag P + (move . P), the column sum move . P broadcast over the
    grid.  That sum uses no BLAS (einsum, or a product and an add reduction
    for one dataset), so each dataset's column is reduced alone, in one
    order wherever it sits in the batch, whichever groups share the pass
    and whatever the BLAS thread count; a lone replication (R = 1) runs as
    two equal columns, since numpy sums one contiguous column in another
    order.  A scalar diag d > 0 (1-p under the per-site prior) is taken out
    of the kernel once per group, K = d (I + 1 (move / d)^T), so a site adds
    P and (move / d) . P and log Z gains (n-1) log d.  Both rows are then
    multiplied by the reciprocal of the sum of beta, never divided by beta
    itself, and log Z accumulates the sums.  The site loop allocates no
    array: its buffers are made once per call, or per joining group.

    A diag column is negative wherever move exceeds stay (the tangent
    kernel at a large lambda).  The column sum still holds move[a] P[a],
    so entry a stays stay[a] P[a] + sum_(b != a) move[b] P[b],
    non-negative, up to a rounding of order eps move[a] P[a].

    A NumericError of a group starts with its entry of labels, if given.
    Returns (first-site marginals, (G,) or (G, K, R); for one dataset the
    n-1 step weights (n-1, G), each the emission at site i+1 times its
    backward message normalized to sum one, else None; log Z, a scalar or
    (K, R); the expected loss sum_G U, (K, R), or None).
    """
    G = grid.size
    single = isinstance(X, np.ndarray)
    if single:
        ns, batch = [X.shape[-1]], ()
        if np.ndim(diag):
            diag, log_z = np.asarray(diag), 0.0
        else:  # K = d (I + 1 (move / d)^T): a scalar d > 0 leaves every step for log Z
            diag, move, log_z = None, move / diag, (ns[0] - 1) * math.log(diag)
        M = beta = np.ones(G)
        U, inv = None, np.empty(())
        col, prod = np.empty(()), np.empty(G)
    else:
        ns, d = [n for n, _ in X], np.asarray(diag, dtype=float)
        move, diag, log_z = move / d, None, (np.asarray(ns) - 1) * np.log(d)
        chunks = [None] * len(ns)
    edges = [0] + ns
    for j in range(len(ns) - 1, -1, -1):  # the sites where groups j.. are open
        if not single:  # group j joins in front, contiguous with the others: beta = 1 and U = 0
            chunks[j] = X[j][1](edges[: j + 2])
            if j == len(ns) - 1:  # the first group to join sets the width
                width = chunks[j][0].shape[0]
                R = max(width, 2)  # the sums over the grid of a lone column would take another order; it runs as two
                log_z = np.repeat(log_z[:, None], R, axis=1)
                M = np.empty((1 if site_loss is None else 2, G, 0, R))
            if width == 1:
                chunks[j] = [np.repeat(c, 2, axis=0) for c in chunks[j]]
            joined = np.zeros(M.shape[:2] + (M.shape[2] + 1, R))
            joined[0, :, 0] = 1.0
            joined[:, :, 1:] = M
            M, batch = joined, joined.shape[2:]
            beta, U = M[0], M[1] if site_loss is not None else None
            move_j, inv = np.ascontiguousarray(move[:, j:]), np.empty(batch)
            col, loss_beta = np.empty((M.shape[0], 1) + batch), np.empty((G,) + batch)
            col_sum = col[:, 0]
        sites = edges[j + 1] - edges[j] if single else max(1, _SMOOTH_CELLS // (G * inv.size))
        for hi in range(edges[j + 1], edges[j], -sites):
            lo = max(edges[j], hi - sites)
            block = X[lo:hi] if single else np.stack([c[j][:, lo - edges[j] : hi - edges[j]] for c in chunks[j:]])
            emis = e = None  # the last block's emissions go before this block's are made
            emis = _log_emissions(block, sigma, grid)  # (hi - lo, G) + batch
            shift = emis.max(axis=1)
            if not np.isfinite(shift).all():
                where = 0 if single else j + int(np.argmin(np.isfinite(shift).all(axis=(0, 2))))
                raise _numeric(labels, where, "an observation is beyond reach of every grid value")
            emis -= shift[:, None]
            np.exp(emis, out=emis)
            if lo == 0:
                emis[0] *= np.exp(log_first).reshape((G,) + (1,) * len(batch))
            if U is not None:
                loss = site_loss(j, lo, hi)[..., None]
            scales = np.empty(shift.shape)  # one per site: site s closes step s - 1
            for s in range(hi - 1, lo - 1, -1):
                e, scale = emis[s - lo], scales[s - lo, ...]
                if U is not None:
                    U += np.multiply(beta, loss[s - lo], out=loss_beta)
                if s == 0:
                    M *= e
                elif single:
                    # alone, beta times the emission is the weight of step s - 1 and stays in its slot;
                    # on G values a product and a reduction cost less than einsum's set-up
                    P = np.multiply(M, e, out=e)
                    np.add.reduce(np.multiply(P, move, out=prod), axis=-1, out=col)
                    if diag is None:
                        np.add(P, col, out=M)
                    else:
                        np.multiply(P, diag, out=M)
                        M += col
                else:
                    P = np.multiply(M, e, out=M)
                    np.einsum("gk,jgkr->jkr", move_j, P, out=col_sum)
                    M += col
                M *= np.reciprocal(np.add.reduce(beta, axis=0, out=scale), out=inv)
            if single:
                log_z += (shift + np.log(scales)).sum(axis=0)
            else:
                log_z[j:] += (shift + np.log(scales)).sum(axis=0)
        if not single:  # every open group's data of these sites is read
            for c in chunks[j:]:
                c[j] = None
    bad = ~np.isfinite(log_z)
    if bad.any():
        where = 0 if single else int(np.argmax(bad.any(axis=1)))
        raise _numeric(labels, where, "chain smoother underflowed: the data are impossible under the prior")
    if single:
        return beta, emis[1:], log_z, None
    return beta[..., :width], None, log_z[:, :width], None if U is None else U.sum(axis=0)[:, :width]


def _numeric(labels: Optional[list], group: int, message: str) -> NumericError:
    """A NumericError whose message starts with the group's label, if there are labels."""
    return NumericError(message if labels is None else f"{labels[group]}: {message}")


def _log_emissions(X: np.ndarray, sigma: float, grid: np.ndarray) -> np.ndarray:
    """-(t - X)^2 / 2 sigma^2 on the grid, sites first: (n, G) for one dataset X (n,), (n, G) + b for X b + (n,)."""
    out = grid.reshape((-1,) + (1,) * (X.ndim - 1)) - np.moveaxis(X, -1, 0)[:, None, ...]
    with np.errstate(over="ignore"):  # a square beyond float range takes its -inf limit
        if sigma != 1.0:  # dividing by one changes no bit
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
    """log g, the scalar diag 1-p and the move row p g of the per-site change kernel (1-p) I + p 1 g^T."""
    p = prior.change_prob
    log_g = _grid_pmf(prior.value_density, grid)
    return log_g, 1.0 - p, p * np.exp(log_g)


def _chain_grid(sigma: float, grid) -> np.ndarray:
    """The checked grid, once sigma > 0 and the grid is a data array of at least 2 points."""
    if not sigma > 0:
        raise InputError("sigma must be positive")
    grid = data_array(grid, "grid")
    if grid.size < 2:
        raise InputError("grid must have at least 2 points")
    return grid


def _single_chain(X: np.ndarray, sigma: float, grid: np.ndarray, log_first: np.ndarray, stay, move, diag):
    """The smoother's GridChain and log Z for one dataset X (n,), read as one block of all n sites.

    diag is stay - move as the caller holds it exactly: 1 - p, or 1 - e^lambda g.
    """
    first, weights, log_z, _ = _smooth(log_first, X, sigma, grid, diag, move)
    with np.errstate(divide="ignore"):
        log_initial = np.log(first)
    chain = GridChain(grid=grid, log_initial=log_initial, stay=stay, move=move, weights=weights)
    return chain, float(log_z)


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
    X = data_array(X, "X")
    grid = _chain_grid(sigma, grid)
    log_g, diag, move = _site_kernel(prior, grid)
    return _single_chain(X, sigma, grid, log_g, diag + move, move, diag)[0]


def fit_markov_vb(
    X: np.ndarray,
    sigma: float,
    prior: ChangePointPrior,
    grid: np.ndarray,
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

    X = data_array(X, "X")
    n = X.size
    if prior.n != n:
        raise InputError(f"prior was built for n={prior.n}, data has n={n}")
    grid = _chain_grid(sigma, grid)
    w = prior.pattern_weight()
    slopes = np.diff(w)  # subgradients of the piecewise-linear extension
    counts = np.arange(n, dtype=float)
    log_g = _grid_pmf(prior.value_density, grid)
    c_bar = float(np.dot(np.exp(prior.log_dimension_weights), counts))
    trace, chain, prev, converged = [], None, math.inf, False
    for _ in range(_MAX_SWEEPS):
        # a single site has no change to tilt, and its objective is final
        lam = float(slopes[min(int(c_bar), n - 2)]) if n > 1 else 0.0
        # pairwise factor: copy on the diagonal, lam + fresh-draw weight off it
        move = np.exp(lam + log_g)
        chain, log_z = _single_chain(X, sigma, grid, log_g, 1.0, move, 1.0 - move)
        objective = -log_z + float(np.max(lam * counts - w))  # plus the conjugate of w at lam
        trace.append(objective)
        if n == 1 or abs(prev - objective) <= _TOL * max(1.0, abs(objective)):
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
) -> np.ndarray:
    """E_Q ||theta - theta*||^2 under grid_posterior for each row of an (R, n) batch of datasets.

    Streaming evaluator for the rate experiments: the smoother of
    grid_posterior run on all R replications in one backward pass, with
    the risk as a second message instead of one GridChain per dataset
    (_grid_chain_risks, here for one n).  Tests pin agreement with
    grid_posterior.
    """
    X_batch = data_array(X_batch, "X_batch", 2)
    if signal.values.size != X_batch.shape[1]:
        raise InputError("signal length does not match the data")
    return _grid_chain_risks([_cut(X_batch)], sigma, [prior], grid, [signal])[0]


def _cut(X_batch: np.ndarray) -> Callable:
    """The data function of _smooth for a batch held whole: views of it cut at the edges."""
    return lambda edges: [X_batch[:, a:b] for a, b in zip(edges, edges[1:])]


def _grid_chain_risks(draws: list, sigma: float, priors: list, grid, signals: list, labels=None) -> list:
    """markov_chain_risks for each (draws[k], priors[k], signals[k]) of an n grid, in one backward pass.

    draws[k](edges) gives an (R, n_k) batch cut at the site edges, as the
    data of _smooth; the n_k = signals[k].values.size increase, and the
    priors differ in their change probabilities only.  The emissions
    stream through in site blocks of at most _SMOOTH_CELLS (site, value,
    replication) cells over the groups still open, bounded whatever the n
    grid and R are.
    Grid values outside the support of the value density are dropped
    first: neither the first site nor a change can land on them, so their
    posterior mass is exactly zero.  Each group's risks have the bits they
    have when its n runs alone.  A NumericError of a group starts with its
    entry of labels, if given.  Returns one (R,) array of risks per group.
    """
    grid = _chain_grid(sigma, grid)
    if any(p.value_density != priors[0].value_density for p in priors):
        raise InputError("the priors of one pass must share their value density")
    kernels = [_site_kernel(p, grid) for p in priors]
    log_g = kernels[0][0]
    live = np.isfinite(log_g)
    grid, log_g = grid[live], log_g[live]
    move = np.stack([mv[live] for _, _, mv in kernels], axis=1)
    scaled = [_scaled(grid, s.values) for s in signals]

    def site_loss(j, lo, hi):  # the scaled squared errors of sites lo..hi-1 for groups j..
        return np.stack([(g[None, :] - t[lo:hi, None]) ** 2 for g, t, _ in scaled[j:]], axis=-1)

    groups = [(s.values.size, draw) for s, draw in zip(signals, draws)]
    diags = [d for _, d, _ in kernels]
    expected = _smooth(log_g, groups, sigma, grid, diags, move, site_loss, labels)[3]
    out = []
    for k, (_, _, e) in enumerate(scaled):
        try:
            out.append(_unscaled(expected[k], e))
        except NumericError as exc:
            raise _numeric(labels, k, str(exc)) from exc
    return out


# ---------------------------------------------------------------------------
# risk
# ---------------------------------------------------------------------------


def _scaled(grid: np.ndarray, theta: np.ndarray):
    """grid and theta in units of 2^e, and e, so (grid - theta)^2 comes in units of 4^e.

    2^e >= max|grid| + max|theta| keeps each scaled error below one; powers
    of two scale exactly.
    """
    e = max(math.frexp(float(np.max(np.abs(v))))[1] for v in (grid, theta)) + 1
    return np.ldexp(grid, -e), np.ldexp(theta, -e), e


def _unscaled(scaled, e: int):
    """An expected scaled error back in its units; a risk beyond float range is a NumericError."""
    with np.errstate(over="ignore"):
        out = np.ldexp(scaled, 2 * e)
    if not np.all(np.isfinite(out)):
        raise NumericError("the expected squared error is beyond float range")
    return out


def risk(Q: Union[GridChain, CoordinatewisePosterior], signal: PiecewiseSignal) -> float:
    """E_Q ||theta - theta*||^2 for either posterior representation."""
    theta = signal.values
    if isinstance(Q, GridChain):
        if Q.n_sites != theta.size:
            raise InputError(f"chain has {Q.n_sites} sites, signal has {theta.size}")
        m = Q.marginals()  # before the errors: its forward pass sets the peak
        g, t, e = _scaled(Q.grid, theta)
        return float(_unscaled(np.sum(m * (g[None, :] - t[:, None]) ** 2), e))
    if isinstance(Q, CoordinatewisePosterior):
        if len(Q) != theta.size:
            raise InputError(f"posterior has {len(Q)} sites, signal has {theta.size}")
        return float(_coordinatewise_risk(Q.means, Q.variances, theta))
    raise InputError(f"unsupported posterior type {type(Q).__name__}")

