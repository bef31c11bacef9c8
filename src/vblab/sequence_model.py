"""Gaussian sequence model with a sieve prior.

Observations are y_j = theta_j + z_j / sqrt(n).  The prior first draws a
dimension k, then draws theta_j from a coordinate density for j <= k and
pins theta_j = 0 beyond k.  Everything downstream of the per-coordinate
evidence integrals is exact: model-dimension weights, the fitted
posteriors, their risks and their KL gap to the full posterior.

Both fits are one type, ShellPosterior: a product measure on the
{k-1, k} dimension shells, with tilted coordinate densities below k, a
mixture of a point mass at zero (weight p) and the tilt at k, and point
masses at zero above k.  The mean-field optimum over product measures
is the shell at k = k_tilde, which maximizes the sum of two adjacent
posterior dimension weights, with p = p_tilde their ratio; the
empirical-Bayes posterior is the p = 0 shell at the most probable
dimension k_hat.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ._lse import _logsumexp
from ._quadrature import fixed_rule, integrate_log, panel_nodes
from .divergences import ScalarGaussian
from .errors import InputError, NumericError

__all__ = [
    "GaussianCoordinates",
    "RescaledCauchyCoordinates",
    "RescaledGaussianCoordinates",
    "SievePrior",
    "SobolevSignal",
    "SequenceObservation",
    "GridDensity",
    "ShellPosterior",
    "log_coordinate_evidence",
    "log_model_weights",
    "fit_mean_field",
    "fit_empirical_bayes",
    "vb_objective",
    "expected_risk",
    "sample_observation",
    "make_signal",
    "posterior_kl_gap",
]

_GRID_POINTS = 2001
_GRID_HALF_WIDTH = 12.0  # in units of the rescaled likelihood scale


# ---------------------------------------------------------------------------
# coordinate families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianCoordinates:
    """Coordinate density N(0, sigma0_sq); fully conjugate."""

    sigma0_sq: float

    def __post_init__(self):
        if not self.sigma0_sq > 0:
            raise InputError("sigma0_sq must be positive")

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5 * (x**2 / self.sigma0_sq + math.log(2 * math.pi * self.sigma0_sq))

    def log_evidence_ratio(self, y, n: float):
        """log of W(y) * exp(n y^2 / 2), stable for large n y^2.

        W(y) = integral of f(t) exp(-n (t - y)^2 / 2) dt; the Gaussian
        convolution gives W = (1 + n s)^{-1/2} exp(-y^2 / (2 (s + 1/n)))
        with s the prior variance, so the ratio is computed without
        cancellation.
        """
        y = np.asarray(y, dtype=float)
        ns = n * self.sigma0_sq
        return -0.5 * math.log1p(ns) + 0.5 * n * y**2 * (ns / (ns + 1.0))

    def tilt(self, y: float, n: float) -> ScalarGaussian:
        """The prior coordinate reweighted by the Gaussian likelihood at y."""
        prec = n + 1.0 / self.sigma0_sq
        return ScalarGaussian(n * y / prec, 1.0 / prec)

    def normalization_error(self) -> float:
        return 0.0  # exact by construction

    def kl_from_gaussian(self, g: ScalarGaussian) -> float:
        s0 = self.sigma0_sq
        return 0.5 * ((g.variance + g.mean**2) / s0 - 1.0 - math.log(g.variance / s0))


@dataclass(frozen=True)
class RescaledCauchyCoordinates:
    """Coordinate density sqrt(n) g(sqrt(n) x) with g a centered Cauchy.

    The sqrt(n) rescaling matches the noise level, which is what removes
    the logarithmic factor from the contraction rate; the heavy Cauchy
    tail keeps the evidence integral well behaved for large signals.
    """

    scale: float
    n: float

    def __post_init__(self):
        if not (self.scale > 0 and self.n > 0):
            raise InputError("scale and n must be positive")

    def _log_g(self, u):
        s = self.scale
        return -np.log(math.pi * s) - np.log1p((u / s) ** 2)

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        rn = math.sqrt(self.n)
        return math.log(rn) + self._log_g(rn * x)

    def log_evidence_ratio(self, y, n: float):
        """Vectorized log[W(y) exp(n y^2 / 2)] over an array of y.

        Substituting u = sqrt(n) t and centering at v = sqrt(n) y turns
        the ratio into exp(v^2/2) * integral g(v + w) exp(-w^2/2) dw, an
        O(1) integral over a fixed window; 480 Gauss-Legendre nodes are
        far below 1e-10 error for this smooth integrand.
        """
        self._check_n(n)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        v = math.sqrt(n) * y
        w, _, log_wt = fixed_rule(-15.0, 15.0, 30)
        log_terms = self._log_g(v[:, None] + w[None, :]) - 0.5 * w[None, :] ** 2
        out = 0.5 * v**2 + _logsumexp(log_terms + log_wt[None, :], axis=1)
        return out if out.size > 1 else float(out[0])

    def log_evidence_adaptive(self, y: float, n: float) -> float:
        """Reference log W(y) by adaptive quadrature in the rescaled variable."""
        self._check_n(n)
        v = math.sqrt(n) * y
        return integrate_log(
            lambda u: self._log_g(u) - 0.5 * (u - v) ** 2, v - 15.0, v + 15.0, rel_tol=1e-12
        )

    def tilt(self, y: float, n: float) -> "GridDensity":
        """The prior coordinate reweighted by the Gaussian likelihood at y, on a grid."""
        self._check_n(n)
        v = math.sqrt(n) * y
        u = np.linspace(v - _GRID_HALF_WIDTH, v + _GRID_HALF_WIDTH, _GRID_POINTS)
        log_w = self._log_g(u) - 0.5 * (u - v) ** 2
        log_w -= _logsumexp(log_w)
        return GridDensity(points=u / math.sqrt(n), probs=np.exp(log_w))

    def normalization_error(self) -> float:
        """|integral f - 1| via a sinh substitution (tail-safe quadrature)."""
        s = self.scale
        t, wt = panel_nodes(-22.0, 22.0, panels=32, order=16)
        u = s * np.sinh(t)
        total = float(np.dot(wt, np.exp(self._log_g(u)) * s * np.cosh(t)))
        return abs(total - 1.0)

    def _check_n(self, n: float) -> None:
        if not math.isclose(n, self.n, rel_tol=1e-12):
            raise InputError(f"family was rescaled for n={self.n}, called with n={n}")


def RescaledGaussianCoordinates(variance: float, n: float) -> GaussianCoordinates:
    """sqrt(n)-rescaled Gaussian coordinates, i.e. N(0, variance / n)."""
    if not (variance > 0 and n > 0):
        raise InputError("variance and n must be positive")
    return GaussianCoordinates(sigma0_sq=variance / n)


CoordinateFamily = Union[GaussianCoordinates, RescaledCauchyCoordinates]


# ---------------------------------------------------------------------------
# prior, signals, observations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SievePrior:
    """Mixture-of-products prior over (k, theta), truncated at K_max.

    dimension_weights[k] is the probability of model dimension k for
    k = 0..K_max; coordinates j <= k share the coordinate family and are
    pinned to zero beyond k.
    """

    dimension_weights: np.ndarray
    coordinate_family: CoordinateFamily
    K_max: int

    def __post_init__(self):
        w = np.asarray(self.dimension_weights, dtype=float)
        if w.ndim != 1 or w.size != self.K_max + 1:
            raise InputError("dimension_weights must have length K_max + 1")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise InputError("dimension_weights must be finite and non-negative")
        total = w.sum()
        if abs(total - 1.0) > 1e-9:
            raise InputError(f"dimension_weights sum to {total}, beyond the 1e-9 drift budget")
        object.__setattr__(self, "dimension_weights", w / total)
        err = self.coordinate_family.normalization_error()
        if err > 1e-6:
            raise InputError(f"coordinate density normalization off by {err}")

    @property
    def log_dimension_weights(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.dimension_weights)

    @classmethod
    def geometric(cls, tau: float, K_max: int, family: CoordinateFamily) -> "SievePrior":
        """pi(k) proportional to exp(-tau k), k = 0..K_max."""
        if K_max < 1:
            raise InputError("K_max must be a positive integer")
        w = np.exp(-tau * np.arange(K_max + 1, dtype=float))
        return cls(w / w.sum(), family, K_max)


@dataclass(frozen=True)
class SobolevSignal:
    """A finite sequence constrained to sum_j j^{2 alpha} theta_j^2 <= B^2."""

    theta: np.ndarray
    alpha: float
    B: float

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float)
        if t.ndim != 1 or not np.all(np.isfinite(t)):
            raise InputError("theta must be a finite 1-d sequence")
        object.__setattr__(self, "theta", t)
        if not (self.alpha > 0 and self.B > 0):
            raise InputError("alpha and B must be positive")
        if self.ball_weight() > self.B**2 * (1 + 1e-9):
            raise InputError("signal violates the smoothness ball constraint")

    def ball_weight(self) -> float:
        # sum_j j^{2 alpha} theta_j^2 over the nonzero theta_j, in log space,
        # since j^{2 alpha} alone overflows at large alpha
        nz = np.flatnonzero(self.theta)
        log_terms = 2 * (self.alpha * np.log(nz + 1.0) + np.log(np.abs(self.theta[nz])))
        return float(np.sum(np.exp(log_terms)))


@dataclass(frozen=True)
class SequenceObservation:
    """Observed sequence y with per-coordinate noise variance 1/n."""

    y: np.ndarray
    n: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1 or not np.all(np.isfinite(y)):
            raise InputError("y must be a finite 1-d sequence")
        if not self.n > 0:
            raise InputError("n must be positive")
        object.__setattr__(self, "y", y)


# ---------------------------------------------------------------------------
# tilted coordinates and the shell posterior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridDensity:
    """A probability vector over an increasing grid of support points.

    The mean and variance are computed once, at construction, so a grid
    density reads like a ScalarGaussian.
    """

    points: np.ndarray
    probs: np.ndarray
    mean: float = field(init=False)
    variance: float = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        pr = np.asarray(self.probs, dtype=float)
        if pts.shape != pr.shape or pts.ndim != 1:
            raise InputError("points and probs must be 1-d arrays of equal length")
        if abs(pr.sum() - 1.0) > 1e-8:
            raise InputError("grid probabilities must sum to 1 within 1e-8")
        pr = pr / pr.sum()
        mean = float(np.dot(pr, pts))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", pr)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", float(np.dot(pr, (pts - mean) ** 2)))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.choice(self.points, size=size, p=self.probs)


@dataclass(frozen=True)
class ShellPosterior:
    """A product measure on the {k-1, k} dimension shells.

    Coordinates below k carry the given tilts, coordinate k mixes a point
    mass at zero (weight p) with its tilt, and every coordinate above k is
    a point mass at zero.  The mean-field fit has this form with
    (k_tilde, p_tilde), the empirical-Bayes fit with (k_hat, 0); fits also
    keep the normalized log model weights they were chosen from.
    """

    k: int
    p: float
    tilts: tuple
    K_max: int
    log_weights: Optional[np.ndarray] = field(repr=False, default=None)

    def __post_init__(self):
        if not 0 <= self.k <= self.K_max:
            raise InputError(f"k={self.k} outside 0..K_max={self.K_max}")
        if not 0.0 <= self.p < 1.0:
            raise InputError("p must lie in [0, 1)")
        if self.k == 0 and self.p != 0.0:
            raise InputError("p must be 0 when k = 0")
        if len(self.tilts) != self.k:
            raise InputError("need exactly k coordinate tilts")
        for d in self.tilts:
            if not isinstance(d, (ScalarGaussian, GridDensity)):
                raise InputError("tilts must be ScalarGaussian or GridDensity")
            if isinstance(d, ScalarGaussian) and d.variance == 0:
                raise InputError("degenerate coordinate tilts are not allowed")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = np.zeros((size, self.K_max))
        for idx, tilt in enumerate(self.tilts):
            draws = tilt.sample(rng, size)
            if idx + 1 == self.k and self.p > 0:
                draws = np.where(rng.random(size) < self.p, 0.0, draws)
            out[:, idx] = draws
        return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def log_coordinate_evidence(prior: SievePrior, j: int, y_j: float, n: float) -> float:
    """log W_j = log integral f(t) exp(-n (t - y_j)^2 / 2) dt."""
    if not 1 <= j <= prior.K_max:
        raise InputError(f"coordinate index {j} outside 1..{prior.K_max}")
    fam = prior.coordinate_family
    return float(fam.log_evidence_ratio(y_j, n) - 0.5 * n * y_j**2)


def log_model_weights(prior: SievePrior, obs: SequenceObservation) -> np.ndarray:
    """Normalized log posterior weights of the model dimension, k = 0..K_max.

    The unnormalized weight of dimension k multiplies the prior weight by
    the evidence W_j of every active coordinate and the zero-signal
    likelihood exp(-n y_j^2 / 2) of every inactive one; cumulative sums
    of the log evidence ratios give all K_max + 1 scores in one pass.
    """
    if obs.y.size != prior.K_max:
        raise InputError(f"observation length {obs.y.size} != K_max {prior.K_max}")
    ratios = prior.coordinate_family.log_evidence_ratio(obs.y, obs.n)
    scores = prior.log_dimension_weights + np.concatenate(([0.0], np.cumsum(ratios)))
    norm = _logsumexp(scores)
    if not np.isfinite(norm):
        raise NumericError("all model weights vanished")
    return scores - norm


def _fit_tilts(prior: SievePrior, obs: SequenceObservation, k: int) -> tuple:
    fam = prior.coordinate_family
    return tuple(fam.tilt(float(obs.y[j]), obs.n) for j in range(k))


def fit_mean_field(prior: SievePrior, obs: SequenceObservation) -> ShellPosterior:
    """Exact mean-field variational posterior, the shell at (k_tilde, p_tilde).

    k_tilde maximizes pi(k-1|y) + pi(k|y) (with pi(-1|y) = 0, ties to the
    smaller index) and p_tilde = pi(k_tilde-1|y) / that sum.
    """
    lw = log_model_weights(prior, obs)
    w = np.exp(lw)
    pair = w + np.concatenate(([0.0], w[:-1]))
    k_tilde = int(np.argmax(pair))
    if k_tilde == 0:
        p_tilde = 0.0
    else:
        p_tilde = float(w[k_tilde - 1] / (w[k_tilde - 1] + w[k_tilde]))
    return ShellPosterior(k_tilde, p_tilde, _fit_tilts(prior, obs, k_tilde), prior.K_max, lw)


def fit_empirical_bayes(prior: SievePrior, obs: SequenceObservation) -> ShellPosterior:
    """Marginal-likelihood posterior, the shell at (k_hat, 0).

    k_hat maximizes pi(k|y), ties to the smaller k.
    """
    lw = log_model_weights(prior, obs)
    k_hat = int(np.argmax(lw))
    return ShellPosterior(k_hat, 0.0, _fit_tilts(prior, obs, k_hat), prior.K_max, lw)


def vb_objective(prior: SievePrior, obs: SequenceObservation, k: int, kind: str) -> float:
    """Per-dimension objective whose argmin reproduces k_tilde / k_hat.

    Up to one shared additive constant this is the KL divergence from the
    best variational candidate living on the dimension-k shell (kind
    'vb') or on the dimension-k product family (kind 'eb') to the full
    posterior: -log(pi(k-1|y) + pi(k|y)) and -log pi(k|y) respectively.
    """
    if not 0 <= k <= prior.K_max:
        raise InputError(f"k={k} outside 0..{prior.K_max}")
    lw = log_model_weights(prior, obs)
    if kind == "vb":
        return float(-lw[0] if k == 0 else -np.logaddexp(lw[k - 1], lw[k]))
    if kind == "eb":
        return float(-lw[k])
    raise InputError(f"kind must be 'vb' or 'eb', got {kind!r}")


def expected_risk(post: ShellPosterior, signal: SobolevSignal) -> float:
    """E_Q ||theta - theta*||^2 in closed form from the tilt moments."""
    if signal.theta.size != post.K_max:
        raise InputError(f"signal length {signal.theta.size} does not match K_max {post.K_max}")
    theta = signal.theta
    k, p = post.k, post.p
    total = 0.0
    for idx, tilt in enumerate(post.tilts):
        err = tilt.variance + (tilt.mean - theta[idx]) ** 2
        if idx + 1 == k:
            total += (1.0 - p) * err + p * theta[idx] ** 2
        else:
            total += err
    return total + float(np.sum(theta[k:] ** 2))


def sample_observation(
    signal: SobolevSignal, n: float, seed: Union[int, np.random.Generator]
) -> SequenceObservation:
    """Draw y_j = theta_j + z_j / sqrt(n); deterministic given the seed."""
    if not n > 0:
        raise InputError("n must be positive")
    rng = np.random.default_rng(seed)
    y = signal.theta + rng.standard_normal(signal.theta.size) / math.sqrt(n)
    return SequenceObservation(y=y, n=n)


def make_signal(
    kind: str, alpha: float, B: float, K_max: int, j0: Optional[int] = None
) -> SobolevSignal:
    """Construct a test signal inside the smoothness ball.

    'zero' is the origin; 'spike' puts B * j0^{-alpha} at coordinate j0
    (the ball boundary case); 'sobolev_boundary' decays like
    j^{-alpha - 1/2 - 0.01}, rescaled so the ball weight is 0.95 B^2.
    """
    if K_max < 1:
        raise InputError("K_max must be positive")
    theta = np.zeros(K_max)
    if kind == "zero":
        pass
    elif kind == "spike":
        if j0 is None or not 1 <= j0 <= K_max:
            raise InputError("spike requires 1 <= j0 <= K_max")
        theta[j0 - 1] = B * j0 ** (-alpha)
    elif kind == "sobolev_boundary":
        j = np.arange(1, K_max + 1, dtype=float)
        raw = j ** (-(alpha + 0.51))
        weight = np.sum(j**-1.02)  # sum_j j^{2 alpha} raw_j^2, which overflows if formed
        theta = raw * math.sqrt(0.95 * B**2 / weight)
    else:
        raise InputError(f"unknown signal kind {kind!r}")
    return SobolevSignal(theta=theta, alpha=alpha, B=B)


# ---------------------------------------------------------------------------
# KL gap of shell posteriors
# ---------------------------------------------------------------------------


def _log_tilt_pdf(prior: SievePrior, obs: SequenceObservation, j: int, x: np.ndarray):
    """Pointwise log density of the tilted coordinate j (1-based)."""
    fam = prior.coordinate_family
    y = float(obs.y[j - 1])
    log_w = log_coordinate_evidence(prior, j, y, obs.n)
    return fam.log_pdf(x) - 0.5 * obs.n * (x - y) ** 2 - log_w


def _kl_to_tilt(prior, obs, j: int, g) -> float:
    """KL(g || tilted coordinate j) for a Gaussian or grid candidate."""
    if isinstance(g, ScalarGaussian):
        sd = math.sqrt(g.variance)
        nodes, wts = panel_nodes(g.mean - 10 * sd, g.mean + 10 * sd, panels=24, order=16)
        log_q = -0.5 * ((nodes - g.mean) / sd) ** 2 - math.log(sd * math.sqrt(2 * math.pi))
        dens = np.exp(log_q)
        return float(np.dot(wts, dens * (log_q - _log_tilt_pdf(prior, obs, j, nodes))))
    # grid candidate against the continuous tilt, cellwise
    h = np.gradient(g.points)
    mass = g.probs
    keep = mass > 0
    return float(
        np.sum(
            mass[keep]
            * (np.log(mass[keep] / h[keep]) - _log_tilt_pdf(prior, obs, j, g.points[keep]))
        )
    )


def posterior_kl_gap(prior: SievePrior, obs: SequenceObservation, post: ShellPosterior) -> float:
    """KL(post || posterior), exact through the mixture decomposition.

    Restricted to the shell support structure, the posterior mass seen by
    the shell posterior splits between the (k-1)- and k-dimensional
    shells, so the divergence reduces to a binary mixture term plus
    per-coordinate KLs to the tilted densities.  For the fits it is their
    vb_objective: kind 'vb' at k_tilde, kind 'eb' at k_hat.
    """
    if not isinstance(post, ShellPosterior):
        raise InputError("post must be a ShellPosterior")
    if post.K_max != prior.K_max:
        raise InputError(f"posterior K_max={post.K_max} differs from the prior's {prior.K_max}")
    lw = log_model_weights(prior, obs)
    k, p = post.k, post.p
    if k == 0:
        return float(-lw[0])
    total = 0.0
    if p > 0:
        total += p * (math.log(p) - lw[k - 1])
    total += (1.0 - p) * (math.log1p(-p) - lw[k])
    for j in range(1, k):
        total += _kl_to_tilt(prior, obs, j, post.tilts[j - 1])
    total += (1.0 - p) * _kl_to_tilt(prior, obs, k, post.tilts[k - 1])
    return total
