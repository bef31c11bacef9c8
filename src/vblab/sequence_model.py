"""Gaussian sequence model with a sieve prior.

Observations are y_j = theta_j + z_j / sqrt(n).  The prior first draws a
dimension k, then draws theta_j from a coordinate density for j <= k and
pins theta_j = 0 beyond k.  Everything downstream of the per-coordinate
evidence integrals is exact: model-dimension weights, the fitted
posteriors, their risks and their KL gap to the full posterior.

Both fits are one type, ShellPosterior: a product measure on the
{k-1, k} dimension shells, with the exact tilted coordinate densities
below k, a mixture of a point mass at zero (weight p) and the tilt at k,
and point masses at zero above k.  A shell holds each tilt as its mean
and variance, the coordinate family's tilt_moments, which is all its
risk reads; since its tilts are exact, its KL gap is the binary term in
the model weights alone.  The mean-field optimum over product measures
is the shell at k = k_tilde, which maximizes the sum of two adjacent
posterior dimension weights, with p = p_tilde their ratio; the
empirical-Bayes posterior is the p = 0 shell at the most probable
dimension k_hat.
"""

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._lse import _logsumexp
from .divergences import _normalized
from .errors import InputError, NumericError, data_array

__all__ = [
    "GaussianCoordinates",
    "RescaledCauchyCoordinates",
    "RescaledGaussianCoordinates",
    "SievePrior",
    "SobolevSignal",
    "SequenceObservation",
    "ShellPosterior",
    "log_model_weights",
    "fit_mean_field",
    "fit_empirical_bayes",
    "vb_objective",
    "expected_risk",
    "sample_observation",
    "make_signal",
    "posterior_kl_gap",
]

# the stacked sieve runners hold at most this many (replication, coordinate) cells a block
_BLOCK_CELLS = 1 << 15
_SQRT2 = math.sqrt(2.0)


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

    def log_evidence_ratio(self, y, n: float):
        """log of W(y) * exp(n y^2 / 2), stable for large n y^2.

        W(y) = integral of f(t) exp(-n (t - y)^2 / 2) dt; the Gaussian
        convolution gives W = (1 + n s)^{-1/2} exp(-y^2 / (2 (s + 1/n)))
        with s the prior variance, so the ratio is computed without
        cancellation.  A scalar y gives a float; past float range, NumericError.
        """
        v = data_array(y, "y", scalar=True)
        ns = n * self.sigma0_sq
        with np.errstate(over="ignore"):
            out = _in_range(-0.5 * math.log1p(ns) + 0.5 * n * v**2 * (ns / (ns + 1.0)), v)
        return out if np.ndim(y) else float(out[0])

    def tilt_moments(self, y, n: float) -> tuple:
        """Means and variances of the tilts at each y: the prior coordinate reweighted by the likelihood."""
        y = data_array(y, "y", scalar=True)
        prec = n + 1.0 / self.sigma0_sq
        return n * y / prec, np.full(y.shape, 1.0 / prec)


@dataclass(frozen=True)
class RescaledCauchyCoordinates:
    """Coordinate density sqrt(n) g(sqrt(n) x) with g a centered Cauchy of scale s.

    The sqrt(n) rescaling matches the noise level, which is what removes
    the logarithmic factor from the contraction rate; the heavy Cauchy
    tail keeps the evidence integral well behaved for large signals.
    With u = sqrt(n) t and v = sqrt(n) y, g smoothed by unit Gaussian
    noise is a Voigt profile: integral g(u) exp(-(u - v)^2 / 2) du is Re w
    for the Faddeeva function w = wofz(z) at z = (v + i s) / sqrt(2), so
    the evidence and the tilt moments are elementwise closed forms.
    """

    scale: float
    n: float

    def __post_init__(self):
        if not (0 < self.scale < math.inf and self.n > 0):
            raise InputError("scale must be positive and finite, and n positive")

    def _w(self, v: np.ndarray) -> np.ndarray:
        from scipy.special import wofz  # here, so importing the CLI loads no scipy

        return wofz(v / _SQRT2 + 1j * (self.scale / _SQRT2))

    def log_evidence_ratio(self, y, n: float):
        """Vectorized log[W(y) exp(n y^2 / 2)] = v^2 / 2 + log Re w over an array of y.

        A Re w that underflows to 0 gives -inf.  A scalar y gives a float;
        a ratio past float range (v^2 / 2 overflows) raises NumericError.
        """
        self._check_n(n)
        y_arr = data_array(y, "y", scalar=True)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = math.sqrt(n) * y_arr
            out = _in_range(0.5 * v**2 + np.log(self._w(v).real), y_arr)
        return out if np.ndim(y) else float(out[0])

    def tilt_moments(self, y, n: float) -> tuple:
        """Means and variances of the tilts at each y, in closed form.

        The tilt of u has mean s Im w / Re w and variance
        s sqrt(2/pi) / Re w - s^2 - mean^2, which loses eps |z|^2 of itself.
        From |z| = 8 on, off the real axis, both come from the Laplace
        continued fraction w = i c / (sqrt(pi) z) instead: with delta = c - 1
        and q = c conj(z), mean = -s Re q / Im q and variance
        -s [sqrt(2) Im(delta conj z) + s (2 Re delta + |delta|^2)] |z|^2 / Im(q)^2,
        in units of m = max(|Re z|, Im z) so that no scale overflows.  A y
        whose Re w underflows to 0 raises InputError.
        """
        self._check_n(n)
        v = math.sqrt(n) * data_array(y, "y", scalar=True)
        s = self.scale
        w = self._w(v)
        if not (w.real > 0).all():
            raise InputError(f"scale {s} leaves a tilt no evidence")
        x, ys = np.abs(v) / _SQRT2, s / _SQRT2
        # where the Faddeeva package takes the fraction too; nearer the axis it misses exp(-z^2)
        far = (np.hypot(x, ys) >= 8.0) & ((ys > 1e-10) | (x > 28.0))
        mean, var = s * w.imag / w.real, np.empty_like(v)
        var[~far] = s * math.sqrt(2.0 / math.pi) / w.real[~far] - s * s - mean[~far] ** 2
        m = np.maximum(x[far], ys)
        xh, yh, eps = x[far] / m, ys / m, m**-2.0
        zh = xh + 1j * yh
        t = np.zeros_like(zh)
        for k in range(20, 0, -1):  # m times the fraction's tail from level k
            t = 0.5 * k / (zh - eps * t)
        dh = t / (zh - eps * t)
        re_q = xh + eps * (dh.real * xh + dh.imag * yh)  # Re q / m
        im_q = -yh + eps * (dh.imag * xh - dh.real * yh)  # Im q / m
        bracket = xh * dh.imag + yh * (dh.real + eps * np.abs(dh) ** 2)  # the variance's, times m / sqrt(2)
        r = yh / im_q  # of order one, also where y / m is tiny
        mean[far] = -_SQRT2 * m * r * re_q
        var[far] = -2.0 * r * (bracket / im_q) * np.abs(zh) ** 2
        return np.copysign(mean, v) / math.sqrt(n), var / n

    def _check_n(self, n: float) -> None:
        if not math.isclose(n, self.n, rel_tol=1e-12):
            raise InputError(f"family was rescaled for n={self.n}, called with n={n}")


def _in_range(ratios: np.ndarray, y: np.ndarray) -> np.ndarray:
    """ratios, once none is +inf or nan: an observation y that large leaves the evidence past float range."""
    if not (ratios < np.inf).all():
        size = np.max(np.abs(y))
        raise NumericError(f"an observation of size {size:g} takes its evidence ratio past float range")
    return ratios


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
        object.__setattr__(self, "dimension_weights", _normalized(w))

    @property
    def log_dimension_weights(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.dimension_weights)

    @classmethod
    def geometric(cls, tau: float, K_max: int, family: CoordinateFamily) -> "SievePrior":
        """pi(k) proportional to exp(-tau k), k = 0..K_max.

        The exponents are shifted by their maximum, which is 0 unless tau < 0,
        so a negative tau does not overflow at large K_max.
        """
        if K_max < 1:
            raise InputError("K_max must be a positive integer")
        log_w = -tau * np.arange(K_max + 1, dtype=float)
        w = np.exp(log_w - log_w.max())
        return cls(w / w.sum(), family, K_max)


@dataclass(frozen=True)
class SobolevSignal:
    """A finite sequence constrained to sum_j j^{2 alpha} theta_j^2 <= B^2."""

    theta: np.ndarray
    alpha: float
    B: float

    def __post_init__(self):
        object.__setattr__(self, "theta", data_array(self.theta, "theta"))
        if not (self.alpha > 0 and self.B > 0):
            raise InputError("alpha and B must be positive")
        # in log space over the nonzero theta_j, since B^2 and j^{2 alpha} overflow, each |theta_j| lowered
        # by half its ulp, the rounding it may carry: under 1.2e-16 relative unless theta_j is subnormal
        nz = np.flatnonzero(self.theta)
        a = np.abs(self.theta[nz])
        terms = 2 * (self.alpha * np.log(nz + 1.0) + np.log(a) + np.log1p(-np.spacing(a) / a / 2))
        if np.logaddexp.reduce(terms, initial=-np.inf) > 2.0 * math.log(self.B) + 1e-9:
            raise InputError("signal violates the smoothness ball constraint")


@dataclass(frozen=True)
class SequenceObservation:
    """Observed sequence y with per-coordinate noise variance 1/n."""

    y: np.ndarray
    n: float

    def __post_init__(self):
        object.__setattr__(self, "y", data_array(self.y, "y"))
        if not self.n > 0:
            raise InputError("n must be positive")


# ---------------------------------------------------------------------------
# the shell posterior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShellPosterior:
    """A product measure on the {k-1, k} dimension shells.

    Coordinates below k carry their tilts, coordinate k mixes a point mass
    at zero (weight p) with its tilt, and every coordinate above k is a
    point mass at zero.  tilts is a (k, 2) array, row j the mean and
    variance of coordinate j + 1's tilt.  The mean-field fit has this form
    with (k_tilde, p_tilde), the empirical-Bayes fit with (k_hat, 0).
    """

    k: int
    p: float
    tilts: np.ndarray
    K_max: int

    def __post_init__(self):
        if not 0 <= self.k <= self.K_max:
            raise InputError(f"k={self.k} outside 0..K_max={self.K_max}")
        if not 0.0 <= self.p < 1.0:
            raise InputError("p must lie in [0, 1)")
        if self.k == 0 and self.p != 0.0:
            raise InputError("p must be 0 when k = 0")
        tilts = data_array(self.tilts, "tilts", ndim=2) if np.size(self.tilts) else np.empty((0, 2))
        if tilts.shape != (self.k, 2):
            raise InputError("need exactly k coordinate tilts, one (mean, variance) row each")
        if not (tilts[:, 1] > 0).all():
            raise InputError("degenerate coordinate tilts are not allowed")
        object.__setattr__(self, "tilts", tilts)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


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
    return _log_weights(prior, ratios[None, :])[0]


def _log_weights(prior: SievePrior, ratios: np.ndarray, reps=None) -> np.ndarray:
    """log_model_weights of each row of an (R, K_max) stack of log evidence ratios.

    A row whose weights all vanish raises NumericError, naming it
    rep=reps[row] when reps is given.
    """
    scores = np.empty((ratios.shape[0], ratios.shape[1] + 1))
    scores[:, 0] = 0.0
    np.cumsum(ratios, axis=1, out=scores[:, 1:])
    scores += prior.log_dimension_weights
    norm = _logsumexp(scores, axis=1, keepdims=True)
    vanished = np.flatnonzero(~np.isfinite(norm))
    if vanished.size:
        where = "" if reps is None else f"rep={reps[vanished[0]]}: "
        raise NumericError(f"{where}all model weights vanished")
    return scores - norm


def _select_shells(log_weights: np.ndarray, mean_field: bool) -> tuple:
    """Each row's shell (k, p) from an (R, K_max + 1) stack of normalized log weights.

    Mean field takes (k_tilde, p_tilde): k_tilde maximizes
    pi(k-1|y) + pi(k|y) (with pi(-1|y) = 0, ties to the smaller index) and
    p_tilde = pi(k_tilde-1|y) / that sum.  Empirical Bayes takes (k_hat, 0)
    with k_hat the most probable k, ties to the smaller k.
    """
    p = np.zeros(log_weights.shape[0])
    if not mean_field:
        return np.argmax(log_weights, axis=1), p
    w = np.exp(log_weights)
    pair = w.copy()
    pair[:, 1:] += w[:, :-1]
    k = np.argmax(pair, axis=1)
    rows = np.flatnonzero(k)
    below, at = w[rows, k[rows] - 1], w[rows, k[rows]]
    p[rows] = below / (below + at)
    return k, p


def _tilts(prior: SievePrior, obs: SequenceObservation, k: int) -> np.ndarray:
    """The (k, 2) means and variances of the tilts of obs's first k coordinates."""
    if k == 0:
        return np.empty((0, 2))
    return np.column_stack(prior.coordinate_family.tilt_moments(obs.y[:k], obs.n))


def _fit_shell(prior, obs, mean_field: bool) -> ShellPosterior:
    k, p = _select_shells(log_model_weights(prior, obs)[None, :], mean_field)
    k = int(k[0])
    return ShellPosterior(k, float(p[0]), _tilts(prior, obs, k), prior.K_max)


def fit_mean_field(prior: SievePrior, obs: SequenceObservation) -> ShellPosterior:
    """Exact mean-field variational posterior, the shell at (k_tilde, p_tilde).

    k_tilde maximizes pi(k-1|y) + pi(k|y) (with pi(-1|y) = 0, ties to the
    smaller index) and p_tilde = pi(k_tilde-1|y) / that sum.
    """
    return _fit_shell(prior, obs, mean_field=True)


def fit_empirical_bayes(prior: SievePrior, obs: SequenceObservation) -> ShellPosterior:
    """Marginal-likelihood posterior, the shell at (k_hat, 0): k_hat maximizes pi(k|y), ties to the smaller k."""
    return _fit_shell(prior, obs, mean_field=False)


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
    means, variances = post.tilts[None, :, 0], post.tilts[None, :, 1]
    return float(_shell_risks(np.array([post.k]), np.array([post.p]), means, variances, signal.theta)[0])


def _shell_risks(k, p, means, variances, theta: np.ndarray) -> np.ndarray:
    """expected_risk of each row's shell (k, p) against theta.

    means and variances are (R, m) tilt moments of the first m >= max(k)
    coordinates, read only below each row's k.  A coordinate below k adds
    variance + (mean - theta)^2, the one at k mixes that with theta^2 by
    p, and each above k adds theta^2; each row sums all K_max terms.
    """
    sq = theta**2
    terms = np.tile(sq, (k.size, 1))
    m = means.shape[1]
    np.copyto(terms[:, :m], variances + (means - theta[:m]) ** 2, where=np.arange(m) < k[:, None])
    rows = np.flatnonzero(k)
    at, mix = k[rows] - 1, p[rows]
    terms[rows, at] = (1.0 - mix) * terms[rows, at] + mix * sq[at]
    return terms.sum(axis=1)


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
        theta = raw * (B * math.sqrt(0.95 / weight))  # B**2 would overflow at huge B
    else:
        raise InputError(f"unknown signal kind {kind!r}")
    return SobolevSignal(theta=theta, alpha=alpha, B=B)


# ---------------------------------------------------------------------------
# KL gap of shell posteriors
# ---------------------------------------------------------------------------


def posterior_kl_gap(prior: SievePrior, obs: SequenceObservation, post: ShellPosterior) -> float:
    """KL(post || posterior), exact, for a shell (k, p) on obs's own tilts.

    The posterior is the mixture over k of the dimension-k shells with the
    same exact tilts, so the divergence is the binary term alone:
    p (log p - lw[k-1]) + (1 - p) (log(1 - p) - lw[k]), or -lw[0] at k = 0.
    For the fits it is their vb_objective: kind 'vb' at k_tilde, 'eb' at
    k_hat.  A shell whose tilts are not obs's raises InputError.
    """
    if not isinstance(post, ShellPosterior):
        raise InputError("post must be a ShellPosterior")
    if post.K_max != prior.K_max:
        raise InputError(f"posterior K_max={post.K_max} differs from the prior's {prior.K_max}")
    lw = log_model_weights(prior, obs)
    k, p = post.k, post.p
    if not np.array_equal(post.tilts, _tilts(prior, obs, k)):
        raise InputError("post's tilts are not the tilts of obs under this prior")
    if k == 0:
        return float(-lw[0])
    gap = (1.0 - p) * (math.log1p(-p) - lw[k])
    if p > 0:
        gap += p * (math.log(p) - lw[k - 1])
    return float(gap)
