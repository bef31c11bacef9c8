"""Closed-form divergence calculators and the inequality-chain verifier.

Finite discrete distributions and scalar Gaussians are the two atoms;
every divergence here has an explicit finite formula.  Each discrete
divergence is written once, as a row kernel over (m, s) arrays holding
one distribution pair per row; the scalar functions are its one-row case
and chain_audit checks a whole block of equal-size pairs per call.
Infinite values (absolute-continuity failures) are returned in-band as
``math.inf`` rather than raised, since they are legitimate divergence
values.
"""

import math
from dataclasses import astuple, dataclass

import numpy as np

from ._lse import _logsumexp
from .errors import DomainError, InputError

__all__ = [
    "DiscreteDistribution",
    "ScalarGaussian",
    "DivergenceReport",
    "renyi_discrete",
    "kl_discrete",
    "hellinger_discrete",
    "tv_discrete",
    "chi2_discrete",
    "renyi_gaussian",
    "product_gaussian_divergence",
    "chain_report",
    "renyi_monotonicity_check",
    "check_rho_grid",
    "chain_audit",
]

_NORM_TOL = 1e-9


def _normalized(rows: np.ndarray) -> np.ndarray:
    """Each row of a (m, s) array checked as a probability vector and renormalized.

    Entries must be finite and non-negative, and each row must sum to one
    within 1e-9; such rows are divided by their sums.
    """
    if not np.isfinite(rows).all():
        raise InputError("probabilities must be finite")
    if (rows < 0).any():
        raise InputError("probabilities must be non-negative")
    total = rows.sum(axis=1, keepdims=True)
    drift = np.abs(total - 1.0)
    if (drift > _NORM_TOL).any():
        bad = total[np.argmax(drift), 0]
        raise InputError(f"probabilities sum to {bad}, beyond the 1e-9 drift budget")
    return rows / total


@dataclass(frozen=True)
class DiscreteDistribution:
    """A finite probability vector.

    Entries must be non-negative and sum to one; inputs whose sum drifts
    by at most 1e-9 are renormalized, anything further off is rejected.
    """

    probabilities: np.ndarray

    def __init__(self, probabilities):
        p = np.asarray(probabilities, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise InputError("probabilities must be a non-empty 1-d sequence")
        object.__setattr__(self, "probabilities", _normalized(p[None, :])[0])

    def __len__(self) -> int:
        return self.probabilities.size


@dataclass(frozen=True)
class ScalarGaussian:
    """A univariate Gaussian; variance 0 denotes a point mass."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise InputError("mean and variance must be finite")
        if self.variance < 0:
            raise InputError("variance must be non-negative")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(self.mean, math.sqrt(self.variance), size=size)


def check_rho_grid(rho_grid) -> np.ndarray:
    """rho_grid as a float array: non-empty, strictly increasing, avoiding rho = 1."""
    grid = np.asarray(rho_grid, dtype=float)
    if grid.size == 0:
        raise InputError("rho_grid must be non-empty")
    if np.any(np.diff(grid) <= 0):
        raise InputError("rho_grid must be strictly increasing")
    if not np.all(grid > 0) or np.any(grid == 1.0):
        raise DomainError("rho must lie in (0, 1) or (1, inf)")
    return grid


class _Pairs:
    """Equal-length probability rows p and q, one pair per row.

    Each divergence is a row kernel here: it returns one value per pair,
    with 0 log 0 = 0 and in-band infinities where absolute continuity
    fails.  The scalar functions below are its one-row case.
    """

    def __init__(self, p: np.ndarray, q: np.ndarray):
        if p.shape != q.shape:
            raise InputError(f"length mismatch: {p.shape[-1]} vs {q.shape[-1]}")
        self.p, self.q = p, q
        with np.errstate(divide="ignore"):
            self.log_p, self.log_q = np.log(p), np.log(q)
        self.support = p > 0
        self.both = self.support & (q > 0)
        self.disjoint = ~self.both.any(axis=1)
        self.escape = (self.support & (q == 0)).any(axis=1)  # p-mass where q has none
        self._renyi = {}  # order -> values; the chain and a rho grid share orders

    def renyi(self, rho: float) -> np.ndarray:
        """(rho-1)^{-1} log sum_i p_i^rho q_i^{1-rho} over the cells where both masses live.

        Disjoint supports give inf, and so does any support escape for rho > 1.
        """
        if rho not in self._renyi:
            with np.errstate(invalid="ignore"):  # -inf + inf where q = 0; masked out
                terms = np.where(self.both, rho * self.log_p + (1.0 - rho) * self.log_q, -np.inf)
            value = np.maximum(_logsumexp(terms, axis=1) / (rho - 1.0), 0.0)
            infinite = self.disjoint | self.escape if rho > 1 else self.disjoint
            self._renyi[rho] = np.where(infinite, np.inf, value)
        return self._renyi[rho]

    def kl(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):  # 0 * log 0 cells; masked to 0
            terms = np.where(self.support, self.p * (self.log_p - self.log_q), 0.0)
        return np.where(self.escape, np.inf, terms.sum(axis=1))

    def hellinger(self) -> np.ndarray:
        h2 = 0.5 * ((np.sqrt(self.p) - np.sqrt(self.q)) ** 2).sum(axis=1)
        return np.sqrt(np.clip(h2, 0.0, 1.0))

    def tv(self) -> np.ndarray:
        return 0.5 * np.abs(self.p - self.q).sum(axis=1)

    def chi2(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):  # q = 0 cells; masked out
            terms = np.where(self.support, self.p**2 / self.q, 0.0)
        return np.where(self.escape, np.inf, np.maximum(terms.sum(axis=1) - 1.0, 0.0))

    def report(self) -> tuple:
        """The DivergenceReport fields (tv, hellinger_sq, d_half, kl, d2, chi2) as columns."""
        h = self.hellinger()
        d_half = np.where(h >= 1.0, np.inf, self.renyi(0.5))
        return self.tv(), h * h, d_half, self.kl(), self.renyi(2.0), self.chi2()


def _chain(tv, hellinger_sq, d_half, kl, d2, chi2) -> np.ndarray:
    """The comparison chain of each pair along the last axis."""
    return np.stack([tv * tv, 2 * hellinger_sq, d_half, kl, d2, chi2], axis=-1)


def _non_decreasing(values: np.ndarray, slack: float) -> np.ndarray:
    """Whether each row never falls by more than slack; +inf ranks as maximal."""
    return (values[..., :-1] <= values[..., 1:] + slack).all(axis=-1)


@dataclass(frozen=True)
class DivergenceReport:
    """The six divergences of the comparison chain for one pair.

    Whenever all entries are finite they satisfy
    ``tv**2 <= 2*hellinger_sq <= d_half <= kl <= d2 <= chi2``;
    infinite entries rank as maximal.
    """

    tv: float
    hellinger_sq: float
    d_half: float
    kl: float
    d2: float
    chi2: float

    def chain(self) -> tuple[float, ...]:
        return tuple(_chain(*astuple(self)).tolist())

    def satisfies_ordering(self, slack: float = 1e-10) -> bool:
        return bool(_non_decreasing(np.array(self.chain()), slack))


def _pair(p: DiscreteDistribution, q: DiscreteDistribution) -> _Pairs:
    return _Pairs(p.probabilities[None, :], q.probabilities[None, :])


def renyi_discrete(p: DiscreteDistribution, q: DiscreteDistribution, rho: float) -> float:
    """Order-rho Renyi divergence between two finite distributions.

    Returns (rho-1)^{-1} log sum_i p_i^rho q_i^{1-rho}.  Cells where both
    masses vanish contribute nothing; for rho > 1 any p-mass outside the
    support of q makes the divergence infinite.
    """
    check_rho_grid([rho])
    return float(_pair(p, q).renyi(rho)[0])


def kl_discrete(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Kullback-Leibler divergence with the 0*log(0/q) = 0 convention."""
    return float(_pair(p, q).kl()[0])


def hellinger_discrete(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Hellinger distance sqrt(0.5 * sum (sqrt(p)-sqrt(q))^2), in [0, 1]."""
    return float(_pair(p, q).hellinger()[0])


def tv_discrete(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Total variation distance, 0.5 * sum |p_i - q_i|."""
    return float(_pair(p, q).tv()[0])


def chi2_discrete(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Chi-squared divergence sum p_i^2 / q_i - 1; inf on support escape."""
    return float(_pair(p, q).chi2()[0])


def renyi_gaussian(a: ScalarGaussian, b: ScalarGaussian, rho: float) -> float:
    """Order-rho Renyi divergence between two scalar Gaussians.

    Equal variances s reduce to rho * (mean gap)^2 / (2 s).  In the
    general case the mixed variance  s* = rho*var(b) + (1-rho)*var(a)
    must be positive; for rho > 1 a non-positive s* yields +inf.  Point
    masses are only comparable to themselves (divergence 0).
    """
    if not (rho > 0) or rho == 1.0:
        raise DomainError("rho must lie in (0, 1) or (1, inf)")
    if a == b:
        return 0.0
    if a.variance == 0:
        raise InputError("a point-mass first argument is only comparable to itself")
    if b.variance == 0:
        return math.inf  # no absolute continuity against a point mass
    s_mixed = rho * b.variance + (1.0 - rho) * a.variance
    if s_mixed <= 0:
        return math.inf
    gap = a.mean - b.mean
    log_ratio = (1.0 - rho) * math.log(a.variance) + rho * math.log(b.variance) - math.log(s_mixed)
    return rho * gap * gap / (2.0 * s_mixed) + log_ratio / (2.0 * (rho - 1.0))


def product_gaussian_divergence(theta_a, theta_b, n: float, rho: float) -> float:
    """Renyi divergence between product Gaussian laws with variance 1/n.

    For sequences theta_a, theta_b of equal length this is
    (rho * n / 2) * ||theta_a - theta_b||^2; rho = 1 is allowed and gives
    the Kullback-Leibler value (n/2) * ||.||^2.
    """
    ta = np.asarray(theta_a, dtype=float)
    tb = np.asarray(theta_b, dtype=float)
    if ta.shape != tb.shape:
        raise InputError(f"shape mismatch: {ta.shape} vs {tb.shape}")
    if not n > 0:
        raise DomainError("n must be positive")
    if not rho > 0:
        raise DomainError("rho must be positive")
    return 0.5 * rho * n * float(np.sum((ta - tb) ** 2))


def chain_report(p: DiscreteDistribution, q: DiscreteDistribution) -> DivergenceReport:
    """Evaluate the full divergence chain for one discrete pair."""
    return DivergenceReport(*(float(col[0]) for col in _pair(p, q).report()))


def renyi_monotonicity_check(
    p: DiscreteDistribution, q: DiscreteDistribution, rho_grid, slack: float = 1e-10
) -> bool:
    """True iff the Renyi divergence is non-decreasing along rho_grid.

    The grid must be strictly increasing and avoid rho = 1; +inf ranks
    as maximal so a finite value may never follow an infinite one.
    """
    grid = check_rho_grid(rho_grid)
    pairs = _pair(p, q)
    return bool(_non_decreasing(np.stack([pairs.renyi(r) for r in grid], axis=1), slack)[0])


def chain_audit(p_rows, q_rows, rho_grid, slack: float = 1e-10) -> tuple[int, int, float]:
    """Audit the comparison chain and Renyi monotonicity on many pairs at once.

    p_rows and q_rows are (m, s) arrays holding one distribution per row;
    each row is checked and renormalized as DiscreteDistribution does.
    Returns the number of pairs whose chain_report breaks the ordering
    beyond slack, the number that fail renyi_monotonicity_check, and the
    largest difference between neighbouring finite entries of any chain
    (-inf when no such pair of entries exists).
    """
    grid = check_rho_grid(rho_grid)
    rows = [np.asarray(r, dtype=float) for r in (p_rows, q_rows)]
    if any(r.ndim != 2 or r.shape[1] == 0 for r in rows):
        raise InputError("probability rows must form a non-empty (m, s) array")
    pairs = _Pairs(*map(_normalized, rows))
    chain = _chain(*pairs.report())
    renyi = np.stack([pairs.renyi(r) for r in grid], axis=1)
    lo, hi = chain[:, :-1], chain[:, 1:]
    with np.errstate(invalid="ignore"):  # inf - inf; such links are masked out
        gaps = np.where(np.isfinite(lo) & np.isfinite(hi), lo - hi, -np.inf)
    return (
        int(np.count_nonzero(~_non_decreasing(chain, slack))),
        int(np.count_nonzero(~_non_decreasing(renyi, slack))),
        float(gaps.max(initial=-np.inf)),
    )
