"""Closed-form divergence calculators and the inequality-chain verifier.

Finite discrete distributions and scalar Gaussians are the two atoms;
every divergence here has an explicit finite formula.  Infinite values
(absolute-continuity failures) are returned in-band as ``math.inf``
rather than raised, since they are legitimate divergence values.
"""

import math
from dataclasses import dataclass

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
]

_NORM_TOL = 1e-9


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
        if not np.all(np.isfinite(p)):
            raise InputError("probabilities must be finite")
        if np.any(p < 0):
            raise InputError("probabilities must be non-negative")
        total = p.sum()
        if abs(total - 1.0) > _NORM_TOL:
            raise InputError(f"probabilities sum to {total}, beyond the 1e-9 drift budget")
        object.__setattr__(self, "probabilities", p / total)

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
        return (self.tv**2, 2 * self.hellinger_sq, self.d_half, self.kl, self.d2, self.chi2)

    def satisfies_ordering(self, slack: float = 1e-10) -> bool:
        vals = self.chain()
        return all(a <= b + slack for a, b in zip(vals, vals[1:]))


def _paired(p: DiscreteDistribution, q: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray]:
    if len(p) != len(q):
        raise InputError(f"length mismatch: {len(p)} vs {len(q)}")
    return p.probabilities, q.probabilities


def renyi_discrete(p: DiscreteDistribution, q: DiscreteDistribution, rho: float) -> float:
    """Order-rho Renyi divergence between two finite distributions.

    Returns (rho-1)^{-1} log sum_i p_i^rho q_i^{1-rho}.  Cells where both
    masses vanish contribute nothing; for rho > 1 any p-mass outside the
    support of q makes the divergence infinite.
    """
    if not (rho > 0) or rho == 1.0:
        raise DomainError("rho must lie in (0, 1) or (1, inf)")
    pv, qv = _paired(p, q)
    if rho > 1 and np.any((pv > 0) & (qv == 0)):
        return math.inf
    both = (pv > 0) & (qv > 0)
    if not np.any(both):
        return math.inf
    log_terms = rho * np.log(pv[both]) + (1.0 - rho) * np.log(qv[both])
    val = _logsumexp(log_terms) / (rho - 1.0)
    return max(val, 0.0)


def kl_discrete(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Kullback-Leibler divergence with the 0*log(0/q) = 0 convention."""
    pv, qv = _paired(p, q)
    support = pv > 0
    if np.any(support & (qv == 0)):
        return math.inf
    return float(np.sum(pv[support] * (np.log(pv[support]) - np.log(qv[support]))))


def hellinger_discrete(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Hellinger distance sqrt(0.5 * sum (sqrt(p)-sqrt(q))^2), in [0, 1]."""
    pv, qv = _paired(p, q)
    h2 = 0.5 * float(np.sum((np.sqrt(pv) - np.sqrt(qv)) ** 2))
    return math.sqrt(min(max(h2, 0.0), 1.0))


def tv_discrete(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Total variation distance, 0.5 * sum |p_i - q_i|."""
    pv, qv = _paired(p, q)
    return 0.5 * float(np.abs(pv - qv).sum())


def chi2_discrete(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Chi-squared divergence sum p_i^2 / q_i - 1; inf on support escape."""
    pv, qv = _paired(p, q)
    support = pv > 0
    if np.any(support & (qv == 0)):
        return math.inf
    return max(float(np.sum(pv[support] ** 2 / qv[support])) - 1.0, 0.0)


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
    h = hellinger_discrete(p, q)
    h2 = h * h
    d_half = math.inf if h >= 1.0 else renyi_discrete(p, q, 0.5)
    return DivergenceReport(
        tv=tv_discrete(p, q),
        hellinger_sq=h2,
        d_half=d_half,
        kl=kl_discrete(p, q),
        d2=renyi_discrete(p, q, 2.0),
        chi2=chi2_discrete(p, q),
    )


def renyi_monotonicity_check(
    p: DiscreteDistribution, q: DiscreteDistribution, rho_grid, slack: float = 1e-10
) -> bool:
    """True iff the Renyi divergence is non-decreasing along rho_grid.

    The grid must be strictly increasing and avoid rho = 1; +inf ranks
    as maximal so a finite value may never follow an infinite one.
    """
    grid = np.asarray(rho_grid, dtype=float)
    if grid.size == 0:
        raise InputError("rho_grid must be non-empty")
    if np.any(np.diff(grid) <= 0):
        raise InputError("rho_grid must be strictly increasing")
    if np.any(grid <= 0) or np.any(grid == 1.0):
        raise DomainError("rho values must lie in (0, 1) or (1, inf)")
    values = [renyi_discrete(p, q, float(r)) for r in grid]
    for lo, hi in zip(values, values[1:]):
        if math.isinf(lo) and not math.isinf(hi):
            return False
        if math.isfinite(lo) and math.isfinite(hi) and lo > hi + slack:
            return False
    return True
