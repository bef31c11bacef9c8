"""Tests for the discrete divergence calculators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vblab.divergences import (
    DiscreteDistribution,
    chain_report,
    chi2_discrete,
    hellinger_discrete,
    kl_discrete,
    renyi_discrete,
    renyi_monotonicity_check,
    tv_discrete,
)
from vblab.errors import InputError


def dd(*probs):
    return DiscreteDistribution(np.array(probs, dtype=float))


def ordered(report, slack: float = 1e-10) -> bool:
    """Whether the report's chain never falls by more than slack; +inf ranks as maximal."""
    chain = report.chain()
    return all(a <= b + slack for a, b in zip(chain, chain[1:]))


def brute_renyi(p, q, rho):
    """Direct finite-sum oracle, no log-space tricks."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf if rho > 1 else total
        total += pi**rho * qi ** (1.0 - rho)
    return math.log(total) / (rho - 1.0)


class TestDiscreteDistribution:
    def test_renormalizes_small_drift(self):
        d = DiscreteDistribution([0.5 + 4e-10, 0.5])
        assert d.probabilities.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_drift(self):
        with pytest.raises(InputError):
            DiscreteDistribution([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            DiscreteDistribution([1.1, -0.1])


class TestRenyiDiscrete:
    def test_point_mass_vs_uniform(self):
        # brute-force oracle: sum p^2/q = 1/0.5 = 2
        p, q = dd(1.0, 0.0), dd(0.5, 0.5)
        expected = brute_renyi([1.0, 0.0], [0.5, 0.5], 2.0)
        assert expected == pytest.approx(math.log(2.0), abs=1e-15)
        assert renyi_discrete(p, q, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_identical_is_zero(self):
        p = dd(0.3, 0.7)
        assert renyi_discrete(p, p, 2.0) == 0.0

    def test_disjoint_supports_infinite(self):
        assert renyi_discrete(dd(1.0, 0.0), dd(0.0, 1.0), 2.0) == math.inf
        assert renyi_discrete(dd(1.0, 0.0), dd(0.0, 1.0), 0.5) == math.inf

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            size = rng.integers(2, 10)
            p = rng.dirichlet(np.ones(size))
            q = rng.dirichlet(np.ones(size))
            for rho in (0.3, 0.5, 2.0, 4.0):
                assert renyi_discrete(dd(*p), dd(*q), rho) == pytest.approx(
                    brute_renyi(p, q, rho), rel=1e-10
                )

    @pytest.mark.parametrize("rho", [0.0, 1.0, -2.0])
    def test_rejects_bad_rho(self, rho):
        with pytest.raises(InputError):
            renyi_discrete(dd(0.5, 0.5), dd(0.5, 0.5), rho)

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError):
            renyi_discrete(dd(0.5, 0.5), dd(0.2, 0.3, 0.5), 2.0)


class TestKlDiscrete:
    def test_identical_is_zero(self):
        p = dd(0.2, 0.3, 0.5)
        assert kl_discrete(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        # direct sum: 1 * log(1/0.5)
        assert kl_discrete(dd(1.0, 0.0), dd(0.5, 0.5)) == pytest.approx(math.log(2.0))

    def test_support_escape_is_infinite(self):
        assert kl_discrete(dd(0.5, 0.5), dd(1.0, 0.0)) == math.inf


class TestHellingerTvChi2:
    def test_identical(self):
        p = dd(0.4, 0.6)
        assert hellinger_discrete(p, p) == 0.0
        assert tv_discrete(p, p) == 0.0
        assert chi2_discrete(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_disjoint(self):
        p, q = dd(1.0, 0.0), dd(0.0, 1.0)
        assert hellinger_discrete(p, q) == 1.0
        assert tv_discrete(p, q) == 1.0
        assert chi2_discrete(p, q) == math.inf

    def test_hellinger_brute_force(self):
        p, q = [0.5, 0.5], [0.9, 0.1]
        expected = math.sqrt(
            0.5 * sum((math.sqrt(a) - math.sqrt(b)) ** 2 for a, b in zip(p, q))
        )
        assert hellinger_discrete(dd(*p), dd(*q)) == pytest.approx(expected, abs=1e-15)

    def test_tv_direct_sum(self):
        assert tv_discrete(dd(0.6, 0.4), dd(0.4, 0.6)) == pytest.approx(0.2, abs=1e-15)


class TestChainReport:
    def test_identical_all_zero(self):
        rep = chain_report(dd(0.3, 0.7), dd(0.3, 0.7))
        np.testing.assert_allclose(rep.chain(), 0.0, atol=1e-12)

    def test_disjoint_supports(self):
        rep = chain_report(dd(1.0, 0.0), dd(0.0, 1.0))
        assert rep.tv == 1.0
        assert rep.hellinger_sq == 1.0
        assert rep.d_half == math.inf
        assert rep.kl == math.inf
        assert rep.d2 == math.inf
        assert rep.chi2 == math.inf
        assert ordered(rep)

    def test_ordering_on_random_dirichlet_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            size = int(rng.integers(2, 16))
            p = dd(*rng.dirichlet(np.ones(size)))
            q = dd(*rng.dirichlet(np.ones(size)))
            assert ordered(chain_report(p, q))

    def test_identities_within_chain(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            size = int(rng.integers(2, 12))
            p = dd(*rng.dirichlet(np.ones(size)))
            q = dd(*rng.dirichlet(np.ones(size)))
            rep = chain_report(p, q)
            assert rep.d2 == pytest.approx(math.log1p(rep.chi2), abs=1e-10)
            assert rep.d_half == pytest.approx(-2 * math.log1p(-rep.hellinger_sq), abs=1e-10)

    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_ordering_property(self, size, seed):
        rng = np.random.default_rng(seed)
        p = dd(*rng.dirichlet(np.ones(size)))
        q = dd(*rng.dirichlet(np.ones(size)))
        assert ordered(chain_report(p, q))


class TestMonotonicity:
    def test_identical_trivially_true(self):
        p = dd(0.5, 0.5)
        assert renyi_monotonicity_check(p, p, [0.5, 2.0, 4.0])

    def test_random_pair(self):
        rng = np.random.default_rng(9)
        p = dd(*rng.dirichlet(np.ones(5)))
        q = dd(*rng.dirichlet(np.ones(5)))
        assert renyi_monotonicity_check(p, q, [0.5, 2.0, 4.0, 8.0])

    def test_half_vs_two_ordering(self):
        p, q = dd(1.0, 0.0), dd(0.5, 0.5)
        d_half = renyi_discrete(p, q, 0.5)
        d_two = renyi_discrete(p, q, 2.0)
        assert d_half <= d_two + 1e-12
        assert renyi_monotonicity_check(p, q, [0.5, 2.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            renyi_monotonicity_check(dd(0.5, 0.5), dd(0.5, 0.5), [])
