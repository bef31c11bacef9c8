"""The batched divergence audit against the per-pair loop it replaced.

The per-pair formulas and loop below are the reference: each pair builds
two checked distributions, evaluates every divergence on compacted
support arrays and checks the chain and Renyi monotonicity in Python.
The padded draws are pinned to one default_rng and two dirichlet calls
per pair, which is what they rely on numpy's internals to reproduce.
"""

import math
import tracemalloc

import numpy as np
import pytest

from vblab import divergences, harness
from vblab._lse import _logsumexp
from vblab._rng import derive_seed, generator, generators
from vblab.errors import InputError
from vblab.harness import ExperimentConfig, divergence_chain_report

GRID = [0.25, 0.5, 0.9, 1.5, 2.0, 16.0]


def ref_distribution(p):
    p = np.asarray(p, dtype=float)
    assert np.all(np.isfinite(p)) and np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9
    return p / p.sum()


def ref_renyi(pv, qv, rho):
    if rho > 1 and np.any((pv > 0) & (qv == 0)):
        return math.inf
    both = (pv > 0) & (qv > 0)
    if not np.any(both):
        return math.inf
    log_terms = rho * np.log(pv[both]) + (1.0 - rho) * np.log(qv[both])
    return max(_logsumexp(log_terms) / (rho - 1.0), 0.0)


def ref_kl(pv, qv):
    support = pv > 0
    if np.any(support & (qv == 0)):
        return math.inf
    return float(np.sum(pv[support] * (np.log(pv[support]) - np.log(qv[support]))))


def ref_hellinger(pv, qv):
    h2 = 0.5 * float(np.sum((np.sqrt(pv) - np.sqrt(qv)) ** 2))
    return math.sqrt(min(max(h2, 0.0), 1.0))


def ref_tv(pv, qv):
    return 0.5 * float(np.abs(pv - qv).sum())


def ref_chi2(pv, qv):
    support = pv > 0
    if np.any(support & (qv == 0)):
        return math.inf
    return max(float(np.sum(pv[support] ** 2 / qv[support])) - 1.0, 0.0)


def ref_report(pv, qv):
    """(tv, hellinger_sq, d_half, kl, d2, chi2) of one pair."""
    h = ref_hellinger(pv, qv)
    d_half = math.inf if h >= 1.0 else ref_renyi(pv, qv, 0.5)
    return (ref_tv(pv, qv), h * h, d_half, ref_kl(pv, qv), ref_renyi(pv, qv, 2.0), ref_chi2(pv, qv))


def ref_monotone(pv, qv, grid, slack):
    values = [ref_renyi(pv, qv, float(r)) for r in grid]
    for lo, hi in zip(values, values[1:]):
        if math.isinf(lo) and not math.isinf(hi):
            return False
        if math.isfinite(lo) and math.isfinite(hi) and lo > hi + slack:
            return False
    return True


def dirichlet_pairs(seed, pairs, lo, hi):
    """(size, p, q) per pair as drawn before the batching: a default_rng and two dirichlet calls."""
    out = []
    for i in range(pairs):
        rng = generator(seed, 0, i)
        size = int(rng.integers(lo, hi + 1))
        out.append((size, rng.dirichlet(np.ones(size)), rng.dirichlet(np.ones(size))))
    return out


def ref_chain_report(n_grid, replications, seed, slack, rho_grid):
    ordering_failures = monotonicity_failures = 0
    worst = 0.0
    for _, p, q in dirichlet_pairs(seed, replications, n_grid[0], n_grid[-1]):
        pv, qv = ref_distribution(p), ref_distribution(q)
        tv, h2, d_half, kl, d2, chi2 = ref_report(pv, qv)
        vals = (tv**2, 2 * h2, d_half, kl, d2, chi2)
        gap = max(a - b for a, b in zip(vals, vals[1:]) if math.isfinite(a) and math.isfinite(b))
        worst = max(worst, gap)
        if not all(a <= b + slack for a, b in zip(vals, vals[1:])):
            ordering_failures += 1
        if not ref_monotone(pv, qv, rho_grid, slack):
            monotonicity_failures += 1
    return {
        "pairs": replications,
        "ordering_failures": ordering_failures,
        "monotonicity_failures": monotonicity_failures,
        "max_ordering_gap": worst,
        "slack": slack,
    }


def report(n_grid, replications, seed, slack, rho_grid):
    config = ExperimentConfig(
        model="divergence_chain",
        n_grid=n_grid,
        replications=replications,
        master_seed=seed,
        params={"slack": slack, "rho_grid": rho_grid},
    )
    return divergence_chain_report(config)


# replication counts straddle the 1024-pair block
CASES = [
    ((2, 64), 1, 11, 1e-10, [0.5, 2.0, 4.0, 8.0]),
    ((2, 64), 1023, 12, 0.0, GRID),
    ((2, 64), 1025, 13, 1e-10, [0.5, 2.0, 4.0, 8.0]),
    ((2, 64), 3000, 14, 0.0, GRID),
    ((2, 3), 1, 21, 0.0, GRID),
    ((2, 3), 1023, 22, 0.0, GRID),
    ((2, 3), 1025, 23, 0.0, GRID),
    ((2, 3), 3000, 24, 0.0, GRID),
    ((60, 64), 1, 31, 1e-10, [0.5, 2.0, 4.0, 8.0]),
    ((60, 64), 1023, 32, 0.0, GRID),
    ((60, 64), 1025, 33, 0.0, [0.5, 2.0, 4.0, 8.0]),
    ((60, 64), 3000, 34, 0.0, GRID),
]


@pytest.mark.parametrize("n_grid, replications, seed, slack, rho_grid", CASES)
def test_report_equals_per_pair_loop(n_grid, replications, seed, slack, rho_grid):
    got = report(n_grid, replications, seed, slack, rho_grid)
    assert got == ref_chain_report(n_grid, replications, seed, slack, rho_grid)


def test_known_ordering_failure_is_counted():
    # the one known case that reaches the counting path: 2 h^2 exceeds
    # D_1/2 by rounding for a pair of near-equal two-point distributions
    expected = {
        "pairs": 3000,
        "ordering_failures": 1,
        "monotonicity_failures": 0,
        "max_ordering_gap": 1.202652715667424e-16,
        "slack": 0.0,
    }
    assert ref_chain_report((2, 3), 3000, 5, 0.0, GRID) == expected
    assert report((2, 3), 3000, 5, 0.0, GRID) == expected


def _rows(size, count, rng):
    return np.array([rng.dirichlet(np.ones(size)) for _ in range(count)])


EDGE_PAIRS = {
    "equal": ([0.3, 0.7, 0.0], [0.3, 0.7, 0.0]),
    "zero in p": ([0.0, 0.4, 0.6], [0.2, 0.3, 0.5]),
    "zero in q": ([0.2, 0.3, 0.5], [0.0, 0.4, 0.6]),
    "zero in both": ([0.0, 0.5, 0.5], [0.0, 0.9, 0.1]),
    "disjoint": ([1.0, 0.0, 0.0], [0.0, 0.5, 0.5]),
    "point mass inside": ([0.0, 1.0, 0.0], [0.2, 0.5, 0.3]),
}


@pytest.mark.parametrize("case", ["random", *EDGE_PAIRS])
def test_row_kernels_match_per_pair_values(case):
    if case == "random":
        rng = np.random.default_rng(3)
        p, q = _rows(9, 40, rng), _rows(9, 40, rng)
    else:
        p, q = (np.array([row]) for row in EDGE_PAIRS[case])
    pairs = divergences._Pairs(divergences._normalized(p), divergences._normalized(q))
    ref_pairs = [(ref_distribution(pv), ref_distribution(qv)) for pv, qv in zip(p, q)]
    want = np.array([ref_report(pv, qv) for pv, qv in ref_pairs])
    np.testing.assert_allclose(np.column_stack(pairs.report()), want, rtol=1e-12, atol=1e-15)
    for rho in GRID:
        want = [ref_renyi(pv, qv, rho) for pv, qv in ref_pairs]
        np.testing.assert_allclose(pairs.renyi(rho), want, rtol=1e-12, atol=1e-15)


def test_edge_rows_reach_infinity():
    p, q = (np.array(rows) for rows in zip(*EDGE_PAIRS.values()))
    pairs = divergences._Pairs(p, q)
    tv, h2, d_half, kl, d2, chi2 = pairs.report()
    names = list(EDGE_PAIRS)
    disjoint, escape = names.index("disjoint"), names.index("zero in q")
    assert h2[disjoint] == 1.0 and d_half[disjoint] == math.inf
    assert kl[escape] == d2[escape] == chi2[escape] == math.inf
    assert math.isfinite(d_half[escape])
    assert tv[names.index("equal")] == 0.0 and kl[names.index("equal")] == 0.0


def test_audit_checks_each_row():
    good = np.array([[0.5, 0.5], [0.2, 0.8]])
    for bad in ([0.6, 0.6], [1.2, -0.2], [np.nan, 1.0]):
        with pytest.raises(InputError):
            divergences.chain_audit(good, np.array([[0.5, 0.5], bad]), [0.5, 2.0])
    with pytest.raises(InputError):
        divergences.chain_audit(good, good[:, :1], [0.5, 2.0])
    with pytest.raises(InputError):
        divergences.chain_audit(good, good, [2.0, 0.5])
    assert divergences.chain_audit(good, good[::-1], [0.5, 2.0])[:2] == (0, 0)


def _audit_peak(n_grid, replications):
    tracemalloc.start()
    try:
        report(n_grid, replications, 7, 1e-10, [0.5, 2.0, 4.0, 8.0])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_audit_memory_does_not_grow_with_pairs(monkeypatch):
    # small block caps: pairs of about 1000 cells close a block at about 32
    # pairs, so 96 and 960 pairs are about 3 and 30 blocks
    monkeypatch.setattr(harness, "_AUDIT_PAIRS", 32)
    monkeypatch.setattr(harness, "_AUDIT_CELLS", 1 << 15)
    small, large = _audit_peak((1000, 1063), 96), _audit_peak((1000, 1063), 960)
    assert large <= 1.5 * small


def test_audit_memory_does_not_grow_with_block_of_large_sizes():
    # pairs of 20,000 cells: a block closes on its cell budget, not at 1024 pairs
    small, large = _audit_peak((20_000, 20_001), 16), _audit_peak((20_000, 20_001), 64)
    assert large <= 1.5 * small


SHIPPED_SEED = 20250810  # configs/divcheck.json: 10,000 pairs of sizes 2 to 64


def test_generators_equal_default_rng():
    seeds = [derive_seed(SHIPPED_SEED, 0, i) for i in range(10_000)]
    assert derive_seed(SHIPPED_SEED, 0, np.arange(10_000, dtype=np.uint64)).tolist() == seeds
    seeds += [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    for seed, rng in zip(seeds, generators(seeds)):
        assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state, seed


def test_padded_draws_equal_dirichlet_bits():
    want = dirichlet_pairs(SHIPPED_SEED, 3000, 2, 64)
    blocks = list(harness._pair_blocks(SHIPPED_SEED, 3000, 2, 64))
    assert [b.shape for b in blocks] == [(2, 1024, 64), (2, 1024, 64), (2, 952, 64)]
    ps, qs = np.concatenate(blocks, axis=1)
    for (size, p, q), got_p, got_q in zip(want, ps, qs):
        assert np.array_equal(got_p[:size], p) and np.array_equal(got_q[:size], q)
        assert not got_p[size:].any() and not got_q[size:].any()


@pytest.mark.parametrize("n_grid, seed, slack, rho_grid", [
    ((2, 64), SHIPPED_SEED, 1e-10, [0.5, 2.0, 4.0, 8.0]),
    ((2, 64), 14, 0.0, GRID),
    ((2, 3), 21, 0.0, GRID),  # one 2 h^2 > D_1/2 rounding failure in this block
    ((60, 64), 33, 0.0, GRID),
])
def test_padded_audit_equals_per_size_calls(n_grid, seed, slack, rho_grid):
    # one block of 1024 pairs, audited padded in one call and unpadded once per size
    (ps, qs), = harness._pair_blocks(seed, 1024, *n_grid)
    by_size = {}
    for size, p, q in dirichlet_pairs(seed, 1024, *n_grid):
        by_size.setdefault(size, ([], []))
        by_size[size][0].append(p)
        by_size[size][1].append(q)
    per_size = [divergences.chain_audit(p, q, rho_grid, slack) for p, q in by_size.values()]
    padded = divergences.chain_audit(ps, qs, rho_grid, slack)
    assert padded[:2] == (sum(r[0] for r in per_size), sum(r[1] for r in per_size))
    assert abs(padded[2] - max(r[2] for r in per_size)) <= 1e-15
