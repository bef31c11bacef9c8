"""Seed derivation, and the streams seeded in bulk against numpy's own seeding."""

import dataclasses

import numpy as np
import pytest

from vblab import harness
from vblab._rng import _SeedWords, derive_seed, generator, generators
from vblab.harness import ExperimentConfig

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, derive_seed(20250810, 400, 7)]


def test_generators_draw_as_default_rng():
    for rng, seed in zip(generators(np.array(SEEDS, dtype=np.uint64)), SEEDS):
        want = np.random.default_rng(seed)
        assert rng.bit_generator.state == want.bit_generator.state
        np.testing.assert_array_equal(rng.standard_normal(9), want.standard_normal(9))
        assert rng.integers(2**63) == want.integers(2**63)
        np.testing.assert_array_equal(rng.choice(3, size=5, p=[0.2, 0.3, 0.5]), want.choice(3, size=5, p=[0.2, 0.3, 0.5]))


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.int64)])
def test_seed_words_refuse_any_other_request(n_words, dtype):
    with pytest.raises(ValueError, match="seed PCG64 alone"):
        _SeedWords(np.zeros(4, dtype=np.uint64)).generate_state(n_words, dtype)


def test_run_experiment_hands_each_replication_its_derived_stream(monkeypatch):
    seen = []

    def runner(params, ns, rngs):
        seen.extend(rngs)
        return [[rng.standard_normal() for rng in n_rngs] for n_rngs in rngs]

    spec = dataclasses.replace(harness.MODELS["gsm_risk"], runner=runner)
    monkeypatch.setitem(harness.MODELS, "gsm_risk", spec)
    master = 2**64 - 5
    harness.run_experiment(ExperimentConfig("gsm_risk", (10, 20, 40), 3, master, {}))
    assert [len(n_rngs) for n_rngs in seen] == [3, 3, 3]
    for n, n_rngs in zip((10, 20, 40), seen):
        for rep, rng in enumerate(n_rngs):
            want = generator(master, n, rep)
            want.standard_normal()
            assert rng.bit_generator.state == want.bit_generator.state
