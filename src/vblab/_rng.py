"""Deterministic seed derivation for replicated experiments.

Per-replication streams are derived by mixing the master seed with the
experiment coordinates through splitmix64, so replications can run in any
order (or concurrently) and still reproduce bit-identical results.
generators builds the Generators of a block of such streams from seed
words computed for the whole block at once, one Generator at a time, for
callers that draw a little from each of very many streams.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 scrambling round of a 64-bit integer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def derive_seed(master_seed: int, *coords: int) -> int:
    """Mix a master seed with integer coordinates into a stream seed.

    Successive coordinates are folded in with alternating splitmix64
    rounds; distinct (master_seed, coords) tuples map to distinct streams
    with overwhelming probability.  A uint64 array coordinate gives the
    array of seeds, one per entry, since uint64 arithmetic wraps as the
    masks do.
    """
    s = splitmix64(master_seed & _MASK)
    for c in coords:
        s = splitmix64((s ^ ((c & _MASK) * 0xD1342543DE82EF95)) & _MASK)
    return s


def generator(master_seed: int, *coords: int) -> np.random.Generator:
    """A numpy Generator seeded from the mixed (master_seed, coords) stream."""
    return np.random.default_rng(derive_seed(master_seed, *coords))


# numpy's SeedSequence hash on its 4-word pool (bit_generator.pyx, after
# O'Neill's seed_seq)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = (1 << 32) - 1


def _hashmix(words: np.ndarray, const: int, mult: int):
    """SeedSequence's hashmix of a uint32 array, and the hash constant after it."""
    words = words ^ np.uint32(const)
    const = const * mult & _MASK32
    words = words * np.uint32(const)
    return words ^ (words >> np.uint32(16)), const


def _seed_words(seeds) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for each 64-bit seed s, one row each.

    The words are computed for all seeds at once in uint32 array arithmetic:
    a 64-bit seed is at most two entropy words, and the hash fills a short
    entropy out with zero words anyway.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros(seeds.shape, dtype=np.uint32)
    pool, const = [], _INIT_A
    for word in (seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32), zero, zero):
        word, const = _hashmix(word, const, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if dst != src:
                word, const = _hashmix(pool[src], const, _MULT_A)
                mixed = pool[dst] * _MIX_L - word * _MIX_R
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    halves, const = [], _INIT_B
    for i in range(8):
        word, const = _hashmix(pool[i % 4], const, _MULT_B)
        halves.append(word.astype(np.uint64))
    return np.stack([halves[2 * k] | halves[2 * k + 1] << np.uint64(32) for k in range(4)], axis=-1)


class _SeedWords(ISeedSequence):
    """A seed sequence that hands PCG64 the four words SeedSequence would generate for it."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"these words seed PCG64 alone, not {n_words} words of {np.dtype(dtype)}")
        return self.words


def generators(seeds):
    """np.random.default_rng(s) for each 64-bit seed s in turn, with the same draws, seeded in bulk.

    Each Generator's PCG64 is seeded from its row of _seed_words, taken for every s at once,
    instead of from a SeedSequence per seed, which costs several times more.  Each is built
    when asked for, so a caller that draws from each in turn holds one at a time.
    """
    for words in _seed_words(seeds):
        yield np.random.Generator(np.random.PCG64(_SeedWords(words)))
