"""Deterministic seed derivation for reproducible parallel experiments.

Every stochastic routine takes an explicit 64-bit seed; each unit of a run
(a sigma point, a block of replications) derives its own stream seed from
(seed, path...) via numpy's SeedSequence hashing, so units are
statistically independent, can execute in any order or concurrently, and
always replay byte-identically.

``derive_seeds`` derives many units' seeds, and optionally their
generators, in batches: it runs SeedSequence's uint32 mixing as numpy
arithmetic over all rows of a chunk, and PCG64's seeding step on Python
integers, so a long run pays numpy's per-call cost once per chunk instead
of twice per row.  Its results equal ``derive_seed`` and
``default_rng(derive_seed(...))`` exactly; ``tests/test_properties.py``
checks that against numpy itself, so a numpy release that changes either
hash fails there rather than silently.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

import numpy as np

from .distributions import _count

MAX_SEED = 2**64 - 1

# Rows handled per batch: replications per seeded Monte Carlo block
# (funwill.detect), and streams per hashing pass of ``derive_seeds``.
BLOCK = 1024

# Fewest rows ``derive_seeds`` hashes as arrays.  Below it numpy's fixed
# per-call cost outweighs the per-row hashing saved: on a 2-core Xeon VM
# both paths cost about the same at 11 rows (~0.1 ms for seeds, ~0.25 ms
# with generators), and the batch is faster from 12 rows on.
BATCH_MIN = 16

# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx),
# and PCG64's 128-bit LCG multiplier (O'Neill 2014, PCG).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def validate_seed(seed: int) -> int:
    return _count(seed, "seed", least=0, most=MAX_SEED)


def derive_seed(seed: int, *path: int) -> int:
    """Collapse (seed, *path) into a fresh 64-bit stream seed."""
    entropy = [validate_seed(seed), *(_count(p, "seed path entry", least=0) for p in path)]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def derive_seeds(seed: int, paths: Iterable[tuple[int, ...]], generators: bool = False) -> Iterator:
    """``derive_seed(seed, *path)`` for each path, lazily, in chunks of at most BLOCK.

    With ``generators``, each item is ``(s, rng)`` where ``rng`` has the
    bit-generator state of ``default_rng(s)``.  A chunk of BATCH_MIN rows
    or more reuses one generator, reseeded for each item, so an item's
    generator must be used before the next item is drawn.  Shorter chunks
    take the scalar path, ``derive_seed`` and ``default_rng``.
    """
    seed = validate_seed(seed)
    head = _words(seed)
    paths = iter(paths)
    rng = None
    while chunk := list(itertools.islice(paths, BLOCK)):
        if len(chunk) < BATCH_MIN:
            for path in chunk:
                s = derive_seed(seed, *path)
                yield (s, np.random.default_rng(s)) if generators else s
            continue
        entropy = [head + [w for p in path for w in _words(_count(p, "seed path entry", least=0))]
                   for path in chunk]
        (seeds,) = _uint64s(_generate_state(entropy, 2))
        if not generators:
            yield from seeds
            continue
        if rng is None:
            rng = np.random.default_rng(0)  # its state is replaced before each use
        bit_generator = rng.bit_generator
        for s, state in zip(seeds, _pcg64_states(_generate_state([_words(s) for s in seeds], 8))):
            bit_generator.state = state
            yield s, rng


def _words(n: int) -> list[int]:
    """``n`` as SeedSequence reads an int: its 32-bit words, least significant first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``values[k]`` with the k-th of ``len(consts) - 1`` successive constants."""
    v = (values ^ consts[:-1, None]) * consts[1:, None]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = x * _MIX_MULT_L - y * _MIX_MULT_R
    return v ^ (v >> 16)


def _pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's mixed pool, (4, rows), of a (words, rows) uint32 entropy array.

    The steps are SeedSequence.mix_entropy's in its order; each group of
    hashmix calls that reads one word runs as one array operation.
    """
    length, rows = entropy.shape
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + max(length - _POOL_SIZE, 0)))
    head = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
    head[:min(length, _POOL_SIZE)] = entropy[:_POOL_SIZE]
    pool = _hashmix(head, consts[:_POOL_SIZE + 1])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k:k + _POOL_SIZE]))
        k += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, consts[k:k + _POOL_SIZE + 1]))
        k += _POOL_SIZE
    return pool


def _generate_state(entropy: list[list[int]], n_words: int) -> np.ndarray:
    """``SeedSequence(e).generate_state(n_words, np.uint32)`` for each entropy word list, as columns.

    Rows are hashed as arrays in groups of equal entropy length.
    """
    out = np.empty((n_words, len(entropy)), dtype=np.uint32)
    groups: dict[int, list[int]] = {}
    for row, words in enumerate(entropy):
        groups.setdefault(len(words), []).append(row)
    consts = _hash_constants(_INIT_B, _MULT_B, n_words)
    for rows in groups.values():
        pool = _pool(np.array([entropy[row] for row in rows], dtype=np.uint32).T)
        out[:, rows] = _hashmix(pool[np.arange(n_words) % _POOL_SIZE], consts)
    return out


def _uint64s(words: np.ndarray) -> list[list[int]]:
    """Generated uint32 words, (2k, rows), paired as ``generate_state(k, np.uint64)`` pairs them: k lists."""
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").T.tolist()


def _pcg64_states(words: np.ndarray) -> list[dict]:
    """The state of ``PCG64`` seeded with each column's ``generate_state(4, np.uint64)``.

    The four words are the 128-bit initial state and stream, high word
    first.  ``pcg_setseq_128_srandom_r`` sets inc = 2 * stream + 1, steps
    the LCG once from 0, adds the initial state and steps once more.
    """
    states = []
    for init_hi, init_lo, stream_hi, stream_lo in zip(*_uint64s(words)):
        inc = (stream_hi << 65 | stream_lo << 1 | 1) & _MASK128
        state = ((inc + (init_hi << 64 | init_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states
