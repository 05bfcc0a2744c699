"""Bit-packed set kernels.

Subsets of ``range(n)`` are stored little-endian in uint64 words so that
intersections, symmetric differences, and cardinalities reduce to
bitwise ops plus a vectorized popcount. Every graph type in the package
packs its membership data with these helpers; keeping the layout in one
place makes the word-parallel identities easy to audit. ``pack`` and
``unpack`` convert whole rows; ``locate_bit`` (bit j of a row to its
word and mask) and ``list_bits`` (the set bits of packed rows) are the
only code that addresses single bits.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64


def n_words(n: int) -> int:
    """Number of uint64 words covering an ``n``-bit mask."""
    if n < 0:
        raise ValueError(f"negative mask length {n}")
    return (int(n) + WORD_BITS - 1) // WORD_BITS


def pack(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean array along its last axis into uint64 words.

    Bit ``j`` of the packed row is element ``j`` of the input row. The
    word view assumes a little-endian host, which is asserted once at
    import time below. The bytes land in a zeroed word buffer, so the
    tail of the last word stays clear.
    """
    mask = np.asarray(mask, dtype=bool)
    n = mask.shape[-1]
    words = np.zeros(mask.shape[:-1] + (n_words(n),), dtype=np.uint64)
    words.view(np.uint8)[..., :(n + 7) // 8] = np.packbits(
        mask, axis=-1, bitorder="little")
    return words


def unpack(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack`; returns a boolean array of width ``n``."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    bits = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")
    return bits[..., :n].astype(bool)


def popcount(words: np.ndarray, axis=None):
    """Total number of set bits, optionally along an axis.

    Along the last axis the per-word counts are added one word column
    at a time: numpy reduces a short trailing axis row by row, which
    is several times slower on rows of a few words.
    """
    counts = np.bitwise_count(words)
    if axis == -1 and counts.shape[-1]:
        total = counts[..., 0].astype(np.int64)
        for j in range(1, counts.shape[-1]):
            total += counts[..., j]
        return total
    return counts.sum(axis=axis, dtype=np.int64)


def locate_bit(j):
    """(word index, uint64 mask) of bit ``j`` of a packed row; ``j`` is
    an int or an integer array of bit positions."""
    word, bit = np.divmod(j, WORD_BITS)
    return word, np.left_shift(np.uint64(1), np.asarray(bit, dtype=np.uint64))


def list_bits(rows: np.ndarray) -> tuple:
    """(row, j) of every set bit of the packed 2-d ``rows``, in
    row-major order; only nonzero words are unpacked."""
    row, word = np.nonzero(rows)
    bits = np.unpackbits(rows[row, word].view(np.uint8).reshape(-1, 8),
                         axis=1, bitorder="little")
    hit, bit = np.nonzero(bits)
    return row[hit], word[hit] * WORD_BITS + bit


def extract_bit(words: np.ndarray, j: int) -> np.ndarray:
    """Boolean plane of bit ``j`` across an array of packed rows."""
    word, mask = locate_bit(j)
    return (words[..., word] & mask) != 0


def symdiff_sizes(rows: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Hamming distances between each packed row and a single row."""
    return popcount(rows ^ row, axis=-1)


# The uint8 <-> uint64 views above are only valid on little-endian
# hosts; fail loudly rather than corrupt masks on anything exotic.
if np.little_endian is False:  # pragma: no cover
    raise ImportError("homopart.bitops requires a little-endian host")
