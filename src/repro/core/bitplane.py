"""Bit-packed level-plane index for the batched TD-AM search.

For a *written* array the conduction decision of cell ``(m, n)`` depends
only on the query level driven onto its search line: the per-level
mismatch tables built at write time (``FastTDAMArray._level_tables``)
already tabulate it.  This module packs those boolean tables into
``(L, M, ceil(N / 8))`` uint8 **bit-planes** so a batched query reduces
to a bitwise AND plus a population count -- roughly one bit of memory
traffic per cell instead of the eight bytes of the float kernels, the
software analog of the array answering in one time-domain shot.

Layout.  Plane ``[l, m]`` is ``np.packbits`` of row ``m``'s mismatch
decisions against query level ``l`` (stage 0 in the MSB of byte 0,
numpy's packbits convention).  The byte width is padded with zero bytes
to a multiple of 8 so the popcount kernel can reinterpret the planes as
uint64 words; padding bits are zero on both operands of the AND, so
they never contribute to a count.

Popcount.  ``numpy >= 2.0`` exposes a native :func:`numpy.bitwise_count`
ufunc; on older numpy the :func:`popcount` helper falls back to a
256-entry uint8 lookup table (the classic LUT method).  Both paths are
exact on every input, so kernel results are independent of the numpy
version -- the property tests drive the LUT path explicitly.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HAVE_BITWISE_COUNT",
    "POPCOUNT_LUT",
    "pack_bit_planes",
    "pack_level_planes",
    "pack_query_masks",
    "packed_mismatch_counts",
    "packed_pair_counts",
    "packed_stage_bytes",
    "packed_xor_counts",
    "popcount",
]

#: Whether this numpy ships the native popcount ufunc (numpy >= 2.0).
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Set-bit count of every byte value -- the numpy < 2 fallback table.
POPCOUNT_LUT = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)

# Test seam: the property suite flips this to force the LUT path on a
# numpy that has the native ufunc, proving both give identical counts.
_use_native = HAVE_BITWISE_COUNT

# uint64 words per padding quantum; planes are padded so their byte
# width divides evenly into words.
_WORD_BYTES = 8


def popcount(values: np.ndarray) -> np.ndarray:
    """Per-element set-bit count of an unsigned-integer array.

    Uses :func:`numpy.bitwise_count` when available (any unsigned
    dtype), else the :data:`POPCOUNT_LUT` byte table (uint8 input only
    -- exactly what the packed kernels feed it).
    """
    if _use_native:
        return np.bitwise_count(values)
    if values.dtype != np.uint8:
        raise TypeError(
            f"LUT popcount fallback needs uint8 input, got {values.dtype}"
        )
    return POPCOUNT_LUT[values]


def packed_stage_bytes(n_stages: int) -> int:
    """Padded byte width of a packed ``n_stages``-bit plane."""
    if n_stages < 1:
        raise ValueError(f"n_stages must be >= 1, got {n_stages}")
    logical = -(-n_stages // 8)
    return -(-logical // _WORD_BYTES) * _WORD_BYTES


def _pack_padded(bits: np.ndarray) -> np.ndarray:
    """packbits along the last axis, zero-padded to a word multiple."""
    packed = np.packbits(np.asarray(bits, dtype=bool), axis=-1)
    pad = (-packed.shape[-1]) % _WORD_BYTES
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(packed.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    return np.ascontiguousarray(packed)


def pack_level_planes(mismatch_tables: np.ndarray) -> np.ndarray:
    """Pack per-level mismatch tables into uint8 bit-planes.

    Args:
        mismatch_tables: Boolean per-level mismatch decisions, shape
            ``(L, M, N)`` -- entry ``[l, m, n]`` is cell ``(m, n)``'s
            conduction decision against query level ``l``.

    Returns:
        uint8 planes of shape ``(L, M, B)`` with ``B =``
        :func:`packed_stage_bytes`\\ ``(N)``; stage ``n`` lives in bit
        ``7 - n % 8`` of byte ``n // 8``.
    """
    tables = np.asarray(mismatch_tables)
    if tables.ndim != 3:
        raise ValueError(
            f"mismatch tables must be (L, M, N), got shape {tables.shape}"
        )
    return _pack_padded(tables)


def _tail_mask_bytes(n_stages: int, width: int) -> np.ndarray:
    """uint8 mask of ``width`` bytes with only the first ``n_stages``
    bits set (packbits bit order)."""
    mask = np.zeros(width, dtype=np.uint8)
    full, rem = divmod(n_stages, 8)
    mask[:full] = 0xFF
    if rem:
        mask[full] = (0xFF00 >> rem) & 0xFF
    return mask


def pack_bit_planes(levels_mat: np.ndarray, bits: int) -> np.ndarray:
    """Pack each bit of an integer level matrix into stage bit-planes.

    Args:
        levels_mat: Integer levels, shape ``(M, N)``, values in
            ``[0, 2**bits)``.
        bits: Bit width of a level, ``1 <= bits <= 8``.

    Returns:
        uint8 planes of shape ``(bits, M, B)``: plane ``b`` holds bit
        ``b`` of every level, packed and padded exactly like
        :func:`pack_level_planes`.
    """
    lv = np.asarray(levels_mat)
    if lv.ndim != 2:
        raise ValueError(f"levels must be (M, N), got shape {lv.shape}")
    if not 1 <= bits <= 8:
        raise ValueError(f"bits must be in [1, 8], got {bits}")
    u8 = lv.astype(np.uint8)
    extracted = np.empty((bits,) + u8.shape, dtype=np.uint8)
    for b in range(bits):
        np.bitwise_and(u8, 1 << b, out=extracted[b])
    packed = np.packbits(extracted, axis=-1)
    pad = (-packed.shape[-1]) % _WORD_BYTES
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(packed.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    return np.ascontiguousarray(packed)


def _pack_query_masks_pow2(q: np.ndarray, levels: int) -> np.ndarray:
    """Power-of-two fast path of :func:`pack_query_masks`.

    Packs the query's level *bits* once and combines the (possibly
    complemented) bit-planes with word-wide ANDs -- ``L`` comparisons
    over ``(Q, N)`` collapse to ``log2(L)`` packbits plus a handful of
    ops on the packed words.  Complementing flips the zero padding, so
    the tail is explicitly re-zeroed to honor the layout contract.
    """
    bits = levels.bit_length() - 1
    n_q, n = q.shape
    width = packed_stage_bytes(n)
    planes = pack_bit_planes(q, bits)  # (bits, Q, B)
    words = planes.view(np.uint64).reshape(bits, n_q, -1)
    masks = np.empty((n_q, levels, width), dtype=np.uint8)
    out = masks.view(np.uint64).reshape(n_q, levels, -1)
    for level in range(levels):
        acc = None
        for b in range(bits):
            term = words[b] if (level >> b) & 1 else ~words[b]
            acc = term if acc is None else acc & term
        out[:, level, :] = acc
    tail = _tail_mask_bytes(n, width).view(np.uint64)
    out &= tail[None, None, :]
    return masks


def pack_query_masks(queries: np.ndarray, levels: int) -> np.ndarray:
    """Pack a query block into per-level one-hot bit masks.

    Args:
        queries: Validated query levels, shape ``(Q, N)``.
        levels: Number of storable levels ``L``.

    Returns:
        uint8 masks of shape ``(Q, L, B)``: mask ``[q, l]`` has stage
        ``n``'s bit set iff ``queries[q, n] == l``.  Same bit layout and
        padding as :func:`pack_level_planes`, so
        ``mask & plane`` selects exactly the stages whose query level is
        ``l`` *and* whose cell mismatches level ``l``.
    """
    q = np.asarray(queries)
    if q.ndim != 2:
        raise ValueError(f"queries must be (Q, N), got shape {q.shape}")
    if (
        q.shape[0] and q.shape[1]
        and 2 <= levels <= 256 and levels & (levels - 1) == 0
    ):
        return _pack_query_masks_pow2(q, levels)
    onehot = q[:, None, :] == np.arange(levels)[None, :, None]
    return _pack_padded(onehot)


def _as_words(packed: np.ndarray) -> np.ndarray:
    """View a padded uint8 array as uint64 words along the last axis."""
    if packed.shape[-1] % _WORD_BYTES:
        raise ValueError(
            f"byte width {packed.shape[-1]} is not a multiple of 8"
        )
    contiguous = np.ascontiguousarray(packed)
    return contiguous.view(np.uint64)


def packed_mismatch_counts(
    planes: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """Mismatch counts of packed query masks against packed bit-planes.

    Computes ``counts[q, m] = sum_l popcount(masks[q, l] & planes[l, m])``
    -- the packed-popcount form of the batched search reduction.  Exact
    for every input (each stage of query ``q`` is one-hot over levels,
    so each set stage bit is counted exactly once).

    Args:
        planes: uint8 bit-planes, shape ``(L, M, B)``
            (:func:`pack_level_planes`); byte slices ``[:, :, a:b]``
            with word-aligned bounds are accepted.
        masks: uint8 query masks, shape ``(Q, L, B)`` with the same
            byte width.

    Returns:
        int64 counts, shape ``(Q, M)``.
    """
    if planes.ndim != 3 or masks.ndim != 3:
        raise ValueError(
            f"expected (L, M, B) planes and (Q, L, B) masks, got "
            f"{planes.shape} and {masks.shape}"
        )
    if planes.shape[0] != masks.shape[1] or planes.shape[2] != masks.shape[2]:
        raise ValueError(
            f"planes {planes.shape} and masks {masks.shape} disagree on "
            f"levels or byte width"
        )
    if masks.shape[2] == 0 or masks.shape[0] == 0:
        return np.zeros(
            (masks.shape[0], planes.shape[1]), dtype=np.int64
        )
    if _use_native:
        p = _as_words(planes)
        m = _as_words(masks)
    else:
        p = np.ascontiguousarray(planes)
        m = np.ascontiguousarray(masks)
    n_rows = p.shape[1]
    n_q = m.shape[0]
    # (L*K, M) x (L*K, Q) operands put the longest axis (queries)
    # innermost and contiguous, so the broadcast AND runs long inner
    # loops; the reduction then sums L*K contiguous leading slabs.
    # Callers bound Q with their query chunking.
    p_t = np.ascontiguousarray(p.transpose(0, 2, 1)).reshape(-1, n_rows)
    m_t = np.ascontiguousarray(m.transpose(1, 2, 0)).reshape(-1, n_q)
    matched = popcount(p_t[:, :, None] & m_t[:, None, :])
    return matched.sum(axis=0, dtype=np.int64).T


def packed_xor_counts(
    stored_bits: np.ndarray, query_bits: np.ndarray
) -> np.ndarray:
    """Mismatch counts via XOR over packed level *bit*-planes.

    The nominal fast path: when a cell's conduction decision is exactly
    ``stored != query`` (written array, no variation, nominal biases),
    the one-hot reduction over ``L`` level planes collapses to
    ``log2(L)`` XORs -- a stage mismatches iff any bit of its level
    differs::

        counts[q, m] = popcount(OR_b(stored_bits[b, m] ^ query_bits[b, q]))

    Padding bits are zero in both operands, so they never contribute.
    Counts are exact integers, bit-identical to
    :func:`packed_mismatch_counts` over inequality planes.

    Args:
        stored_bits: uint8 bit-planes of the written levels, shape
            ``(bits, M, B)`` (:func:`pack_bit_planes`).
        query_bits: uint8 bit-planes of the query levels, shape
            ``(bits, Q, B)``, same byte width.

    Returns:
        int64 counts, shape ``(Q, M)``.
    """
    if stored_bits.ndim != 3 or query_bits.ndim != 3:
        raise ValueError(
            f"expected (bits, M, B) stored and (bits, Q, B) query planes, "
            f"got {stored_bits.shape} and {query_bits.shape}"
        )
    if (
        stored_bits.shape[0] != query_bits.shape[0]
        or stored_bits.shape[2] != query_bits.shape[2]
    ):
        raise ValueError(
            f"stored {stored_bits.shape} and query {query_bits.shape} "
            f"planes disagree on bits or byte width"
        )
    n_rows = stored_bits.shape[1]
    n_q = query_bits.shape[1]
    if stored_bits.shape[2] == 0 or n_q == 0:
        return np.zeros((n_q, n_rows), dtype=np.int64)
    if _use_native:
        s = _as_words(stored_bits)
        qb = _as_words(query_bits)
    else:
        s = np.ascontiguousarray(stored_bits)
        qb = np.ascontiguousarray(query_bits)
    bits, _, k = s.shape
    # Same long-inner-loop layout as packed_mismatch_counts, with one
    # fused XOR over all bit-planes and an in-place OR-fold.
    s_t = np.ascontiguousarray(s.transpose(0, 2, 1)).reshape(-1, n_rows)
    q_t = np.ascontiguousarray(qb.transpose(0, 2, 1)).reshape(-1, n_q)
    diff = s_t[:, :, None] ^ q_t[:, None, :]
    diff = diff.reshape(bits, k, n_rows, n_q)
    mism = diff[0]
    for b in range(1, bits):
        np.bitwise_or(mism, diff[b], out=mism)
    pops = popcount(mism)
    if k > 1 and 8 * stored_bits.shape[2] <= 255:
        # A pair's slab popcounts sum to at most the real bit width
        # (8B <= 255), so uint8 accumulation cannot overflow.
        total = np.add(pops[0], pops[1])
        for i in range(2, k):
            np.add(total, pops[i], out=total)
        return total.astype(np.int64).T
    return pops.sum(axis=0, dtype=np.int64).T


def packed_pair_counts(
    planes: np.ndarray,
    masks: np.ndarray,
    query_idx: np.ndarray,
    row_idx: np.ndarray,
) -> np.ndarray:
    """Mismatch counts of explicit ``(query, row)`` pairs.

    Instead of the full ``(Q, M)`` cross product, only the given pairs
    are counted -- ``counts[p] = sum_l popcount(masks[query_idx[p], l]
    & planes[l, row_idx[p]])``.  No search path calls it any more; the
    benchmark ledger (``bench/ledger.py``) still binds it by name, so
    it stays until that binding goes.

    Args:
        planes: uint8 bit-planes, shape ``(L, M, B)``.
        masks: uint8 query masks, shape ``(Q, L, B)``.
        query_idx: Query of each pair, shape ``(P,)``.
        row_idx: Row of each pair, shape ``(P,)``.

    Returns:
        int64 counts, shape ``(P,)``.
    """
    if planes.ndim != 3 or masks.ndim != 3:
        raise ValueError(
            f"expected (L, M, B) planes and (Q, L, B) masks, got "
            f"{planes.shape} and {masks.shape}"
        )
    if planes.shape[0] != masks.shape[1] or planes.shape[2] != masks.shape[2]:
        raise ValueError(
            f"planes {planes.shape} and masks {masks.shape} disagree on "
            f"levels or byte width"
        )
    n_pairs = np.asarray(query_idx).shape[0]
    if masks.shape[2] == 0 or n_pairs == 0:
        return np.zeros(n_pairs, dtype=np.int64)
    # (P, L, B/W) operand pair; gather keeps the transient at the
    # survivor count, not the full cross product.
    p = planes.transpose(1, 0, 2)[row_idx]
    m = masks[query_idx]
    if _use_native:
        p = _as_words(p)
        m = _as_words(m)
    else:
        p = np.ascontiguousarray(p)
        m = np.ascontiguousarray(m)
    return popcount(m & p).sum(axis=(1, 2), dtype=np.int64)
