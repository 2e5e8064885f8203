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

Count dtype.  A pair's count never exceeds the padded bit width
``8 * B``, so every count kernel returns the narrowest unsigned dtype
holding ``8 * B``: uint8 up to 192 stages (``B <= 24``), uint16 up to
65472 -- the software image of the array's ``log2(N + 1)``-bit counter
TDC.  Callers rank these narrow counts directly; the array widens them
to int64 only where a signed correction is added.

Tiling.  :func:`packed_xor_counts` and :func:`packed_mismatch_counts`
count the query axis in tiles whose XOR (or AND) words fit
``_TILE_BYTES``: ``bits * M * B`` bytes per query for XOR, ``L * M * B``
for the one-hot AND.  Each tile is built, OR-folded, popcounted and
summed while its words are still in cache, straight into its rows of
the one ``(Q, M)`` count matrix, so a call's transient is one tile
however many queries it counts (a query wider than the tile is a tile
of its own).  At 8194 rows x 128 stages and 2 bits that is 3 queries
per tile, where a 32-query batch's words (8 MiB) would stream from
beyond a core's L2 on each of the fold's passes.  Tiling only splits the
independent query axis, so counts are bit-identical to one fold.
"""

from __future__ import annotations

from typing import Optional

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

# XOR (or AND) word bytes one query tile may build (see "Tiling"):
# 1 MiB measured fastest of 256 KiB-4 MiB at 1-3 bits on a core with a
# 2 MiB L2 (docs/PERFORMANCE.md, "Counting in cache-sized tiles").
_TILE_BYTES = 1 << 20


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
    u8 = lv.astype(np.uint8, copy=False)
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


def _words(packed: np.ndarray) -> np.ndarray:
    """A padded uint8 array as the popcount operand: uint64 words along
    the last axis, or contiguous bytes on the LUT path."""
    contiguous = np.ascontiguousarray(packed)
    if not _use_native:
        return contiguous
    if packed.shape[-1] % _WORD_BYTES:
        raise ValueError(
            f"byte width {packed.shape[-1]} is not a multiple of 8"
        )
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
        C-contiguous narrow counts (module docstring), shape ``(Q, M)``.
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
            (masks.shape[0], planes.shape[1]),
            dtype=_count_dtype(masks.shape[2]),
        )
    p = _words(planes)
    m = _words(masks)
    n_rows = p.shape[1]
    n_q = m.shape[0]
    # (L*K, M) x (L*K, Q) operands with the row axis innermost:
    # queries are the short axis on every caller, so the broadcast AND
    # runs long contiguous row loops, and summing the L*K leading slabs
    # leaves C-contiguous (Q, M) counts for the ranking to read.  Each
    # stage bit is set in one level's mask only, so the L*K slabs fold
    # like the words of a single XOR bit-plane.
    p_t = np.ascontiguousarray(p.transpose(0, 2, 1)).reshape(1, -1, n_rows)
    m_t = np.ascontiguousarray(m.transpose(1, 2, 0)).reshape(1, -1, n_q)
    return _tiled_counts(np.bitwise_and, p_t, m_t, masks.shape[2])


def _check_bit_planes(
    stored_bits: np.ndarray, query_bits: np.ndarray
) -> None:
    """Reject stored and query bit-planes that cannot be XORed."""
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


def _count_dtype(byte_width: int) -> np.dtype:
    """The narrowest unsigned dtype holding ``8 * byte_width``."""
    return np.min_scalar_type(8 * byte_width)


def _fold_counts(
    diff: np.ndarray, byte_width: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Mismatch counts from XOR words shaped ``(bits, K, ...)``.

    A stage mismatches iff any bit of its level differs, so the
    bit-planes are OR-folded (in place, into ``diff[0]``), popcounted
    and summed over the ``K`` words of each pair, in the count dtype,
    into ``out`` when given.  A pair's slab popcounts sum to at most
    ``8 * B``, which that dtype holds, so the accumulation cannot
    overflow.
    """
    mism = diff[0]
    for b in range(1, diff.shape[0]):
        np.bitwise_or(mism, diff[b], out=mism)
    pops = popcount(mism)
    dtype = _count_dtype(byte_width)
    if dtype != np.uint8:
        return pops.sum(axis=0, dtype=dtype, out=out)
    # Slab-by-slab uint8 adds beat a uint8 sum over axis 0 (about 2x
    # at 32 x 8192, K = 2), and K = 1 needs no add at all.
    if pops.shape[0] == 1:
        if out is None:
            return pops[0]
        out[...] = pops[0]
        return out
    total = np.add(pops[0], pops[1], out=out)
    for i in range(2, pops.shape[0]):
        np.add(total, pops[i], out=total)
    return total


def _tiled_counts(
    op: np.ufunc, stored: np.ndarray, queries: np.ndarray, byte_width: int
) -> np.ndarray:
    """:func:`_fold_counts` of ``op(stored, queries)`` one query tile at
    a time, into one C-contiguous ``(Q, M)`` count matrix.

    ``stored`` holds word-major ``(P, S, M)`` words and ``queries``
    ``(P, S, Q)``.  A tile broadcasts them to ``(P, S, tile, M)``
    words, ``stored.nbytes`` per query, and takes as many queries as
    :data:`_TILE_BYTES` holds (at least one); the tiles of a call reuse
    one buffer, and a batch that fits one tile is folded as it is.
    """
    n_q = queries.shape[2]
    tile = max(1, _TILE_BYTES // max(1, stored.nbytes))
    if tile >= n_q:
        words = op(stored[:, :, None, :], queries[:, :, :, None])
        return _fold_counts(words, byte_width)
    out = np.empty((n_q, stored.shape[2]), dtype=_count_dtype(byte_width))
    words = np.empty(
        stored.shape[:2] + (tile, stored.shape[2]), dtype=stored.dtype
    )
    for start in range(0, n_q, tile):
        tile_words = words[:, :, :min(tile, n_q - start)]
        op(stored[:, :, None, :], queries[:, :, start:start + tile, None],
           out=tile_words)
        _fold_counts(tile_words, byte_width, out=out[start:start + tile])
    return out


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
        C-contiguous narrow counts (module docstring), shape ``(Q, M)``.
    """
    _check_bit_planes(stored_bits, query_bits)
    n_rows = stored_bits.shape[1]
    n_q = query_bits.shape[1]
    if stored_bits.shape[2] == 0 or n_q == 0:
        return np.zeros(
            (n_q, n_rows), dtype=_count_dtype(stored_bits.shape[2])
        )
    # Same rows-innermost layout as packed_mismatch_counts, with one
    # fused XOR over all bit-planes.
    s_t = np.ascontiguousarray(_words(stored_bits).transpose(0, 2, 1))
    q_t = np.ascontiguousarray(_words(query_bits).transpose(0, 2, 1))
    return _tiled_counts(np.bitwise_xor, s_t, q_t, stored_bits.shape[2])


def packed_pair_counts(
    stored_bits: np.ndarray, query_bits: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """XOR mismatch counts of each query against its own stored rows.

    The gathered form of :func:`packed_xor_counts`: query ``q`` is
    counted only against the stored positions ``rows[q]``, so a routed
    search counts every query's candidates in one call::

        counts[q, w] = popcount(OR_b(stored_bits[b, rows[q, w]]
                                     ^ query_bits[b, q]))

    which equals ``packed_xor_counts(stored_bits, query_bits)[
    arange(Q)[:, None], rows]`` without the ``(Q, M)`` cross product.
    Only the asked-for rows are read: a memmapped corpus is gathered in
    place, never transposed or copied whole.  Each pair allocates
    ``bits * B`` bytes of gathered XOR words, held twice past one word
    (``B > 8``) while they are moved word-major.

    Args:
        stored_bits: uint8 bit-planes of the written levels, shape
            ``(bits, M, B)`` (:func:`pack_bit_planes`).
        query_bits: uint8 bit-planes of the query levels, shape
            ``(bits, Q, B)``, same byte width.
        rows: Integer positions in ``[0, M)`` counted per query, shape
            ``(Q, W)``.

    Returns:
        C-contiguous narrow counts (module docstring), shape ``(Q, W)``.
    """
    _check_bit_planes(stored_bits, query_bits)
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[0] != query_bits.shape[1]:
        raise ValueError(
            f"rows must be (Q, W) with Q = {query_bits.shape[1]}, got "
            f"shape {rows.shape}"
        )
    if stored_bits.shape[2] == 0 or rows.size == 0:
        return np.zeros(rows.shape, dtype=_count_dtype(stored_bits.shape[2]))
    # Only the gathered (bits, Q, W, K) words are moved word-major, so
    # the XOR and the fold run rows innermost, as in packed_xor_counts;
    # at K = 1 the move copies nothing.
    diff = np.ascontiguousarray(
        np.moveaxis(np.take(_words(stored_bits), rows, axis=1), 3, 1)
    )
    q_t = _words(query_bits).transpose(0, 2, 1)
    np.bitwise_xor(diff, q_t[:, :, :, None], out=diff)
    return _fold_counts(diff, stored_bits.shape[2])
