"""Reference implementations the exactness suites compare against.

Each recomputes a quantity from first principles, sharing no cache or
kernel with the code under test.
"""

from fractions import Fraction

import numpy as np


def batched_mismatch_counts(queries, vth_a, vth_b, vsl, levels, von):
    """Per-row mismatch counts of a query batch, shape (Q, M).

    Materializes the (Q, M, N) conduction tensor ``F_A on | F_B on``
    straight from per-cell thresholds and reduces it over stages: the
    arithmetic of :meth:`repro.core.array.FastTDAMArray.mismatch_matrix`
    for every query at once.

    Args:
        queries: Query levels, shape (Q, N).
        vth_a: Per-cell F_A thresholds including offsets, shape (M, N).
        vth_b: Per-cell F_B thresholds including offsets, shape (M, N).
        vsl: Search-line ladder indexed by level, shape (levels,).
        levels: Number of storable levels.
        von: Calibrated switch-on overdrive (V).
    """
    queries = np.asarray(queries)
    vsl_a = vsl[queries][:, None, :]
    vsl_b = vsl[levels - 1 - queries][:, None, :]
    fa_on = (vsl_a - vth_a[None, :, :]) >= von
    fb_on = (vsl_b - vth_b[None, :, :]) >= von
    return (fa_on | fb_on).sum(axis=2)


def reference_query_levels(pipeline, features):
    """Query levels of an encode pipeline, from reference kernels.

    Encodes with :meth:`repro.core.mvm.MVMPlan.matmul` replaced by the
    plain int64 product ``acts @ weights.T``, renormalizes the encoding
    in float64 and bins it with ``np.digitize`` over the model's edges:
    the arithmetic of :meth:`repro.hdc.pipeline.EncodePipeline
    .query_levels` with neither the float GEMM nor the comparison-count
    level rule.
    """
    from unittest import mock

    from repro.core.mvm import MVMPlan

    def int64_matmul(plan, activations, bits=None, signed=None):
        return np.asarray(activations).astype(np.int64) @ plan.weights.T

    with mock.patch.object(MVMPlan, "matmul", int64_matmul):
        encoded = pipeline.encode(features)
    q = np.asarray(encoded, dtype=np.float64)
    q = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    return np.digitize(q, pipeline.model.edges).astype(np.int64)


def exact_init_indices(encoded, k, rng):
    """Greedy max-dissimilarity centroid picks in exact rationals.

    The rule of :meth:`repro.hdc.cluster.HDCluster._init_indices` on
    integer samples: the first pick is ``rng.integers(n)``; each next
    pick is the unchosen sample whose closest chosen centroid is least
    close, ties to the lowest index.  Closeness is the ``Fraction``
    key ``d * |d| / (|x|^2 * |c|^2)`` with ``d = x . c`` in Python
    integers (the signed square of the cosine), re-scored over every
    chosen centroid at each step.
    """
    rows = [[int(v) for v in row] for row in np.asarray(encoded)]
    sq = [sum(v * v for v in row) for row in rows]

    def key(i, c):
        d = sum(a * b for a, b in zip(rows[i], rows[c]))
        return Fraction(d * abs(d), sq[i] * sq[c])

    chosen = [int(rng.integers(len(rows)))]
    while len(chosen) < k:
        closeness = [
            (max(key(i, c) for c in chosen), i)
            for i in range(len(rows))
            if i not in chosen
        ]
        chosen.append(min(closeness)[1])
    return chosen


def mask_loop_cluster_fit(cluster, encoded):
    """:meth:`repro.hdc.cluster.HDCluster.fit` with the per-cluster
    boolean-mask centroid update it replaced.

    Each Lloyd step sets centroid ``c`` to ``encoded[assignments ==
    c].sum(axis=0)``, cluster by cluster, and re-seeds an empty cluster
    at the worst-fit sample.  Initialization and scoring reuse the
    cluster's own rules.  Returns the best restart's ``(centroids,
    assignments, iterations, converged)`` and the number of re-seeds
    over all restarts.
    """
    from repro.hdc.metrics import cosine_similarity

    encoded = np.asarray(encoded, dtype=np.float64)
    best, reseeds = None, 0
    for child in np.random.SeedSequence(cluster.seed).spawn(cluster.n_init):
        rng = np.random.default_rng(child)
        centroids = encoded[cluster._init_indices(encoded, rng)]
        assignments = np.full(encoded.shape[0], -1, dtype=np.int64)
        converged, iteration = False, 0
        for iteration in range(1, cluster.max_iterations + 1):
            sims = cosine_similarity(encoded, centroids)
            new_assignments = sims.argmax(axis=1)
            if np.array_equal(new_assignments, assignments):
                converged = True
                break
            assignments = new_assignments
            for c in range(cluster.k):
                members = encoded[assignments == c]
                if len(members):
                    centroids[c] = members.sum(axis=0)
                else:
                    centroids[c] = encoded[sims.max(axis=1).argmin()]
                    reseeds += 1
        score = float(
            cosine_similarity(encoded, centroids).max(axis=1).mean()
        )
        if best is None or score > best[0]:
            best = (score, (centroids, assignments, iteration, converged))
    return best[1], reseeds


def one_shot_xor_counts(stored_bits, query_bits):
    """:func:`repro.core.bitplane.packed_xor_counts` as one fold.

    The kernel's body before it counted in query tiles: every query's
    ``(bits, K, Q, M)`` XOR words are built at once, then OR-folded,
    popcounted and summed by the module's own fold.  Tiling splits
    only the query axis, so the tiled kernel must equal it bit for bit,
    dtype included.
    """
    from repro.core import bitplane

    s_t = np.ascontiguousarray(
        bitplane._words(stored_bits).transpose(0, 2, 1)
    )
    q_t = np.ascontiguousarray(
        bitplane._words(query_bits).transpose(0, 2, 1)
    )
    diff = s_t[:, :, None, :] ^ q_t[:, :, :, None]
    return bitplane._fold_counts(diff, stored_bits.shape[2])


def one_shot_mismatch_counts(planes, masks):
    """:func:`repro.core.bitplane.packed_mismatch_counts` as one fold.

    The one-hot kernel's body before it counted in query tiles: the
    ``(L*K, Q, M)`` AND words of every query at once, folded like the
    words of one XOR bit-plane.
    """
    from repro.core import bitplane

    p = bitplane._words(planes)
    m = bitplane._words(masks)
    n_words = p.shape[0] * p.shape[2]
    p_t = np.ascontiguousarray(p.transpose(0, 2, 1)).reshape(
        n_words, p.shape[1]
    )
    m_t = np.ascontiguousarray(m.transpose(1, 2, 0)).reshape(
        n_words, m.shape[0]
    )
    matched = p_t[:, None, :] & m_t[:, :, None]
    return bitplane._fold_counts(matched[None], masks.shape[2])


def _resolve_best(distances, delays):
    """Smallest distance wins; delay, then row index break ties."""
    order = np.lexsort((np.arange(len(distances)), delays, distances))
    return int(order[0])


def result_from_mismatch_matrix(array, mism, d_c_eff=None):
    """A ``SearchResult`` of a ``FastTDAMArray`` from per-cell decisions.

    The scalar assembly the array used before every search became a
    batch: the delay law ``d_tot = 2 N d_INV + N_mis d_C`` per row (or
    with the per-cell effective adders ``d_c_eff``), the TDC count and
    decode, the energy-table total, and the (distance, delay, row)
    winner.  A dead row enters as an all-True row of ``mism``.
    """
    from repro.core.array import SearchResult

    mism = np.asarray(mism, dtype=bool)
    if mism.shape != (array.n_rows, array.config.n_stages):
        raise ValueError(
            f"mismatch matrix shape {mism.shape} != "
            f"({array.n_rows}, {array.config.n_stages})"
        )
    mismatch_counts = mism.sum(axis=1)
    if d_c_eff is None:
        delays = array._base_delay + mismatch_counts * array._d_c
    else:
        delays = array._base_delay + (mism * d_c_eff).sum(axis=1)
    counts = array.tdc.count_array(delays)
    distances = array.tdc.decode_array(delays)
    energy = float(
        array.timing.search_energy_table()[mismatch_counts].sum()
    )
    return SearchResult(
        delays_s=delays,
        counts=counts,
        hamming_distances=distances,
        best_row=_resolve_best(distances, delays),
        latency_s=float(delays.max()),
        energy_j=energy,
        n_stages=array.config.n_stages,
    )


def fast_search(array, query):
    """One search of a ``FastTDAMArray``, cell by cell.

    The scalar path :meth:`repro.core.array.FastTDAMArray.search` took
    before it became a batch of one: each cell's conduction decision
    from its threshold and the query's search-line voltages, then, off
    nominal timing, each mismatching cell's delay adder modulated by
    the conducting device's overdrive deviation from its nominal one.
    Reads the threshold cache but no level table or count kernel.
    """
    array._check_written()
    q = array.encoding.validate_vector(query)
    if len(q) != array.config.n_stages:
        raise ValueError(
            f"query length {len(q)} != n_stages {array.config.n_stages}"
        )
    levels = array.config.levels
    vth_a, vth_b, vth_a_nom, vth_b_nom = array._thresholds()
    vsl_a = array._vsl[q][None, :]
    vsl_b = array._vsl[levels - 1 - q][None, :]
    fa_on = (vsl_a - vth_a) >= array._von
    fb_on = (vsl_b - vth_b) >= array._von
    mism = fa_on | fb_on
    if array._timing_is_nominal():
        return result_from_mismatch_matrix(array, mism)
    vsl_a_nom = array._vsl_nom[q][None, :]
    vsl_b_nom = array._vsl_nom[levels - 1 - q][None, :]
    dev_a = (vsl_a_nom - vth_a_nom) - (vsl_a - vth_a)
    dev_b = (vsl_b_nom - vth_b_nom) - (vsl_b - vth_b)
    deviation = np.where(fa_on, dev_a, dev_b)
    d_c_eff = array._d_c * np.maximum(
        1.0 + array._delay_sens * deviation, 0.0
    )
    return result_from_mismatch_matrix(array, mism, d_c_eff=d_c_eff)


def faulted_mismatch_matrix(faulty, query):
    """A ``FaultyTDAMArray``'s mismatch decisions with its faults applied.

    Stuck cells override the device-level decision (the last fault on
    a cell wins); a dead row is all-True (its chain never produces an
    edge, so the controller times out at the maximum distance).  Dead
    rows are applied last and dominate any cell fault on the same row.
    """
    from repro.core.faults import FaultType

    mism = faulty.array.mismatch_matrix(query).copy()
    dead_rows = []
    for fault in faulty.faults:
        if fault.kind == FaultType.STUCK_MISMATCH:
            mism[fault.row, fault.stage] = True
        elif fault.kind == FaultType.STUCK_MATCH:
            mism[fault.row, fault.stage] = False
        else:
            dead_rows.append(fault.row)
    for row in dead_rows:
        mism[row, :] = True
    return mism


def faulty_search(faulty, query):
    """One search of a ``FaultyTDAMArray``, cell by cell.

    The scalar path :meth:`repro.core.faults.FaultyTDAMArray.search`
    took before it became a batch of one: the faulted mismatch matrix
    through :func:`result_from_mismatch_matrix` with nominal ``d_C``
    delays.  ``fault_free_search`` is this on a wrapper with no faults.
    """
    return result_from_mismatch_matrix(
        faulty.array, faulted_mismatch_matrix(faulty, query)
    )


def march_bist_loop(bist, array):
    """:meth:`repro.resilience.bist.MarchBIST.run` as one search a probe.

    The march before it searched in blocks: per background, write it to
    every row, search it, then search each single-stage perturbation
    in stage order, each through the scalar :func:`faulty_search` (or
    :func:`fast_search` on a bare array).  Returns the same
    ``DiagnosisReport``.
    """
    from repro.core.faults import FaultyTDAMArray
    from repro.resilience.bist import (
        DiagnosisReport,
        RowDiagnosis,
        default_backgrounds,
    )

    search = faulty_search if isinstance(array, FaultyTDAMArray) else (
        fast_search
    )
    config = array.config
    n_rows = array.n_rows
    n_stages = config.n_stages
    levels = config.levels
    patterns = (
        list(bist.backgrounds)
        if bist.backgrounds is not None
        else default_backgrounds(n_stages, levels)
    )
    n_searches = 0
    n_writes = 0
    baseline = np.zeros(n_rows, dtype=np.int64)
    faulty = [set() for _ in range(n_rows)]
    always_max = np.ones(n_rows, dtype=bool)
    for pattern in patterns:
        pattern = np.asarray(pattern, dtype=np.int64)
        if pattern.shape != (n_stages,):
            raise ValueError(
                f"background shape {pattern.shape} != ({n_stages},)"
            )
        array.write_all(np.tile(pattern, (n_rows, 1)))
        n_writes += n_rows
        d0 = search(array, pattern).hamming_distances
        n_searches += 1
        always_max &= d0 == n_stages
        baseline = np.maximum(baseline, d0)
        for stage in range(n_stages):
            probe = pattern.copy()
            probe[stage] = (probe[stage] + 1) % levels
            d_s = search(array, probe).hamming_distances
            n_searches += 1
            always_max &= d_s == n_stages
            unresponsive = np.flatnonzero(d_s != d0 + 1)
            for row in unresponsive:
                faulty[int(row)].add(stage)
    rows = tuple(
        RowDiagnosis(
            row=r,
            dead=bool(always_max[r]),
            faulty_stages=tuple(sorted(faulty[r]))
            if not always_max[r]
            else (),
            stuck_mismatch_count=int(baseline[r])
            if not always_max[r]
            else n_stages,
        )
        for r in range(n_rows)
    )
    return DiagnosisReport(
        n_rows=n_rows,
        n_stages=n_stages,
        rows=rows,
        n_searches=n_searches,
        n_writes=n_writes,
    )


def resilient_search(array, query):
    """One logical search of a ``ResilientTDAMArray``, row by row.

    The scalar path :meth:`repro.resilience.resilient.ResilientTDAMArray
    .search` took before it became a batch of one: the faulted mismatch
    matrix (:func:`faulted_mismatch_matrix`) with the masked columns
    cleared, :func:`result_from_mismatch_matrix`, then each live logical
    row read from its physical home; retired
    rows read the maximum distance and the controller timeout, and the
    best live row is resolved by (distance, delay, row).  Reads the
    array's state without changing it: no BIST due-check and no search
    count.
    """
    from repro.resilience.resilient import ResilientSearchResult

    mism = faulted_mismatch_matrix(array._backing, query)
    if array._masked:
        mism[:, list(array._masked)] = False
    raw = result_from_mismatch_matrix(array._physical, mism)
    n_rows, n_stages = array.n_rows, array.config.n_stages
    n_eff = n_stages - len(array._masked)
    timeout = array._physical.timing.chain_delay(n_stages)
    distances = np.full(n_rows, n_eff, dtype=np.int64)
    delays = np.full(n_rows, timeout)
    retired = [r for r in range(n_rows) if array._retired_mask[r]]
    live = [r for r in range(n_rows) if r not in retired]
    for r in live:
        phys = int(array._map[r])
        distances[r] = min(int(raw.hamming_distances[phys]), n_eff)
        delays[r] = raw.delays_s[phys]
    if live:
        order = np.lexsort((live, delays[live], distances[live]))
        best = int(live[int(order[0])])
    else:
        best = -1
    live_fraction = len(live) / n_rows
    stage_fraction = n_eff / n_stages
    return ResilientSearchResult(
        hamming_distances=distances,
        delays_s=delays,
        best_row=best,
        latency_s=raw.latency_s,
        energy_j=raw.energy_j,
        n_stages=n_stages,
        n_effective_stages=n_eff,
        degraded=bool(retired),
        confidence=live_fraction * stage_fraction,
        retired_rows=tuple(retired),
        masked_stages=array._masked,
    )


def resilient_top_k(array, queries, k):
    """Per-query top-k logical rows of :func:`resilient_search` results.

    Each query's rows sorted with retired rows last, then by (distance,
    delay, row), the ordering ``ResilientBatchSearchResult.top_k``
    promises, shape (Q, k).
    """
    rows = np.arange(array.n_rows)
    out = np.empty((len(queries), k), dtype=np.int64)
    for i, query in enumerate(queries):
        result = resilient_search(array, query)
        retired = np.isin(rows, result.retired_rows)
        order = np.lexsort(
            (rows, result.delays_s, result.hamming_distances, retired)
        )
        out[i] = order[:k]
    return out
