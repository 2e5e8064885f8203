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


def resilient_search(array, query):
    """One logical search of a ``ResilientTDAMArray``, row by row.

    The scalar path :meth:`repro.resilience.resilient.ResilientTDAMArray
    .search` took before it became a batch of one: the faulted mismatch
    matrix with the masked columns cleared,
    :meth:`repro.core.array.FastTDAMArray.result_from_mismatch_matrix`,
    then each live logical row read from its physical home; retired
    rows read the maximum distance and the controller timeout, and the
    best live row is resolved by (distance, delay, row).  Reads the
    array's state without changing it: no BIST due-check and no search
    count.
    """
    from repro.resilience.resilient import ResilientSearchResult

    mism = array._backing.faulted_mismatch_matrix(query)
    if array._masked:
        mism[:, list(array._masked)] = False
    raw = array._physical.result_from_mismatch_matrix(mism)
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

    Each query's rows sorted by (distance, delay, row), the ordering
    ``ResilientBatchSearchResult.top_k`` promises, shape (Q, k).
    """
    rows = np.arange(array.n_rows)
    out = np.empty((len(queries), k), dtype=np.int64)
    for i, query in enumerate(queries):
        result = resilient_search(array, query)
        order = np.lexsort((rows, result.delays_s, result.hamming_distances))
        out[i] = order[:k]
    return out
