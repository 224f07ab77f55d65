"""Mergeable sketches: HyperLogLog approximate distinct count.

The reference has no sketches (SURVEY §2.5 'absent in reference') — this is
the training-pipeline extension, built the mergeable way the ray guide
prescribes: one sketch per batch inside map_batches, then a tiny merge
stage (sketches are bitwise-max mergeable). Standard HLL with the bias
correction from the published HyperLogLog paper (Flajolet et al.).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from gdal_ray.ops.relational import arrow_group_by, tree_reduce
from gdal_ray.util import canonical_float_keys, hash_column


def hll_sketch(h: np.ndarray, p: int = 12) -> np.ndarray:
    """64-bit-hash HLL registers (2^p buckets of leading-zero ranks)."""
    m = 1 << p
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | np.uint64(1)  # sentinel stops the clz
    # rank = leading zeros of `rest` + 1, vectorized via float log2
    lz = np.zeros(h.size, dtype=np.int64)
    v = rest.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        top = v >> np.uint64(64 - shift)
        has = top == 0
        lz += np.where(has, shift, 0)
        v = np.where(has, v << np.uint64(shift), v)
    rank = lz + 1
    regs = np.zeros(m, dtype=np.int8)
    np.maximum.at(regs, idx, rank.astype(np.int8))
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    m = regs.size
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.power(2.0, -regs.astype(np.float64)).sum()
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # small-range correction
    return float(est)


def approx_count_distinct(ds, col: str, p: int = 12) -> float:
    """Distributed HLL: one register array per batch, bitwise-max merged."""

    def sk(t: pa.Table) -> pa.Table:
        regs = hll_sketch(hash_column(t[col]), p)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    merged = None
    for b in ds.map_batches(sk, batch_format="pyarrow", batch_size=None).iter_batches(
        batch_size=None, batch_format="pyarrow"
    ):
        for buf in b["regs"].to_pylist():
            r = np.frombuffer(buf, dtype=np.int8)
            merged = r.copy() if merged is None else np.maximum(merged, r)
    if merged is None:
        return 0.0
    return hll_estimate(merged)


# ---------------------------------------------------------------------------
# quantiles: mergeable t-digest (continuous, approx) + exact-by-counting
# (integer columns — oracle-checkable against DuckDB quantile_disc)
# ---------------------------------------------------------------------------


def _tdigest_compress(means: np.ndarray, weights: np.ndarray,
                      delta: int = 100):
    """Merge sorted centroids down to ~delta using the k1 scale function
    (Dunning's t-digest merging variant): a centroid may absorb the next
    while the merged weight stays under the local size bound, which is
    tight near q=0/1 and loose in the middle."""
    order = np.argsort(means, kind="mergesort")
    means, weights = means[order], weights[order]
    total = weights.sum()
    out_m, out_w = [], []
    q0 = 0.0
    cur_m, cur_w = float(means[0]), float(weights[0])
    for m, w in zip(means[1:], weights[1:]):
        q2 = q0 + (cur_w + w) / total
        # k1 scale: max centroid span in q-space
        lim = 2.0 * np.sin(np.pi / (2 * delta)) * np.sqrt(
            max(q2 * (1 - q2), 1e-12)) * 2
        if (cur_w + w) / total <= lim:
            cur_m = (cur_m * cur_w + m * w) / (cur_w + w)
            cur_w += w
        else:
            out_m.append(cur_m)
            out_w.append(cur_w)
            q0 += cur_w / total
            cur_m, cur_w = float(m), float(w)
    out_m.append(cur_m)
    out_w.append(cur_w)
    return np.asarray(out_m), np.asarray(out_w)


def tdigest_quantile(means: np.ndarray, weights: np.ndarray, q) -> np.ndarray:
    """Quantile estimate from centroids (linear interpolation between
    centroid means at cumulative mid-weights)."""
    order = np.argsort(means, kind="mergesort")
    m, w = means[order], weights[order]
    cum = np.cumsum(w) - w / 2.0
    cum = cum / w.sum()
    return np.interp(np.atleast_1d(q), cum, m)


def approx_quantiles(ds, col: str, qs, *, delta: int = 100):
    """Distributed t-digest: per-batch centroid partials (bounded ~delta
    rows per block leave each batch), one merge+compress on the driver —
    the same mergeable-sketch shape as HLL. Rank error ~ O(1/delta) at the
    median, tighter in the tails (the k1 scale function's property)."""

    def part(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc_

        v = pc_.cast(t[col], pa.float64()).to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)]
        if v.size == 0:
            return pa.table({"m": pa.array([], pa.float64()),
                             "w": pa.array([], pa.float64())})
        m, w = _tdigest_compress(v, np.ones_like(v), delta)
        return pa.table({"m": pa.array(m), "w": pa.array(w)})

    parts = ds.map_batches(part, batch_format="pyarrow", batch_size=None)
    batches = list(parts.iter_batches(batch_size=None, batch_format="pyarrow"))
    if not batches:
        return np.full(len(np.atleast_1d(qs)), np.nan)
    t = pa.concat_tables(batches)
    m, w = _tdigest_compress(t["m"].to_numpy(), t["w"].to_numpy(), delta)
    return tdigest_quantile(m, w, qs)


def exact_quantiles_int(ds, col: str, qs):
    """EXACT quantiles of an integer-valued column: distribute a
    (value -> count) aggregation (combiner + tree merge; the distinct
    value set is bounded, e.g. token counts), then rank-select on the
    driver. Matches DuckDB quantile_disc exactly (lower-rank convention:
    the smallest value whose cumulative count reaches ceil(q * n))."""
    from gdal_ray.ops.relational import groupby_agg
    from gdal_ray.util import to_arrow

    counts = to_arrow(groupby_agg(ds, [col], [("n", "count_star", None)]))
    if col not in counts.column_names or counts.num_rows == 0:
        # empty input: the groupby yields a schemaless empty table
        return np.full(len(np.atleast_1d(qs)), np.nan)
    counts = counts.filter(pa.compute.is_valid(counts[col]))  # SQL skips NULLs
    v = counts[col].to_numpy(zero_copy_only=False)
    n = counts["n"].to_numpy(zero_copy_only=False)
    if v.size == 0:  # all-null input -> all-NaN quantiles, no crash
        return np.full(len(np.atleast_1d(qs)), np.nan)
    order = np.argsort(v, kind="mergesort")
    v, n = v[order], n[order]
    cum = np.cumsum(n)
    total = cum[-1]
    out = []
    for q in np.atleast_1d(qs):
        rank = max(int(np.ceil(q * total)), 1)
        out.append(v[np.searchsorted(cum, rank)])
    return np.asarray(out)


def groupby_quantiles(ds, by, value: str, qs=(0.5,), *,
                      num_parts: int | None = None,
                      interpolate: bool = False):
    """EXACT per-key quantiles. Default: DuckDB quantile_disc convention
    (the value at 1-based rank ceil(q*n) of the key's sorted non-null
    values); interpolate=True: quantile_cont / percentile_cont (value at
    fractional position q*(n-1), linearly interpolated — float output).
    One hash shuffle by key; within each partition the per-key rank
    select is one sort + vectorized boundary scan — no per-group Python.
    Output columns: by + [f"q{q}" with '.'->'_'] (e.g. q0_5)."""
    from gdal_ray.ops.relational import hash_partition_reduce, sort_segments

    by = list(by)
    qs = [float(q) for q in np.atleast_1d(qs)]
    qnames = ["q" + str(q).replace(".", "_") for q in qs]

    def part(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[value]))  # SQL skips NULLs
        t, starts = sort_segments(t, by, [(value, "ascending")])
        sizes = np.diff(np.append(starts, len(t)))
        vals = t[value]
        out = {c: t[c].take(starts) for c in by}
        for q, qn in zip(qs, qnames):
            if interpolate:
                pos = q * (sizes - 1).astype(np.float64)
                lo = np.floor(pos).astype(np.int64)
                hi = np.minimum(lo + 1, sizes - 1)
                frac = pos - lo
                v = pc.cast(vals, pa.float64()).to_numpy(zero_copy_only=False)
                out[qn] = pa.array(v[starts + lo] * (1.0 - frac)
                                   + v[starts + hi] * frac, pa.float64())
            else:
                rank = np.maximum(np.ceil(q * sizes).astype(np.int64), 1)
                out[qn] = vals.take(starts + rank - 1)
        return pa.table(out)

    return hash_partition_reduce(ds.select_columns(by + [value]), by, part,
                                 num_parts=num_parts)


def exact_quantiles_cont(ds, col: str, qs):
    """EXACT linearly-interpolated quantiles (SQL percentile_cont /
    DuckDB quantile_cont): value at fractional position q*(n-1) of the
    sorted non-null values, interpolated between the two adjacent order
    statistics. Same distributed (value -> count) reduction as
    exact_quantiles_int; only the driver-side rank select differs."""
    from gdal_ray.ops.relational import groupby_agg
    from gdal_ray.util import to_arrow

    counts = to_arrow(groupby_agg(ds, [col], [("n", "count_star", None)]))
    qs_arr = np.atleast_1d(qs).astype(np.float64)
    if col not in counts.column_names or counts.num_rows == 0:
        return np.full(qs_arr.size, np.nan)
    counts = counts.filter(pa.compute.is_valid(counts[col]))
    v = counts[col].to_numpy(zero_copy_only=False).astype(np.float64)
    n = counts["n"].to_numpy(zero_copy_only=False)
    if v.size == 0:
        return np.full(qs_arr.size, np.nan)
    order = np.argsort(v, kind="mergesort")
    v, n = v[order], n[order]
    cum = np.cumsum(n)
    total = int(cum[-1])

    def at_rank(r):  # 0-based order statistic via the counts table
        return v[np.searchsorted(cum, r + 1)]

    out = []
    for q in qs_arr:
        pos = q * (total - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, total - 1)
        frac = pos - lo
        a, b = at_rank(lo), at_rank(hi)
        out.append(a + frac * (b - a))
    return np.asarray(out)


def heavy_hitters(ds, col: str, *, phi: float):
    """EXACT φ-heavy hitters (all values with count >= ceil(φ·N)) in two
    distributed passes — the standard mergeable-summary recipe (Misra-
    Gries; mergeability per Agarwal et al., "Mergeable Summaries", PODS'12
    — public):

    1. Candidate sweep: per-batch value_counts truncated to an MG summary
       of capacity m = 2·ceil(1/φ) (group-sum then subtract the (m+1)-th
       largest count, keep positive — the pairwise MG merge), tree-merged
       to one summary. Guarantees a SUPERSET of every value with true
       count > N/m <= φN/2; summary size is bounded by m regardless of N.
    2. Exact recount: the <= m candidates broadcast via ray.put; one
       map_batches filters + counts them per batch (plus the batch row
       count for N), a tree_reduce sums them to exact counts, and the
       ceil(φ·N) threshold applies to that one small table.

    Returns a pa.Table (value col named as input, "n" int64), count desc /
    value asc — bounded by 1/φ rows, so a driver-side table is safe.
    """
    import pyarrow.compute as pc
    import ray

    m = 2 * int(np.ceil(1.0 / phi))

    def _mg_truncate(t: pa.Table) -> pa.Table:
        g = arrow_group_by(t, [col], [("n", "sum")])
        g = g.rename_columns([col, "n"])
        n = g["n"].to_numpy(zero_copy_only=False)
        if n.size <= m:
            return g
        kth = np.partition(n, n.size - m - 1)[n.size - m - 1]
        keep = n - kth
        mask = keep > 0
        return pa.table({col: g[col].filter(pa.array(mask)),
                         "n": pa.array(keep[mask], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(t[col].combine_chunks())
        p = pa.table({col: vc.field("values"),
                      "n": pc.cast(vc.field("counts"), pa.int64())})
        return _mg_truncate(p)

    summary = tree_reduce(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None),
        _mg_truncate)
    from gdal_ray.util import to_arrow

    cands = to_arrow(summary)[col].combine_chunks()
    ref = ray.put(cands)

    def recount(t: pa.Table) -> pa.Table:
        cv = ray.get(ref)
        v = canonical_float_keys(t, [col])[col].combine_chunks()
        mask = pc.fill_null(pc.is_in(v, value_set=cv), False)
        vc = pc.value_counts(v.filter(mask))
        # the null-key row carries this batch's row count (for N); pyarrow
        # group_by keeps null as its own group through the tree merge
        return pa.concat_tables([
            pa.table({col: vc.field("values"),
                      "n": pc.cast(vc.field("counts"), pa.int64()),
                      "total": pa.array(np.zeros(len(vc), np.int64))}),
            pa.table({col: pa.nulls(1, cv.type),
                      "n": pa.array([0], pa.int64()),
                      "total": pa.array([len(t)], pa.int64())}),
        ])

    def _sum_groups(t: pa.Table) -> pa.Table:
        g = arrow_group_by(t, [col], [("n", "sum"), ("total", "sum")])
        return g.rename_columns([col, "n", "total"])

    agg = to_arrow(tree_reduce(  # <= m + 1 rows
        ds.map_batches(recount, batch_format="pyarrow", batch_size=None),
        _sum_groups))
    total = int(pc.sum(agg["total"]).as_py())
    thresh = int(np.ceil(phi * total))
    counted = agg.filter(pc.is_valid(agg[col])).select([col, "n"])
    out = counted.filter(pc.greater_equal(counted["n"], thresh))
    idx = pc.sort_indices(out, sort_keys=[("n", "descending"),
                                          (col, "ascending")])
    return out.take(idx)
