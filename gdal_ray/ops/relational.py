"""Relational operator layer — the Ray-Data-native restatement of OGR SQL.

Reference semantics: OGR SQL dialect (doc/source/user/ogr_sql_dialect.rst),
executor ogr/ogrsf_frmts/generic/ogr_gensql.cpp, aggregate accumulators
ogr/ogr_swq.h:374-394 (count + compensated sum + Welford M2 — our partial
(count, mean, M2) combiners with grouped-Welford merge are the distributed
equivalent, stable for mean>>std data), LEFT JOIN
first-match-wins (ogr_sql_dialect.rst:410-441).

Scale design (100 TB rules):
* every aggregation is TWO-LEVEL: a per-batch vectorized partial aggregate
  (pyarrow group_by inside map_batches — the "combiner") followed by a
  groupby over the already-tiny partials. The all-to-all shuffle only ever
  moves one row per (key, block), never the raw rows.
* top-k never globally sorts the input: per-block top-k first, then a final
  sort+limit over num_blocks*k rows (mirrors the reference's ORDER BY ...
  LIMIT 1 single-scan special case, ogr_gensql.cpp:2423-2445, generalized).
* small-side joins are broadcast (ray.put once, zero-copy ray.get per task),
  per the reference's "copy method layer into memory" advice
  (ogrlayer.cpp:5323-5325). No shuffle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa

from gdal_ray.util import canonical_float_keys, default_num_parts, partition_ids
import pyarrow.compute as pc


# ---------------------------------------------------------------------------
# hash-partitioned reduce (the scale-safe merge that tree_reduce picks for
# keyed partials past TREE_MAX_BYTES): every row is routed to hash(key) %
# num_parts, the shuffle key is ONE narrow int64 column, and each partition
# reduces its disjoint key set independently — no single-task funnel.
# ---------------------------------------------------------------------------

_PART_COL = "__part"


def hash_partition_reduce(ds, keys: Sequence[str], reduce_tbl, *, num_parts: int | None = None):
    """Route rows to util.partition_ids(keys) and apply
    reduce_tbl(pa.Table) -> pa.Table within each partition. The partition
    id depends on the key values alone (never on a block's dtypes or null
    mix), so equal keys always meet and a per-partition reduce is globally
    correct for key-local reductions (winner-per-group, distinct, algebraic
    aggregate merges, co-partitioned joins over a tagged union).

    num_parts=None sizes the shuffle to the cluster (8x total CPUs, floor
    256 — measured: 10M-key dedup at 256 parts was ~2x faster than 128;
    a constant would cap a 256-node cluster at single-node widths)."""
    if num_parts is None:
        num_parts = default_num_parts(multiplier=8, floor=256)
    keys = list(keys)

    # schema metadata (b"pandas" from pandas-written parquet) makes a
    # pyarrow schema unhashable, and Ray hashes block schemas when a
    # shuffle concatenates them: rows enter an exchange without it
    parted = ds.map_batches(
        lambda t: t.replace_schema_metadata(None).append_column(
            _PART_COL, pa.array(partition_ids(t, keys, num_parts))),
        batch_format="pyarrow", batch_size=None,
    )

    def reduce_group(t: pa.Table) -> pa.Table:
        return reduce_tbl(t.drop_columns([_PART_COL]))

    return parted.groupby(_PART_COL).map_groups(reduce_group, batch_format="pyarrow")


_LARGE = {pa.string(): pa.large_string(), pa.binary(): pa.large_binary()}


def arrow_group_by(t: pa.Table, keys: Sequence[str], aggs=()) -> pa.Table:
    """t.group_by(keys).aggregate(aggs), single-threaded. pyarrow 16.1
    returns duplicate groups for a string/binary key next to a key that
    holds nulls once a table has more than 32 rows (['a','b']*500 beside an
    all-null date32 gives 226 groups, not 2); the large_string/large_binary
    types group correctly, so a multi-key group_by runs such keys as their
    large types and casts them back. Tables whose keys hold no null, and
    all other keys, are not copied. Float keys go through
    util.canonical_float_keys, so -0.0 and 0.0 (and all NaNs) are one
    group, as in SQL; the output keys carry the canonical values."""
    keys = list(keys)
    t = canonical_float_keys(t, keys)
    nulls = len(keys) > 1 and any(t[k].null_count for k in keys)
    small = {k: t.schema.field(k).type for k in keys
             if nulls and t.schema.field(k).type in _LARGE}
    for k, typ in small.items():
        t = t.set_column(t.column_names.index(k), k, t[k].cast(_LARGE[typ]))
    out = t.group_by(keys, use_threads=False).aggregate(list(aggs))
    for k, typ in small.items():
        out = out.set_column(out.column_names.index(k), k, out[k].cast(typ))
    return out


def key_codes(t: pa.Table, keys: Sequence[str]) -> np.ndarray:
    """One dense int64 code per row, equal exactly where the key tuples are
    equal under the arrow_group_by rule (nulls are one value, floats
    canonical). Dtypes never change, so a null-holding int key stays int."""
    t = canonical_float_keys(t, keys)
    code = np.zeros(len(t), np.int64)
    for k in keys:
        enc = pc.dictionary_encode(t[k].combine_chunks(), null_encoding="encode")
        c = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        code = np.unique(code * len(enc.dictionary) + c, return_inverse=True)[1]
    return code.reshape(-1).astype(np.int64)


def sort_segments(t: pa.Table, keys: Sequence[str], order=()):
    """Stable sort by keys (ascending) then order [(col, "ascending" |
    "descending")], nulls last; returns (sorted table, starts) where starts
    holds the first row of each key group."""
    sort_keys = [(k, "ascending") for k in keys] + list(order)
    if sort_keys:  # pc.sort_indices rejects an empty key list (OVER ())
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
    codes = key_codes(t, keys)
    starts = np.flatnonzero(np.diff(codes, prepend=-1)) if len(t) \
        else np.empty(0, np.int64)
    return t, starts


def segment_positions(starts: np.ndarray, n: int) -> np.ndarray:
    """0-based position of each of n rows inside its segment (sort_segments
    starts)."""
    sizes = np.diff(np.append(starts, n))
    return np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)


def head_k(keys: Sequence[str], order, k: int):
    """A merge fn for tree_reduce / map_batches: the first k rows of each
    key group under order [(col, "ascending" | "descending")], sorted by
    (keys, order)."""
    keys = list(keys)

    def merge(t: pa.Table) -> pa.Table:
        t, starts = sort_segments(t, keys, order)
        return t.filter(pa.array(segment_positions(starts, len(t)) < k))

    return merge


# Fan-in of tree_reduce's final task: it reads at most this many blocks.
TREE_WIDTH = 16
# Largest keyed partial set (bytes, summed over the materialized partial
# blocks) that tree_reduce merges in one final task; past it the partials
# go through hash_partition_reduce. It bounds one task's memory, not speed:
# the tree was faster than the hash exchange at every size measured, up to
# 7.1M partial rows (ROADMAP D2).
TREE_MAX_BYTES = 64 << 20


def tree_reduce(ds, fn, keys: Sequence[str] = ()):
    """Merge a Dataset of partial blocks with fn(pa.Table) -> pa.Table, a
    merge that accepts its own outputs (associative over rows). The one
    merge rule for partials:

    The partials are materialized first, so their size is known from block
    metadata. A keyed merge (fn reduces each key of `keys` on its own rows)
    whose partials hold more than TREE_MAX_BYTES goes through
    hash_partition_reduce(ds, keys, fn): each partition merges its disjoint
    key set, and the result stays lazy. Every other merge is a tree that
    coalesces or skips, never splits: if there are more than TREE_WIDTH
    partial blocks (and rows), one level of repartition(TREE_WIDTH) + fn
    merges runs of adjacent blocks; then repartition(1) + fn merges the
    rest into one block. The final task therefore reads at most TREE_WIDTH
    blocks of fn's output and, for a keyed merge, at most TREE_MAX_BYTES;
    an unkeyed merge (top-k, a bitset) must bound its own partials. The
    merge is not a map_batches with a row-count batch_size: Ray fuses such
    a map into the upstream chain."""
    ds = ds.materialize()
    if keys and ds.size_bytes() > TREE_MAX_BYTES:
        return hash_partition_reduce(ds, keys, fn)
    if ds.num_blocks() > TREE_WIDTH and ds.count() > TREE_WIDTH:
        ds = ds.repartition(TREE_WIDTH).map_batches(
            fn, batch_format="pyarrow", batch_size=None)
    return ds.repartition(1).map_batches(fn, batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# groupby_agg: two-level distributed aggregation
# ---------------------------------------------------------------------------

# spec = (out_name, kind, col); kinds:
_KINDS = {"sum", "count", "count_star", "min", "max", "mean", "std",
          "product", "any", "skew", "kurt", "kurt_pop",
          "cov_samp", "cov_pop", "cov_sum"}

# co-moment kinds: spec col is a (ycol, xcol) PAIR; rows where either side
# is null are dropped (SQL pairwise semantics). cov_sum = C2 =
# sum((x-mx)(y-my)) over pairs, cov_samp = C2/(n-1), cov_pop = C2/n.
_COV_KINDS = {"cov_samp", "cov_pop", "cov_sum"}

# central-moment order each moment kind needs (std -> M2, skewness -> M3,
# kurtosis -> M4); a column shared by several kinds keeps the max order.
# kurt's MERGE needs M3 too (the pairwise M4 identity consumes P3), so
# kurt implies order 4 which implies tracking M3.
_MOMENT_ORDER = {"std": 2, "skew": 3, "kurt": 4, "kurt_pop": 4}


def _partial_plan(specs):
    """Which (col, fn) partials each spec needs. Returns ordered unique list
    of (col, fn), per-spec references, and the per-column max central-moment
    order ({col: 2|3|4}) for std/skew/kurt specs."""
    partials: list[tuple[str, str]] = []

    def need(col, fn):
        key = (col, fn)
        if key not in partials:
            partials.append(key)
        return f"{col}__{fn}"

    moment_orders: dict[str, int] = {}
    cov_pairs: dict[str, tuple[str, str]] = {}
    for _, kind, col in specs:
        if kind in _MOMENT_ORDER:
            moment_orders[col] = max(moment_orders.get(col, 0), _MOMENT_ORDER[kind])
        elif kind in _COV_KINDS:
            ycol, xcol = col
            cov_pairs[f"{ycol}&{xcol}"] = (ycol, xcol)

    plan = {}
    for out, kind, col in specs:
        if kind == "sum":
            plan[out] = ("sum", need(col, "sum"))
        elif kind == "count_star":
            plan[out] = ("count", need("__ones", "sum"))
        elif kind == "count":
            plan[out] = ("count", need(col, "count"))
        elif kind == "min":
            plan[out] = ("min", need(col, "min"))
        elif kind == "max":
            plan[out] = ("max", need(col, "max"))
        elif kind == "mean":
            plan[out] = ("mean", need(col, "sum"), need(col, "count"))
        elif kind == "product":
            # DuckDB PRODUCT returns DOUBLE; the combiner aggregates a
            # float64-cast shadow column (__f_) so int inputs don't overflow
            # in the int64 partial
            plan[out] = ("product", need(f"__f_{col}", "product"))
        elif kind == "any":
            # ANY_VALUE: some non-null value from the group (pyarrow hash
            # "first"; deterministic per merge order, not across cluster
            # layouts — SQL permits any member, so correct but unpinned)
            plan[out] = ("any", need(col, "first"))
        elif kind in _MOMENT_ORDER:
            # Welford-style partials (ogr_swq.h:374-394) generalized to
            # higher central moments: per-batch shifted power sums
            # (__d_..__d4_, shift = batch mean, which kills the
            # E[x^k]-cancellation for mean>>std data) fold into per-key
            # (count, mean, M2[, M3[, M4]]) right after the combine
            # group_by; the grouped merge translates each partial's moments
            # to the combined mean with exact identities.
            order = moment_orders[col]
            need(f"__d_{col}", "sum")
            need(f"__d2_{col}", "sum")
            if order >= 3:
                need(f"__d3_{col}", "sum")
            if order >= 4:
                need(f"__d4_{col}", "sum")
            cnt = need(col, "count")
            if kind == "std":
                plan[out] = ("std", cnt, f"{col}__wmean", f"{col}__wm2")
            elif kind == "skew":
                plan[out] = ("skew", cnt, f"{col}__wm2", f"{col}__wm3")
            else:  # kurt / kurt_pop
                plan[out] = (kind, cnt, f"{col}__wm2", f"{col}__wm4")
        elif kind in _COV_KINDS:
            # pairwise-masked shifted product sums fold into per-key
            # (pair count, mean_x, mean_y, C2) right after the combine
            # group_by; the grouped merge translates C2 between reference
            # means (exact identity), mirroring the M2 machinery.
            ycol, xcol = col
            tag = f"{ycol}&{xcol}"
            need(f"__cn_{tag}", "sum")
            need(f"__cx_{tag}", "sum")
            need(f"__cy_{tag}", "sum")
            need(f"__cxy_{tag}", "sum")
            plan[out] = (kind, f"{tag}__cn", f"{tag}__c2")
        else:
            raise ValueError(f"unknown agg kind {kind}")
    return partials, plan, moment_orders, cov_pairs


def groupby_agg(
    ds,
    keys: Sequence[str],
    specs: Sequence[tuple[str, str, str | None]],
    *,
    round_to: dict[str, int] | None = None,
):
    """Distributed GROUP BY with partial (combiner) aggregation.

    specs: (out_name, kind, col) with kind in sum|count|count_star|min|max|
    mean|std (std = sample stddev, matching DuckDB/OGR STDDEV_SAMP).
    keys=[] gives the OGR-SQL global summary record (ogr_gensql.cpp:1071).
    round_to: {out_name: ndigits} applied to float outputs (both sides of an
    oracle comparison must round identically — parallel float summation is
    order-sensitive).

    After the per-batch combiner, the partials merge through tree_reduce
    keyed by `keys`: the partials are materialized when groupby_agg is
    called; up to TREE_MAX_BYTES of them merge in one final task (after a
    coalescing level past TREE_WIDTH blocks), more go through the hash
    exchange. All aggregates here are algebraic, so both are exact, and
    neither uses Ray's sort-based Aggregate (seconds of fixed overhead per
    call). A global aggregate (keys=[]) over no rows gives one row, as in
    SQL: counts 0, every other aggregate a float64 NULL.
    """
    keys = list(keys)
    round_to = round_to or {}
    partials, plan, moment_orders, cov_pairs = _partial_plan(specs)
    product_cols = sorted({c for _, k, c in specs if k == "product"})
    need_ones = any(c == "__ones" for c, _ in partials)

    global_key = keys
    if not keys:
        global_key = ["__g"]

    def combine(batch: pa.Table) -> pa.Table:
        if not keys:
            batch = batch.append_column(
                "__g", pa.array(np.zeros(len(batch), dtype=np.int8))
            )
        if need_ones:
            batch = batch.append_column(
                "__ones", pa.array(np.ones(len(batch), dtype=np.int64))
            )
        for col in product_cols:
            batch = batch.append_column(
                f"__f_{col}", pc.cast(batch[col], pa.float64())
            )
        m0s = {}
        for col, order in moment_orders.items():
            v = pc.cast(batch[col], pa.float64())
            m0 = pc.mean(v)
            m0s[col] = m0.as_py() if m0.is_valid else 0.0
            d = pc.subtract(v, m0s[col])
            d2 = pc.multiply(d, d)
            batch = batch.append_column(f"__d_{col}", d)
            batch = batch.append_column(f"__d2_{col}", d2)
            if order >= 3:
                batch = batch.append_column(f"__d3_{col}", pc.multiply(d2, d))
            if order >= 4:
                batch = batch.append_column(f"__d4_{col}", pc.multiply(d2, d2))
        cm0s = {}
        for tag, (ycol, xcol) in cov_pairs.items():
            y = pc.cast(batch[ycol], pa.float64())
            x = pc.cast(batch[xcol], pa.float64())
            valid = pc.and_(pc.is_valid(y), pc.is_valid(x))
            nullf = pa.scalar(None, pa.float64())
            ym = pc.if_else(valid, y, nullf)
            xm = pc.if_else(valid, x, nullf)
            my0 = pc.mean(ym)
            mx0 = pc.mean(xm)
            my0 = my0.as_py() if my0.is_valid else 0.0
            mx0 = mx0.as_py() if mx0.is_valid else 0.0
            cm0s[tag] = (my0, mx0)
            dy = pc.subtract(ym, my0)
            dx = pc.subtract(xm, mx0)
            batch = batch.append_column(
                f"__cn_{tag}", pc.cast(valid, pa.int64()))
            batch = batch.append_column(f"__cy_{tag}", dy)
            batch = batch.append_column(f"__cx_{tag}", dx)
            batch = batch.append_column(f"__cxy_{tag}", pc.multiply(dx, dy))
        out = arrow_group_by(batch, global_key, partials)
        names = []
        for name in out.column_names:
            renamed = name
            for col, fn in partials:
                if name == f"{col}_{fn}":
                    renamed = f"{col}__{fn}"
                    break
            names.append(renamed)
        out = out.rename_columns(names)
        # fold the shifted sums into per-key central moments: all central
        # moments are shift-invariant, so partials from batches with
        # different shifts merge exactly (grouped-Welford formula below).
        # With e = sum(d)/n (the key mean's offset from the batch shift):
        #   M2 = sd2 - n e^2
        #   M3 = sd3 - 3 e sd2 + 2 n e^3
        #   M4 = sd4 - 4 e sd3 + 6 e^2 sd2 - 3 n e^4
        for col, order in moment_orders.items():
            def np_sum(name):
                return np.nan_to_num(pc.cast(out[name], pa.float64())
                                     .to_numpy(zero_copy_only=False))
            n = pc.cast(out[f"{col}__count"], pa.float64()).to_numpy(
                zero_copy_only=False)
            drop = [f"__d_{col}__sum", f"__d2_{col}__sum"]
            sd = np_sum(f"__d_{col}__sum")
            sd2 = np_sum(f"__d2_{col}__sum")
            with np.errstate(invalid="ignore", divide="ignore"):
                e = np.where(n > 0, sd / np.maximum(n, 1), 0.0)
                mean = np.where(n > 0, m0s[col] + e, 0.0)
                m2 = np.where(n > 0, sd2 - n * e * e, 0.0)
            cols = {f"{col}__wmean": pa.array(mean),
                    f"{col}__wm2": pa.array(np.maximum(m2, 0.0))}
            if order >= 3:
                sd3 = np_sum(f"__d3_{col}__sum")
                drop.append(f"__d3_{col}__sum")
                m3 = np.where(n > 0, sd3 - 3 * e * sd2 + 2 * n * e ** 3, 0.0)
                cols[f"{col}__wm3"] = pa.array(m3)
            if order >= 4:
                sd4 = np_sum(f"__d4_{col}__sum")
                drop.append(f"__d4_{col}__sum")
                m4 = np.where(
                    n > 0,
                    sd4 - 4 * e * sd3 + 6 * e * e * sd2 - 3 * n * e ** 4,
                    0.0,
                )
                cols[f"{col}__wm4"] = pa.array(np.maximum(m4, 0.0))
            out = out.drop_columns(drop)
            for name, arr in cols.items():
                out = out.append_column(name, arr)
        for tag, _yx in cov_pairs.items():
            def np_sum(name):
                return np.nan_to_num(pc.cast(out[name], pa.float64())
                                     .to_numpy(zero_copy_only=False))
            n = pc.cast(out[f"__cn_{tag}__sum"], pa.float64()).to_numpy(
                zero_copy_only=False)
            n = np.nan_to_num(n)
            sdx = np_sum(f"__cx_{tag}__sum")
            sdy = np_sum(f"__cy_{tag}__sum")
            sdxy = np_sum(f"__cxy_{tag}__sum")
            my0, mx0 = cm0s[tag]
            with np.errstate(invalid="ignore", divide="ignore"):
                nn = np.maximum(n, 1)
                cmx = np.where(n > 0, mx0 + sdx / nn, 0.0)
                cmy = np.where(n > 0, my0 + sdy / nn, 0.0)
                c2 = np.where(n > 0, sdxy - sdx * sdy / nn, 0.0)
            out = out.drop_columns([f"__cn_{tag}__sum", f"__cx_{tag}__sum",
                                    f"__cy_{tag}__sum", f"__cxy_{tag}__sum"])
            out = out.append_column(f"{tag}__cn", pa.array(n.astype(np.int64)))
            out = out.append_column(f"{tag}__cmx", pa.array(cmx))
            out = out.append_column(f"{tag}__cmy", pa.array(cmy))
            out = out.append_column(f"{tag}__c2", pa.array(c2))
        return out

    partial_ds = ds.map_batches(combine, batch_format="pyarrow", batch_size=None)
    if not keys:
        partial_ds = partial_ds.materialize()
        if not partial_ds.count():
            import ray.data as rd

            return rd.from_arrow(pa.table({
                out: pa.array([0], pa.int64()) if kind in ("count", "count_star")
                else pa.nulls(1, pa.float64()) for out, kind, _ in specs}))

    # merge function for partial columns (all algebraic): sum/count -> sum,
    # min -> min, max -> max. The shifted __d_/__d2_ partials were folded
    # into {col}__wmean / {col}__wm2 in combine; those merge via the
    # grouped-Welford formula, not a plain column sum.
    merge_plan = []
    for col, fn in partials:
        # __d*/__c* shifted sums were folded into per-key moments/co-moments
        if col.startswith(("__d", "__cn_", "__cx_", "__cy_", "__cxy_")):
            continue
        pname = f"{col}__{fn}"
        merge_plan.append((pname, "sum" if fn in ("sum", "count") else fn))

    def merge_batch(t: pa.Table) -> pa.Table:
        out = arrow_group_by(t, global_key, merge_plan)
        names = []
        for name in out.column_names:
            for pname, mfn in merge_plan:
                if name == f"{pname}_{mfn}":
                    name = pname
                    break
            names.append(name)
        return out.rename_columns(names)

    def merge_welford(t: pa.Table) -> pa.Table:
        """Merge partial rows per key when central-moment specs are present.
        The Welford pairwise merge generalized to groups AND to higher
        moments: shift every partial mean by the group's first mean (all
        partial means of a key are near each other, so the shifted powers
        stay small — no catastrophic cancellation, unlike raw power sums),
        accumulate power sums P1..P4 about that reference, then translate
        to the combined mean. The plain partials merge through merge_batch
        on the key-sorted table (arrow_group_by emits groups in order of
        first appearance, so its rows line up with the segments); the
        moments are vectorized over ALL groups with np reduceat."""
        t, starts = sort_segments(t, global_key)
        sizes = np.diff(np.append(starts, len(t)))
        out = merge_batch(t)

        def f64(name):
            return np.nan_to_num(pc.cast(t[name], pa.float64())
                                 .to_numpy(zero_copy_only=False))

        for col, order in moment_orders.items():
            n = f64(f"{col}__count")
            mean = f64(f"{col}__wmean")
            m2 = f64(f"{col}__wm2")
            dm = mean - np.repeat(mean[starts], sizes)
            N = np.add.reduceat(n, starts)
            P1 = np.add.reduceat(n * dm, starts)
            P2 = np.add.reduceat(m2 + n * dm * dm, starts)
            with np.errstate(invalid="ignore", divide="ignore"):
                D = np.where(N > 0, P1 / N, 0.0)
                MEAN = mean[starts] + D
                M2 = P2 - N * D * D
            out = out.append_column(f"{col}__wmean", pa.array(MEAN))
            out = out.append_column(f"{col}__wm2", pa.array(np.maximum(M2, 0.0)))
            if order >= 3:
                m3 = f64(f"{col}__wm3")
                P3 = np.add.reduceat(m3 + 3 * dm * m2 + n * dm ** 3, starts)
                M3 = P3 - 3 * D * P2 + 2 * N * D ** 3
                out = out.append_column(f"{col}__wm3", pa.array(M3))
            if order >= 4:
                m4 = f64(f"{col}__wm4")
                P4 = np.add.reduceat(
                    m4 + 4 * dm * m3 + 6 * dm * dm * m2 + n * dm ** 4, starts)
                M4 = P4 - 4 * D * P3 + 6 * D * D * P2 - 3 * N * D ** 4
                out = out.append_column(f"{col}__wm4", pa.array(np.maximum(M4, 0.0)))
        for tag in cov_pairs:
            n = f64(f"{tag}__cn")
            cmx = f64(f"{tag}__cmx")
            cmy = f64(f"{tag}__cmy")
            c2 = f64(f"{tag}__c2")
            dx = cmx - np.repeat(cmx[starts], sizes)
            dy = cmy - np.repeat(cmy[starts], sizes)
            N = np.add.reduceat(n, starts)
            Px = np.add.reduceat(n * dx, starts)
            Py = np.add.reduceat(n * dy, starts)
            P11 = np.add.reduceat(c2 + n * dx * dy, starts)
            with np.errstate(invalid="ignore", divide="ignore"):
                Dx = np.where(N > 0, Px / N, 0.0)
                Dy = np.where(N > 0, Py / N, 0.0)
                C2 = P11 - N * Dx * Dy
            out = out.append_column(f"{tag}__cn", pa.array(N.astype(np.int64)))
            out = out.append_column(f"{tag}__cmx", pa.array(cmx[starts] + Dx))
            out = out.append_column(f"{tag}__cmy", pa.array(cmy[starts] + Dy))
            out = out.append_column(f"{tag}__c2", pa.array(C2))
        return out

    mb = merge_welford if (moment_orders or cov_pairs) else merge_batch
    merged = tree_reduce(partial_ds, mb, keys)

    def finalize(t: pa.Table) -> pa.Table:
        cols = {}
        for k in keys:
            cols[k] = t[k]
        for out, kind, _ in specs:
            p = plan[out]
            if p[0] in ("sum", "min", "max"):
                v = t[p[1]]
            elif p[0] == "count":
                v = pc.cast(t[p[1]], pa.int64())
            elif p[0] == "mean":
                v = pc.divide(
                    pc.cast(t[p[1]], pa.float64()), pc.cast(t[p[2]], pa.float64())
                )
            elif p[0] == "std":
                n = pc.cast(t[p[1]], pa.float64()).to_numpy(zero_copy_only=False)
                m2 = pc.cast(t[p[3]], pa.float64()).to_numpy(zero_copy_only=False)
                with np.errstate(invalid="ignore", divide="ignore"):
                    var = np.where(n > 1, m2 / np.maximum(n - 1.0, 1e-300), np.nan)
                v = pa.array(np.sqrt(np.maximum(var, 0.0)))
            elif p[0] == "product":
                v = pc.cast(t[p[1]], pa.float64())
            elif p[0] in ("cov_samp", "cov_pop", "cov_sum"):
                n = pc.cast(t[p[1]], pa.float64()).to_numpy(zero_copy_only=False)
                c2 = pc.cast(t[p[2]], pa.float64()).to_numpy(zero_copy_only=False)
                with np.errstate(invalid="ignore", divide="ignore"):
                    if p[0] == "cov_samp":
                        ok = n >= 2
                        r = c2 / np.maximum(n - 1, 1e-300)
                    elif p[0] == "cov_pop":
                        ok = n >= 1
                        r = c2 / np.maximum(n, 1e-300)
                    else:
                        ok = n >= 1
                        r = c2
                v = pc.if_else(pa.array(ok), pa.array(r),
                               pa.scalar(None, pa.float64()))
            elif p[0] == "any":
                v = t[p[1]]
            elif p[0] in ("skew", "kurt", "kurt_pop"):
                # DuckDB parity (aggregate/distributive/skew.cpp,kurtosis.cpp):
                # skewness = g1*sqrt(n(n-1))/(n-2), NULL if n<3 or var=0;
                # kurtosis = sample excess G2, NULL if n<4 or var=0;
                # kurtosis_pop = population excess g2, NULL if n<2 or var=0.
                n = pc.cast(t[p[1]], pa.float64()).to_numpy(zero_copy_only=False)
                m2 = pc.cast(t[p[2]], pa.float64()).to_numpy(zero_copy_only=False)
                mk = pc.cast(t[p[3]], pa.float64()).to_numpy(zero_copy_only=False)
                with np.errstate(invalid="ignore", divide="ignore"):
                    var0 = m2 / np.maximum(n, 1)  # population variance
                    if p[0] == "skew":
                        ok = (n >= 3) & (m2 > 0)
                        g1 = (mk / np.maximum(n, 1)) / np.maximum(var0, 1e-300) ** 1.5
                        r = g1 * np.sqrt(np.maximum(n * (n - 1), 0.0)) / np.maximum(n - 2, 1e-300)
                    else:
                        g2 = (mk / np.maximum(n, 1)) / np.maximum(var0, 1e-300) ** 2 - 3.0
                        if p[0] == "kurt":
                            ok = (n >= 4) & (m2 > 0)
                            r = ((n + 1) * g2 + 6) * (n - 1) / np.maximum(
                                (n - 2) * (n - 3), 1e-300)
                        else:
                            ok = (n >= 2) & (m2 > 0)
                            r = g2
                v = pc.if_else(pa.array(ok), pa.array(r),
                               pa.scalar(None, pa.float64()))
            if out in round_to:
                v = pc.round(v, ndigits=round_to[out], round_mode="half_towards_infinity")
            cols[out] = v
        return pa.table(cols)

    return merged.map_batches(finalize, batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# top-k without a global sort
# ---------------------------------------------------------------------------


def topk(ds, sort_cols: Sequence[tuple[str, bool]], k: int):
    """ORDER BY ... LIMIT k. sort_cols = [(col, descending)]. Per-block
    partial top-k, then tree_reduce: the final task reads at most
    TREE_WIDTH*k rows however many blocks the input had (no num_blocks*k
    funnel). No Ray sort anywhere. Runs the input up to the partial top-k
    when called (tree_reduce materializes the partials)."""
    sort_keys = [(c, "descending" if d else "ascending") for c, d in sort_cols]

    def partial(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)  # see hash_partition_reduce
        return t.take(pc.sort_indices(t, sort_keys=sort_keys)[:k])

    return tree_reduce(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None), partial)


# ---------------------------------------------------------------------------
# distinct / count-distinct (two-level)
# ---------------------------------------------------------------------------


def distinct(ds, cols: Sequence[str]):
    """SELECT DISTINCT cols (SWQM_DISTINCT_LIST, ogr_swq.h:322): per-batch
    distinct combiner, then tree_reduce keyed by cols over the survivors
    (one final task up to TREE_MAX_BYTES of survivors, the hash exchange
    past it). Runs the input up to the combiner when called."""
    cols = list(cols)

    def batch_distinct(t: pa.Table) -> pa.Table:
        return arrow_group_by(t.select(cols), cols)

    partial = ds.map_batches(batch_distinct, batch_format="pyarrow", batch_size=None)
    return tree_reduce(partial, batch_distinct, cols)


def count_distinct(ds, col: str) -> int:
    """COUNT(DISTINCT col) — returns a python int (small result)."""
    return distinct(ds, [col]).count()


# ---------------------------------------------------------------------------
# broadcast hash join (small right side)
# ---------------------------------------------------------------------------


def join_tables(lt: pa.Table, rt: pa.Table, *, keys, right_keys=None,
                join_type="inner", use_threads=False) -> pa.Table:
    """pa.Table.join that also carries NESTED payload columns (list/struct/
    map — e.g. embedding list<float> columns), which Acero rejects as
    non-key fields. Nested non-key columns are pulled off both sides,
    the slim join runs with surrogate row indices, and each nested column
    re-attaches via one vectorized take (null surrogate from an outer
    join -> null payload). Column order matches pa.Table.join: left
    columns, then right non-key columns. Float keys of both sides go
    through util.canonical_float_keys, so -0.0 meets 0.0 as in SQL."""
    keys = list(keys)
    right_keys = list(right_keys) if right_keys is not None else keys
    lt = canonical_float_keys(lt, keys)
    rt = canonical_float_keys(rt, right_keys)
    nest_l = [c for c in lt.column_names
              if c not in keys and pa.types.is_nested(lt.schema.field(c).type)]
    nest_r = [c for c in rt.column_names
              if c not in right_keys
              and pa.types.is_nested(rt.schema.field(c).type)]
    if not nest_l and not nest_r:
        return lt.join(rt, keys=keys, right_keys=right_keys,
                       join_type=join_type, use_threads=use_threads)
    order = ([c for c in lt.column_names]
             + [c for c in rt.column_names if c not in right_keys])
    ls = lt.drop_columns(nest_l)
    rs = rt.drop_columns(nest_r)
    if nest_l:
        ls = ls.append_column("__jnl", pa.array(np.arange(len(lt)),
                                                pa.int64()))
    if nest_r:
        rs = rs.append_column("__jnr", pa.array(np.arange(len(rt)),
                                                pa.int64()))
    out = ls.join(rs, keys=keys, right_keys=right_keys,
                  join_type=join_type, use_threads=use_threads)
    for side, cols, src in (("__jnl", nest_l, lt), ("__jnr", nest_r, rt)):
        if not cols:
            continue
        if side not in out.column_names:  # semi/anti: side not emitted
            continue
        idx = out[side].combine_chunks()
        for c in cols:
            out = out.append_column(c, pc.take(src[c].combine_chunks(), idx))
        out = out.drop_columns([side])
    return out.select([c for c in order if c in out.column_names])


def cross_join(ds, right: pa.Table):
    """Cartesian product: the right table broadcasts (ray.put once) and
    each left batch emits len(batch) x len(right) rows via one repeat
    take + one tile take — no shuffle, streams on the left side. A right
    column whose name is also a column of a left batch raises ValueError
    in that batch's task: keeping either side silently would answer a
    reference to the other one with the wrong values."""
    import ray

    rref = ray.put(right)

    def f(t: pa.Table) -> pa.Table:
        r = ray.get(rref)
        clash = sorted(set(r.column_names) & set(t.column_names))
        if clash:
            raise ValueError(f"cross_join: column names on both sides: {clash}")
        n, m = len(t), len(r)
        lt = t.take(pa.array(np.repeat(np.arange(n, dtype=np.int64), m)))
        rt = r.take(pa.array(np.tile(np.arange(m, dtype=np.int64), n)))
        return pa.table({**{c: lt[c] for c in lt.column_names},
                         **{c: rt[c] for c in rt.column_names}})

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def broadcast_join(
    ds,
    right: pa.Table,
    keys: Sequence[str],
    *,
    right_keys: Sequence[str] | None = None,
    how: str = "inner",
    first_match_order: Sequence[str] | None = None,
):
    """Join a Dataset against a broadcast in-memory right side.

    how: "inner" | "left outer". With first_match_order, the right side is
    deduplicated on the key by that ordering before the join — OGR SQL LEFT
    JOIN returns exactly one row per primary row, first match wins
    (ogr_sql_dialect.rst:506-513).
    The right table is ray.put() once; workers ray.get() it zero-copy from
    the local object store (never re-shipped per batch).
    """
    import ray

    keys = list(keys)
    right_keys = list(right_keys) if right_keys is not None else keys
    if first_match_order:
        idx = pc.sort_indices(
            right, sort_keys=[(c, "ascending") for c in list(first_match_order)]
        )
        right = right.take(idx)
        right = arrow_group_by(
            right, right_keys,
            [(c, "first") for c in right.column_names if c not in right_keys])
        right = right.rename_columns(
            [n[:-6] if n.endswith("_first") else n for n in right.column_names]
        )
    ref = ray.put(right)
    join_type = {"inner": "inner", "left": "left outer", "left outer": "left outer"}[how]

    def join_batch(batch: pa.Table) -> pa.Table:
        r = ray.get(ref)
        # Acero rejects joins on differing key types (e.g. an int32
        # parquet key vs an int64 VALUES/derived key): widen the NARROWER
        # side's key to the other's type when both are integers
        for lk, rk in zip(keys, right_keys):
            lt = batch.schema.field(lk).type
            rt = r.schema.field(rk).type
            if lt != rt and pa.types.is_integer(lt) and pa.types.is_integer(rt):
                if lt.bit_width < rt.bit_width:
                    i = batch.column_names.index(lk)
                    batch = batch.set_column(i, lk, pc.cast(batch[lk], rt))
                else:
                    i = r.column_names.index(rk)
                    r = r.set_column(i, rk, pc.cast(r[rk], lt))
        return join_tables(batch, r, keys=keys, right_keys=right_keys,
                           join_type=join_type, use_threads=True)

    return ds.map_batches(join_batch, batch_format="pyarrow", batch_size=None)


def join_hash(left_ds, right_ds, keys: Sequence[str], *,
              right_keys: Sequence[str] | None = None, how: str = "inner",
              suffix: str = "_r", num_parts: int | None = None):
    """Big-big equi join: neither side broadcast. Both sides are
    co-partitioned by hash(keys) through the tagged-union shuffle (the
    same partition-disjoint machinery as semi_join_hash); each partition
    runs pyarrow's native hash join locally — globally correct because
    equal keys always land in the same partition.

    how: "inner" | "left" | "right" | "full" (outer). Output columns: the
    join keys once (left names, coalesced in outer joins), then left
    non-key columns, then right non-key columns (suffixed on collision).
    Use broadcast_join when one side fits in memory — one shuffle cheaper.
    """
    keys = list(keys)
    right_keys = list(right_keys) if right_keys is not None else keys
    jt = {"inner": "inner", "left": "left outer",
          "right": "right outer", "full": "full outer"}[how]
    lsch, rsch = left_ds.schema(), right_ds.schema()
    ltypes = dict(zip(lsch.names, lsch.types))
    rtypes = dict(zip(rsch.names, rsch.types))
    lextra = [c for c in lsch.names if c not in keys]
    rextra0 = [c for c in rsch.names if c not in right_keys]
    ren = {c: (c + suffix if c in ltypes else c) for c in rextra0}
    rextra = [ren[c] for c in rextra0]
    side_col = "__jh_side"
    out_cols = keys + lextra + rextra

    def tag_left(t: pa.Table) -> pa.Table:
        cols = {c: t[c] for c in keys + lextra}
        for c0, c in ren.items():
            cols[c] = pa.nulls(len(t), rtypes[c0])
        cols[side_col] = pa.array(np.zeros(len(t), np.int8))
        return pa.table(cols)

    def tag_right(t: pa.Table) -> pa.Table:
        cols = {k: pc.cast(t[rk], ltypes[k])
                for k, rk in zip(keys, right_keys)}
        for c in lextra:
            cols[c] = pa.nulls(len(t), ltypes[c])
        for c0, c in ren.items():
            cols[c] = t[c0]
        cols[side_col] = pa.array(np.ones(len(t), np.int8))
        return pa.table(cols)

    left = left_ds.map_batches(tag_left, batch_format="pyarrow",
                               batch_size=None)
    right = right_ds.map_batches(tag_right, batch_format="pyarrow",
                                 batch_size=None)

    def probe(t: pa.Table) -> pa.Table:
        side = t[side_col].to_numpy(zero_copy_only=False)
        lt = t.filter(pa.array(side == 0)).select(keys + lextra)
        rt = t.filter(pa.array(side == 1)).select(keys + rextra)
        out = join_tables(lt, rt, keys=keys, join_type=jt,
                          use_threads=False)
        return out.select(out_cols)

    return hash_partition_reduce(left.union(right), keys, probe,
                                 num_parts=num_parts)


def pivot(ds, *, index: Sequence[str], column: str, value: str,
          agg: str = "sum", values: Sequence | None = None):
    """Long -> wide: one output column per distinct value of `column`,
    aggregated with `agg` (sum/count/min/max/mean — null when a cell has
    no rows, matching SQL's SUM(CASE WHEN ...) with no ELSE). The pivot
    value set is small by contract (it becomes the schema); if not given
    it is computed with one distinct pass. The reshape itself is a
    map_batches column fan + the standard combiner groupby — one shuffle,
    wide rows only."""
    from gdal_ray.util import to_arrow

    index = list(index)
    if values is None:
        vals_t = to_arrow(distinct(
            ds.map_batches(lambda t, c=column: t.select([c]),
                           batch_format="pyarrow", batch_size=None),
            [column]))
        values = sorted(v for v in vals_t[column].to_pylist()
                        if v is not None)
    values = list(values)

    def widen(t: pa.Table) -> pa.Table:
        cols = {c: t[c] for c in index}
        cv, vv = t[column], t[value]
        nulls = pa.nulls(len(t), t.schema.field(value).type)
        for i, v in enumerate(values):
            m = pc.fill_null(pc.equal(cv, pa.scalar(v)), False)
            cols[f"__pv{i}"] = pc.if_else(m, vv, nulls)
        return pa.table(cols)

    wide = ds.map_batches(widen, batch_format="pyarrow", batch_size=None)
    return groupby_agg(wide, index,
                       [(str(v), agg, f"__pv{i}")
                        for i, v in enumerate(values)])


def semi_anti_join(ds, keys: Sequence[str], key_set, *, anti: bool = False):
    """Semi/anti join by broadcast key set (ray guide pattern: broadcast the
    key set, filter inside map_batches — no shuffle). key_set: pa.Table with
    the key columns, or an iterable of tuples/scalars.

    Multi-key membership runs through pyarrow's native left-semi/anti hash
    join per batch (fully vectorized — no Python row loop)."""
    import ray

    keys = list(keys)
    if isinstance(key_set, pa.Table):
        key_tbl = key_set.select(keys)
    else:
        vals = list(key_set)
        if len(keys) == 1:
            key_tbl = pa.table({keys[0]: pa.array(vals)})
        else:
            key_tbl = pa.table({k: pa.array([v[i] for v in vals])
                                for i, k in enumerate(keys)})
    key_tbl = arrow_group_by(key_tbl, keys)
    ref = ray.put(key_tbl)
    join_type = "left anti" if anti else "left semi"

    def f(t: pa.Table) -> pa.Table:
        kt = ray.get(ref)
        if len(keys) == 1:
            mask = pc.is_in(canonical_float_keys(t, keys)[keys[0]],
                            value_set=kt[keys[0]].combine_chunks())
            if anti:
                mask = pc.invert(pc.fill_null(mask, False))
            return t.filter(mask)
        # preserve input row order: join on an added row-index column
        t2 = t.append_column("__ri", pa.array(np.arange(len(t), dtype=np.int64)))
        out = join_tables(t2, kt, keys=keys, join_type=join_type,
                          use_threads=True)
        out = out.take(pc.sort_indices(out["__ri"]))
        return out.drop_columns(["__ri"])

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# explode (list flatten) — `gdal vector explode` (apps/gdalalg_vector_explode.h:29)
# ---------------------------------------------------------------------------


def explode_list(ds, list_col: str, *, value_name: str, pos_name: str, keep: Sequence[str]):
    """One row per list element; pos is 1-based (SQL WITH ORDINALITY)."""
    keep = list(keep)

    def explode(t: pa.Table) -> pa.Table:
        col = t[list_col].combine_chunks()
        lengths = pc.list_value_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
        parent = np.repeat(np.arange(len(t), dtype=np.int64), lengths)
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        pos = np.arange(parent.size, dtype=np.int64) - starts + 1
        cols = {}
        for k in keep:
            cols[k] = t[k].take(pa.array(parent))
        cols[pos_name] = pa.array(pos)
        cols[value_name] = pc.list_flatten(col)
        return pa.table(cols)

    return ds.map_batches(explode, batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# first-match dedup (two-level argmin)
# ---------------------------------------------------------------------------


def first_by(ds, group_keys: Sequence[str], order_cols: Sequence[str],
             *, ascending: Sequence[bool] | None = None):
    """One row per group: the minimum row under (order_cols) ordering.
    order_cols must end with a unique tiebreaker for determinism.
    ascending (one flag per order col, default all True) flips individual
    order columns — the ARG_MAX direction. Two-level: per-batch winner,
    then a winners-of-winners merge: tree_reduce keyed by group_keys (one
    final task up to TREE_MAX_BYTES of winners, the hash exchange past it —
    deduping 10^12 urls, where #groups ~ #rows, takes the exchange). Only
    one row per (group, block) reaches the merge. Runs the input up to the
    per-batch winners when called."""
    group_keys, order_cols = list(group_keys), list(order_cols)
    by = group_keys + order_cols
    asc = [True] * len(group_keys) + (
        list(ascending) if ascending is not None else [True] * len(order_cols))

    sort_keys = [(c, "ascending" if a else "descending") for c, a in zip(by, asc)]

    def winners(t: pa.Table) -> pa.Table:
        # stable sort (nulls last), then each group's first sorted row; the
        # rows stay Arrow, so key dtypes never change between stages
        t = t.replace_schema_metadata(None)  # see hash_partition_reduce
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        pos = t.select(group_keys).append_column(
            "__pos", pa.array(np.arange(len(t), dtype=np.int64)))
        first = arrow_group_by(pos, group_keys, [("__pos", "min")])["__pos_min"]
        return t.take(pa.array(np.sort(first.to_numpy())))

    partial = ds.map_batches(winners, batch_format="pyarrow", batch_size=None)
    return tree_reduce(partial, winners, group_keys)


def groupby_arg_extreme(ds, keys: Sequence[str], val_col: str,
                        order_col: str, *, desc: bool = False,
                        out: str | None = None):
    """SQL ARG_MAX / ARG_MIN (a.k.a. MAX_BY / MIN_BY): the val_col value
    at the per-key extreme of order_col. Rides the first_by winners
    machinery (per-batch winner, winners-of-winners merge — one row per
    (key, block) ever shuffles). Ties on order_col break toward the
    smaller val (deterministic — DuckDB's arg_max is engine-order
    dependent on ties, so oracle queries should use a unique order
    column or the ROW_NUMBER formulation). Null order values lose to any
    non-null (pandas NaN-last sort); an all-null group still emits its
    row, unlike SQL's NULL — keep order_col non-null for oracle parity."""
    keys = list(keys)
    out = out or val_col
    cols = list(dict.fromkeys(keys + [val_col, order_col]))
    sel = ds.map_batches(lambda t, c=cols: t.select(c),
                         batch_format="pyarrow", batch_size=None)
    ocols = [order_col] if val_col == order_col else [order_col, val_col]
    asc = [not desc] + [True] * (len(ocols) - 1)
    win = first_by(sel, keys, ocols, ascending=asc)

    def fin(t: pa.Table) -> pa.Table:
        return t.select(keys + [val_col]).rename_columns(keys + [out])

    return win.map_batches(fin, batch_format="pyarrow", batch_size=None)


def groupby_mode(ds, keys: Sequence[str], col: str, *, out: str = "mode"):
    """SQL MODE(col): the most frequent value per key; ties break toward
    the smallest value (deterministic — express the identical rule in an
    oracle as ROW_NUMBER() OVER (ORDER BY cnt DESC, value) = 1; DuckDB's
    own mode() is nondeterministic on ties). Two shuffles, both narrow:
    the (keys, col) count via the combiner groupby_agg, then first_by
    winners over the counted rows."""
    keys = list(keys)
    cnt = groupby_agg(ds, keys + [col], [("__cnt", "count_star", None)])
    win = first_by(cnt, keys, ["__cnt", col], ascending=[False, True])

    def fin(t: pa.Table) -> pa.Table:
        return t.select(keys + [col]).rename_columns(keys + [out])

    return win.map_batches(fin, batch_format="pyarrow", batch_size=None)


def groupby_entropy(ds, keys: Sequence[str], col: str, *,
                    out: str = "entropy"):
    """DuckDB ENTROPY(col): Shannon entropy (base 2) of the VALUE
    DISTRIBUTION of col per key; nulls excluded; an all-null (or empty)
    group yields 0.0, not NULL. Two bounded aggregates: the (keys, col)
    count via the combiner groupby_agg, then per-key
    log2(N) - sum(c*log2 c)/N over the counted rows (null-col count rows
    contribute 0 but keep the key alive so all-null groups emit 0.0)."""
    keys = list(keys)
    cnt = groupby_agg(ds, keys + [col], [("__cnt", "count_star", None)])

    def clog(t: pa.Table) -> pa.Table:
        c = pc.cast(t["__cnt"], pa.float64()).to_numpy(zero_copy_only=False)
        valid = pc.is_valid(t[col]).to_numpy(zero_copy_only=False)
        c = np.where(valid, c, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cl = np.where(c > 0, c * np.log2(np.maximum(c, 1e-300)), 0.0)
        cols = {k: t[k] for k in keys}
        cols["__c"] = pa.array(c)
        cols["__cl"] = pa.array(cl)
        return pa.table(cols)

    part = cnt.map_batches(clog, batch_format="pyarrow", batch_size=None)
    agg = groupby_agg(part, keys, [("__n", "sum", "__c"),
                                   ("__s", "sum", "__cl")])

    def fin(t: pa.Table) -> pa.Table:
        n = pc.cast(t["__n"], pa.float64()).to_numpy(zero_copy_only=False)
        s = pc.cast(t["__s"], pa.float64()).to_numpy(zero_copy_only=False)
        n = np.nan_to_num(n)
        s = np.nan_to_num(s)
        with np.errstate(divide="ignore", invalid="ignore"):
            e = np.where(n > 0,
                         np.log2(np.maximum(n, 1e-300)) - s / np.maximum(n, 1),
                         0.0)
        cols = {k: t[k] for k in keys}
        cols[out] = pa.array(np.maximum(e, 0.0))
        return pa.table(cols)

    return agg.map_batches(fin, batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# union all with schema alignment (ogrunionlayer.cpp superset-of-fields)
# ---------------------------------------------------------------------------


def union_all(*datasets):
    out = datasets[0]
    for d in datasets[1:]:
        out = out.union(d)
    return out


def hopping_window_rows(ds, ts_col: str, out_col: str, size_us: int,
                        hop_us: int):
    """HOPPING (sliding) windows: every row is emitted once per covering
    window (size must be a multiple of hop). Window starts are
    (floor(ts/hop) - i) * hop for i in 0..size/hop-1 — pure vectorized
    column math + np.repeat fan-out, then the usual groupby; no state.
    (Streaming-window extension beyond the reference, like tumbling.)"""
    if size_us % hop_us != 0:
        raise ValueError("size_us must be a multiple of hop_us")
    m = size_us // hop_us

    def fan(t: pa.Table) -> pa.Table:
        n = len(t)
        us = pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        base = us // hop_us
        idx = np.repeat(np.arange(n, dtype=np.int64), m)
        i = np.tile(np.arange(m, dtype=np.int64), n)
        ws = (np.repeat(base, m) - i) * hop_us
        out = t.take(pa.array(idx))
        return out.append_column(
            out_col, pc.cast(pa.array(ws), pa.timestamp("us")))

    return ds.map_batches(fan, batch_format="pyarrow", batch_size=None)


def tumbling_window_col(ds, ts_col: str, out_col: str, size_us: int):
    """Add a window-start timestamp column: floor(ts / size) * size.
    (GDAL has no window semantics — §2.11 — this is the training-pipeline
    extension expressed as plain column math + groupby.)"""

    def add(t: pa.Table) -> pa.Table:
        us = pc.cast(t[ts_col], pa.int64())
        w = pc.multiply(pc.floor(pc.divide(pc.cast(us, pa.float64()), float(size_us))), float(size_us))
        w = pc.cast(w, pa.int64())
        return t.append_column(out_col, pc.cast(w, pa.timestamp("us")))

    return ds.map_batches(add, batch_format="pyarrow", batch_size=None)


def _code_groups(codes: np.ndarray) -> dict:
    """{code: positions of the rows holding it} (positions ascending)."""
    order = np.argsort(codes, kind="stable")
    uniq, first = np.unique(codes[order], return_index=True)
    return dict(zip(uniq.tolist(), np.split(order, first[1:])))


def asof_join(left_ds, right_ds, *, on: str, by: Sequence[str] = (),
              direction: str = "backward", suffix: str = "_r",
              num_parts: int | None = None):
    """AS-OF join (the temporal lookup Ray Data lacks; DuckDB ASOF JOIN
    semantics): for every left row, attach the right row with the LARGEST
    right.on <= left.on (direction='backward'; 'forward' takes the
    smallest >=), optionally matching equality keys `by` first.

    Distributed shape: both sides union-tagged and hash-partitioned by
    `by`; with by=() both sides RANGE-partition by `on` quantiles
    (bounded deterministic sample) and each partition additionally
    receives the per-range boundary candidates (last right row per range
    for 'backward', first for 'forward'), keeping the per-partition
    searchsorted exact without any single-task funnel. Within each
    partition: sort right by on, np.searchsorted per left row — fully
    vectorized, no per-row Python."""
    by = list(by)
    if direction not in ("backward", "forward"):
        raise ValueError("direction must be 'backward' or 'forward'")

    # schema() of a lazy Dataset runs a limit(1) plan, and Ray 2.49 can
    # abort the process while that plan cancels its upstream tasks. Both
    # sides are exchanged in full below, so running each once now costs no
    # extra pass (the limit(1) probe re-ran part of each pipeline).
    left_ds, right_ds = left_ds.materialize(), right_ds.materialize()
    l_schema, r_schema = left_ds.schema(), right_ds.schema()
    l_cols = l_schema.names
    r_cols = r_schema.names
    l_types = dict(zip(l_schema.names, l_schema.types))
    r_types = dict(zip(r_schema.names, r_schema.types))
    out_r_cols = [c for c in r_cols if c != on and c not in by]
    renamed_r = [c + suffix if c in l_cols else c for c in out_r_cols]
    # every column keeps its OWN Arrow type end-to-end (a string payload on
    # either side must survive, and int64 must not round-trip through float64)
    r_out_types = {rc: r_types[c] for c, rc in zip(out_r_cols, renamed_r)}

    def tag_l(t: pa.Table) -> pa.Table:
        cols = {c: t[c] for c in l_cols}
        for rc in renamed_r:
            cols["__r_" + rc] = pa.nulls(len(t), r_out_types[rc])
        cols["__side"] = pa.array(np.zeros(len(t), np.int8))
        return pa.table(cols)

    def tag_r(t: pa.Table) -> pa.Table:
        cols = {}
        for c in l_cols:
            if (c in by or c == on) and c in t.column_names:
                cols[c] = pc.cast(t[c], l_types[c])
            else:
                cols[c] = pa.nulls(len(t), l_types[c])
        for c, rc in zip(out_r_cols, renamed_r):
            cols["__r_" + rc] = t[c]
        cols["__side"] = pa.array(np.ones(len(t), np.int8))
        return pa.table(cols)

    lt = left_ds.map_batches(tag_l, batch_format="pyarrow", batch_size=None)
    rt = right_ds.map_batches(tag_r, batch_format="pyarrow", batch_size=None)
    part_keys = by if by else None

    def resolve(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        side = t["__side"].to_numpy(zero_copy_only=False)
        left_pos = np.flatnonzero(side == 0)
        right_pos = np.flatnonzero(side != 0)
        n = left_pos.size
        if n == 0:
            return pa.table(
                {**{c: pa.nulls(0, l_types[c]) for c in l_cols},
                 **{rc: pa.nulls(0, r_out_types[rc]) for rc in renamed_r}})
        # match[i] = row position in t of the as-of right row for left row i
        match = np.full(n, -1, np.int64)
        if right_pos.size:
            ons = t[on].to_numpy(zero_copy_only=False)
            codes = key_codes(t, by)  # by=() gives one group
            groups_l = _code_groups(codes[left_pos])
            groups_r = _code_groups(codes[right_pos])
            for k, li in groups_l.items():
                ri = groups_r.get(k)
                if ri is None or ri.size == 0:
                    continue
                rp = right_pos[ri]
                order = np.argsort(ons[rp], kind="mergesort")
                rp = rp[order]
                rs = ons[rp]
                lv = ons[left_pos[li]]
                if direction == "backward":
                    pos = np.searchsorted(rs, lv, side="right") - 1
                    ok = pos >= 0
                else:
                    pos = np.searchsorted(rs, lv, side="left")
                    ok = pos < rs.size
                pos_c = np.clip(pos, 0, rs.size - 1)
                match[li[ok]] = rp[pos_c[ok]]
        lidx = pa.array(left_pos)
        ridx = pa.array(np.where(match >= 0, match, 0), pa.int64(),
                        mask=match < 0)  # null index -> null value on take
        out = {c: t[c].take(lidx) for c in l_cols}
        for rc in renamed_r:
            out[rc] = t["__r_" + rc].take(ridx)
        return pa.table(out)

    u = lt.union(rt)
    if part_keys:
        return hash_partition_reduce(u, part_keys, resolve, num_parts=num_parts)

    # keyless as-of at scale: RANGE-partition both sides by `on` quantiles
    # (bounded deterministic sample of the left side), then make each
    # partition self-sufficient by injecting the per-range boundary
    # candidates — for 'backward' the LAST right row of every range, for
    # 'forward' the FIRST. A left row's true match is either inside its
    # own range or IS an earlier/later range's boundary candidate, so the
    # per-partition searchsorted stays exact. Candidate count is bounded
    # by the partition count — tiny broadcast, no single-task funnel.
    from gdal_ray.util import default_num_parts, to_arrow
    import ray as _ray

    def _onvals(t: pa.Table) -> np.ndarray:
        v = t[on].to_numpy(zero_copy_only=False)
        if np.issubdtype(v.dtype, np.datetime64):
            v = v.astype("datetime64[us]").view(np.int64)
        return v.astype(np.float64) if v.dtype.kind == "f" else v

    def samp(t: pa.Table) -> pa.Table:
        v = _onvals(t)
        if v.size == 0:
            return pa.table({"v": pa.array(np.empty(0, np.int64))})
        k = min(v.size, 64)
        idx = np.linspace(0, v.size - 1, k).astype(np.int64)
        return pa.table({"v": pa.array(np.sort(v)[idx].astype(np.int64)
                                       if v.dtype.kind != "f"
                                       else np.sort(v)[idx])})

    sample = to_arrow(left_ds.map_batches(
        samp, batch_format="pyarrow", batch_size=None))["v"].to_numpy(
        zero_copy_only=False)
    K = num_parts or min(64, default_num_parts())
    if sample.size:
        cuts = np.unique(np.quantile(sample, np.linspace(0, 1, K + 1)[1:-1]))
    else:
        cuts = np.empty(0, np.float64)
    cuts_ref = _ray.put(cuts)

    # per-range boundary candidates from the tagged right side: two-level
    # (per-batch argmax/argmin per range, then one driver reduce over the
    # bounded partials)
    keep = "last" if direction == "backward" else "first"

    def cand(t: pa.Table) -> pa.Table:
        cc = _ray.get(cuts_ref)
        if len(t) == 0:
            return t.slice(0, 0)
        v = _onvals(t)
        p = np.searchsorted(cc, v, side="right")
        order = np.lexsort((v, p))
        p_s = p[order]
        bounds = np.flatnonzero(np.diff(p_s)) + 1
        if keep == "last":
            pick = np.concatenate([bounds - 1, [p_s.size - 1]])
        else:
            pick = np.concatenate([[0], bounds])
        return t.take(pa.array(order[pick]))

    cand_partials = to_arrow(rt.map_batches(
        cand, batch_format="pyarrow", batch_size=None))
    cands = cand(cand_partials) if cand_partials.num_rows else cand_partials
    cands_ref = _ray.put(cands)

    def add_range(t: pa.Table) -> pa.Table:
        cc = _ray.get(cuts_ref)
        p = np.searchsorted(cc, _onvals(t), side="right") \
            if len(t) else np.empty(0, np.int64)
        return t.append_column("__p", pa.array(p.astype(np.int64)))

    def resolve_part(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["__p"])
        extra = _ray.get(cands_ref)
        if extra.num_rows:
            t = pa.concat_tables(
                [t, extra.select(t.column_names)]).combine_chunks()
        return resolve(t)

    return (u.map_batches(add_range, batch_format="pyarrow", batch_size=None)
            .groupby("__p")
            .map_groups(resolve_part, batch_format="pyarrow"))


def rolling_agg(ds, *, by: Sequence[str], on: str, value: str,
                window_us: int, aggs: Sequence[str] = ("sum", "count"),
                num_parts: int | None = None):
    """Time-range rolling aggregates per key: for every row, aggregate
    `value` over rows of the same key with on in [row.on - window_us,
    row.on] — CLOSED interval, matching SQL's RANGE BETWEEN <window>
    PRECEDING AND CURRENT ROW (a row exactly window_us earlier is IN).

    Distributed shape: hash-partition by key; within a partition, sort by
    (key, on) once, then every agg is two vectorized prefix-sum lookups
    (searchsorted for the window start, cumsum difference) — no per-row
    Python, no self-join blowup. min/max use a sparse table (doubling-block
    range-min query, O(n log n) build + O(1) vectorized queries).

    NULL semantics match SQL RANGE windows: null values are skipped —
    sum/mean ignore them, count counts only non-null values (COUNT(value)),
    min/max via NaN-ignoring fmin/fmax; an all-null window yields null.

    Output: input columns + roll_<agg> columns."""
    by = list(by)
    supported = {"sum", "count", "mean", "min", "max"}
    for a in aggs:
        if a not in supported:
            raise ValueError(f"unsupported rolling agg {a}")

    def part(t: pa.Table) -> pa.Table:
        t = t.append_column("__ts", pc.cast(pc.cast(t[on], pa.timestamp("us")), pa.int64()))
        t, starts = sort_segments(t, by, [("__ts", "ascending")])
        tsv = t["__ts"].to_numpy(zero_copy_only=False)
        v = pc.cast(t[value], pa.float64()).to_numpy(zero_copy_only=False)
        starts = np.append(starts, len(t))
        out = {a: np.empty(len(t)) for a in aggs}
        needs_minmax = any(a in ("min", "max") for a in aggs)
        for s, e in zip(starts[:-1], starts[1:]):
            t_seg = tsv[s:e]
            v_seg = v[s:e]
            valid = ~np.isnan(v_seg)
            v_zero = np.where(valid, v_seg, 0.0)
            lo = np.searchsorted(t_seg, t_seg - window_us, side="left")
            # peer-inclusive upper bound: SQL RANGE ... AND CURRENT ROW
            # includes ALL rows tied with the current timestamp
            hi = np.searchsorted(t_seg, t_seg, side="right")
            csum = np.concatenate([[0.0], np.cumsum(v_zero)])
            ccnt = np.concatenate([[0], np.cumsum(valid)])
            cnt = (ccnt[hi] - ccnt[lo]).astype(np.float64)
            ssum = csum[hi] - csum[lo]
            if "sum" in out:
                out["sum"][s:e] = np.where(cnt > 0, ssum, np.nan)
            if "count" in out:
                out["count"][s:e] = cnt
            if "mean" in out:
                out["mean"][s:e] = np.where(
                    cnt > 0, ssum / np.maximum(cnt, 1.0), np.nan)
            if needs_minmax:
                # sparse table: tab[j][i] = reduce of v_seg[i : i + 2^j]
                # (fmin/fmax skip NaN, so null values never win a window)
                m = e - s
                levels = max(1, int(np.floor(np.log2(max(m, 1)))) + 1)
                for a, fn in (("min", np.fmin), ("max", np.fmax)):
                    if a not in out:
                        continue
                    tab = [v_seg]
                    for j in range(1, levels):
                        p = tab[-1]
                        half = 1 << (j - 1)
                        if p.size <= half:
                            break
                        tab.append(fn(p[:-half], p[half:]))
                    length = hi - lo  # window sizes, >= 1
                    jq = np.floor(np.log2(length)).astype(np.int64)
                    res = np.empty(m)
                    for j in range(len(tab)):
                        sel = jq == j
                        if not sel.any():
                            continue
                        l_ = lo[sel]
                        r_ = hi[sel] - (1 << j)
                        res[sel] = fn(tab[j][l_], tab[j][r_])
                    out[a][s:e] = res
        t = t.drop_columns(["__ts"])
        for a in aggs:
            col = out[a]
            t = t.append_column(f"roll_{a}", pa.array(
                col.astype(np.int64) if a == "count" else col))
        return t

    return hash_partition_reduce(ds, by, part, num_parts=num_parts)


def rank_within(ds, *, by: Sequence[str], order_by: Sequence[tuple[str, bool]],
                out_col: str = "rn", num_parts: int | None = None):
    """ROW_NUMBER() OVER (PARTITION BY by ORDER BY order_by) — per-key
    ranking without a global sort: hash-partition by key, one sort per
    partition, ranks via a vectorized boundary scan. order_by:
    [(col, descending)]. Make the order total (tie-break column) for
    deterministic/oracle-matching output."""
    by = list(by)
    order = [(c, "descending" if d else "ascending") for c, d in order_by]

    def part(t: pa.Table) -> pa.Table:
        t, starts = sort_segments(t, by, order)
        return t.append_column(out_col, pa.array(segment_positions(starts, len(t)) + 1))

    return hash_partition_reduce(ds, by, part, num_parts=num_parts)


def hash_sample(ds, col: str, rate_pct: int, *, salt: int = 2654435761):
    """Deterministic hash sampling: keep rows where
    (col * salt) mod 2^32 mod 100 < rate_pct — reproducible across runs
    and engines (pure integer arithmetic, so the identical expression is
    the SQL oracle), unlike random_sample. The standard trick for stable
    train/val splits of a growing corpus."""

    def f(t: pa.Table) -> pa.Table:
        v = pc.cast(t[col], pa.int64()).to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = (v.astype(np.uint64) * np.uint64(salt)) % np.uint64(1 << 32)
        return t.filter(pa.array((h % 100) < rate_pct))

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def stratified_sample(ds, *, by: Sequence[str], k: int, order_col: str,
                      num_parts: int | None = None):
    """Deterministic per-key sampling: keep the k rows with the smallest
    order_col per key (use a hash column for pseudo-random-but-stable
    strata). rank_within + filter — one hash shuffle, no global sort."""
    ranked = rank_within(ds, by=list(by),
                         order_by=[(order_col, False)], out_col="__rn",
                         num_parts=num_parts)

    def f(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["__rn"], k))
        return t.drop_columns(["__rn"])

    return ranked.map_batches(f, batch_format="pyarrow", batch_size=None)


def budget_take(ds, *, by: Sequence[str], order_col: str, weight_col: str,
                budget: float, cum_col: str | None = None,
                num_parts: int | None = None):
    """Per-key token-budget truncation (the Pile / DoReMi-style domain
    mixture weighting, public): order each key's rows by order_col asc and
    keep rows while the RUNNING TOTAL of weight_col (including the current
    row) stays <= budget — SQL `SUM(w) OVER (PARTITION BY by ORDER BY o
    ROWS UNBOUNDED PRECEDING) <= budget`.

    One hash shuffle by key (cluster-width partitions), one sort + segment
    prefix-sum per partition; never a global sort, never driver-side rows.
    Pass cum_col to keep the running total as an output column."""
    by = list(by)
    keep_cum = cum_col is not None
    cc = cum_col or "__cum"

    def part(t: pa.Table) -> pa.Table:
        t, starts = sort_segments(t, by, [(order_col, "ascending")])
        sizes = np.diff(np.append(starts, len(t)))
        w = pc.cast(t[weight_col], pa.float64()).to_numpy(zero_copy_only=False)
        cum = np.cumsum(w)
        seg_base = np.repeat(cum[starts] - w[starts], sizes)
        run = cum - seg_base
        if keep_cum:
            t = t.append_column(cc, pa.array(run))
        with np.errstate(invalid="ignore"):
            return t.filter(pa.array(run <= budget))

    return hash_partition_reduce(ds, by, part, num_parts=num_parts)


def semi_join_hash(ds, right_ds, keys: Sequence[str], *, anti: bool = False,
                   num_parts: int | None = None):
    """Big-big semi/anti join: neither side is broadcast. Both sides are
    co-partitioned by hash(keys) (tagged union through the same
    partition-disjoint shuffle every wide op uses); each partition filters
    its left rows against its local right key set with pyarrow's native
    hash join. Use this when the right side is too large for the
    `semi_anti_join` broadcast (e.g. dedup-survivor id sets ~ corpus
    size); one shuffle of left + right key columns total."""
    keys = list(keys)
    sch = ds.schema()
    left_types = dict(zip(sch.names, sch.types))
    left_cols = list(sch.names)
    side_col = "__sjh_side"

    def tag_left(t: pa.Table) -> pa.Table:
        return t.append_column(side_col, pa.array(
            np.zeros(len(t), np.int8)))

    def tag_right(t: pa.Table) -> pa.Table:
        cols = {}
        for c in left_cols:
            cols[c] = pc.cast(t[c], left_types[c]) if c in keys \
                else pa.nulls(len(t), left_types[c])
        cols[side_col] = pa.array(np.ones(len(t), np.int8))
        return pa.table(cols)

    left = ds.map_batches(tag_left, batch_format="pyarrow", batch_size=None)
    right = right_ds.map_batches(tag_right, batch_format="pyarrow",
                                 batch_size=None)

    def probe(t: pa.Table) -> pa.Table:
        side = t[side_col].to_numpy(zero_copy_only=False)
        lt = t.filter(pa.array(side == 0)).drop_columns([side_col])
        rt = t.filter(pa.array(side == 1)).select(keys)
        kt = arrow_group_by(rt, keys)
        if len(keys) == 1:
            mask = pc.is_in(canonical_float_keys(lt, keys)[keys[0]],
                            value_set=kt[keys[0]].combine_chunks())
            if anti:
                mask = pc.invert(pc.fill_null(mask, False))
            return lt.filter(mask)
        t2 = lt.append_column("__ri", pa.array(
            np.arange(len(lt), dtype=np.int64)))
        out = join_tables(t2, kt, keys=keys,
                          join_type="left anti" if anti else "left semi",
                          use_threads=True)
        out = out.take(pc.sort_indices(out["__ri"]))
        return out.drop_columns(["__ri"])

    return hash_partition_reduce(left.union(right), keys, probe,
                                 num_parts=num_parts)


def _varchar(a: pa.Array) -> pa.Array:
    """Non-NULL values as the text DuckDB's CAST(... AS VARCHAR) writes:
    floats in shortest round-trip form with '.0' on integral values (as
    Python's str), timestamps without trailing fractional zeros."""
    if pa.types.is_floating(a.type):
        return pa.array([str(x) for x in a.to_numpy(zero_copy_only=False)],
                        pa.string())
    s = pc.cast(a, pa.string())
    if pa.types.is_timestamp(a.type):
        s = pc.replace_substring_regex(
            pc.replace_substring_regex(s, r"(\.\d*?)0+$", r"\1"), r"\.$", "")
    return s


def groupby_string_agg(ds, by: Sequence[str], value: str, order_col: str,
                       *, sep: str = ",", out: str = "agg",
                       num_parts: int | None = None):
    """SQL `string_agg(value, sep ORDER BY order_col)` per key (NULL values
    skipped; a key whose values are all NULL has no row): one hash
    shuffle by key; each partition sorts once and joins per-key value
    runs with a single vectorized `pc.binary_join` over list offsets —
    no per-group Python."""
    by = list(by)

    def part(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[value]))  # SQL string_agg skips NULLs
        t, starts = sort_segments(t, by, [(order_col, "ascending")])
        vals = _varchar(t[value].combine_chunks())
        la = pa.ListArray.from_arrays(
            pa.array(np.append(starts, len(t)), pa.int32()), vals)
        cols = {c: t[c].take(starts) for c in by}
        cols[out] = pc.binary_join(la, sep)
        return pa.table(cols)

    return hash_partition_reduce(ds.select_columns(by + [value, order_col]),
                                 by, part, num_parts=num_parts)


def groupby_array_agg(ds, by: Sequence[str], value: str, order_col: str,
                      *, out: str = "list", num_parts: int | None = None):
    """SQL `array_agg(value ORDER BY order_col)` per key (a.k.a. LIST):
    same one-shuffle shape as groupby_string_agg, but the per-key runs
    become a typed ListArray directly (value column taken by sorted
    permutation from the ORIGINAL Arrow column — no pandas type
    laundering)."""
    by = list(by)

    def part(t: pa.Table) -> pa.Table:
        t, starts = sort_segments(t, by, [(order_col, "ascending")])
        la = pa.ListArray.from_arrays(
            pa.array(np.append(starts, len(t)), pa.int32()),
            t[value].combine_chunks())
        cols = {c: t[c].take(starts) for c in by}
        cols[out] = la
        return pa.table(cols)

    return hash_partition_reduce(
        ds.select_columns(list(dict.fromkeys(by + [value, order_col]))),
        by, part, num_parts=num_parts)


def session_windows(ds, *, by: str, ts_col: str, gap,
                    order_cols: Sequence[str] = (),
                    sum_col: str | None = None,
                    num_parts: int | None = None):
    """Per-key SESSION windows: a gap > `gap` (pandas Timedelta, a string
    such as "2h", or ns int) between consecutive events starts a new
    session. Output one row per session: (by, session_id 0-based per key,
    n_events, t_start, t_end [, sum_<sum_col>]); t_start/t_end keep the
    input's timestamp type.

    One hash shuffle by key; sessionization inside each partition is a
    single sort + vectorized boundary scan + np.reduceat — replacing the
    earlier groupby(key).map_groups form whose per-group slicing is the
    documented millions-of-tiny-groups trap."""
    import pandas as pd  # driver-side: parses the gap argument once

    gap_ns = pd.Timedelta(gap).value
    order = [(ts_col, "ascending")] + [(c, "ascending") for c in order_cols]

    def part(t: pa.Table) -> pa.Table:
        t, kstarts = sort_segments(t, [by], order)
        n = len(t)
        key_new = np.zeros(n, bool)
        key_new[kstarts] = True
        ts = pc.cast(pc.cast(t[ts_col], pa.timestamp("ns")), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        new = key_new.copy()
        new[1:] |= np.diff(ts) > gap_ns
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, n))
        # session id restarts at 0 per key
        base = np.maximum.accumulate(
            np.where(key_new[starts], np.arange(starts.size), 0))
        cols = {by: t[by].take(starts),
                "session_id": pa.array(np.arange(starts.size) - base, pa.int64()),
                "n_events": pa.array(sizes, pa.int64()),
                "t_start": t[ts_col].take(starts),
                "t_end": t[ts_col].take(starts + sizes - 1)}
        if sum_col:
            v = pc.cast(t[sum_col], pa.float64()).to_numpy(zero_copy_only=False)
            cols[f"sum_{sum_col}"] = pa.array(
                np.add.reduceat(v, starts) if n else np.empty(0))
        return pa.table(cols)

    return hash_partition_reduce(ds, [by], part, num_parts=num_parts)


def funnel_steps(ds, *, by: str, ts_col: str, event_col: str,
                 steps: Sequence[str], num_parts: int | None = None):
    """Ordered funnel analysis: for each key, the earliest time each step
    can complete given the previous step's completion time (step k's time
    = min ts of an event == steps[k] with ts >= step k-1's time). Output:
    (by, depth = #completed steps, t_1..t_k timestamps, null once the
    funnel breaks). One hash shuffle by key; each step is a vectorized
    masked segment-min over the partition's sorted rows — no per-key
    Python."""
    steps = list(steps)

    def part(t: pa.Table) -> pa.Table:
        t, starts = sort_segments(t, [by], [(ts_col, "ascending")])
        ts = pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        new = np.zeros(len(t), bool)
        new[starts] = True
        seg = np.cumsum(new) - 1          # segment id per row
        n_keys = starts.size
        prev = np.full(n_keys, np.iinfo(np.int64).min)
        out_ts = []
        alive = np.ones(n_keys, bool)
        for s in steps:
            # min ts per segment among rows with event==s and ts >= prev
            ev = pc.fill_null(pc.equal(t[event_col], s), False) \
                .to_numpy(zero_copy_only=False)
            ok = ev & (ts >= prev[seg]) & alive[seg]
            cur = np.zeros(n_keys, np.int64)
            hit = np.zeros(n_keys, bool)
            idx = np.flatnonzero(ok)
            # rows are ts-sorted within segment: the first ok row per
            # segment is the min
            first = idx[_new_runs(seg[idx])]
            cur[seg[first]] = ts[first]
            hit[seg[first]] = True
            alive &= hit
            prev = np.where(hit, cur, prev)
            out_ts.append((cur, hit))
        depth = np.zeros(n_keys, np.int64)
        done = np.ones(n_keys, bool)
        for _, hit in out_ts:
            done &= hit
            depth += done
        cols = {by: t[by].take(starts), "depth": pa.array(depth)}
        ts_type = t[ts_col].type
        for i, (cur, hit) in enumerate(out_ts):
            cols[f"t_{i + 1}"] = pa.array(cur, mask=~hit).cast(
                pa.timestamp("us")).cast(ts_type)
        return pa.table(cols)

    return hash_partition_reduce(
        ds.select_columns([by, ts_col, event_col]), [by], part,
        num_parts=num_parts)


def _new_runs(*cols: np.ndarray) -> np.ndarray:
    """True at row 0 and wherever any of the (sorted) columns changes."""
    new = np.zeros(len(cols[0]), bool)
    new[:1] = True
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    return new


def cohort_retention(ds, *, by: str, ts_col: str, period: str = "W",
                     num_parts: int | None = None):
    """Cohort retention matrix: cohort = each key's first-activity period,
    age = periods since cohort; output (cohort period start, age, n_keys
    distinct). One hash shuffle by key (each key's rows co-locate, so its
    cohort and distinct active periods compute locally), then the
    vocabulary-sized (cohort, age) count merges through a second tiny
    reduce. period: "D" days or "W" weeks, computed as floor(epoch_us /
    period), restatable in SQL."""
    unit_us = {"D": 86400_000_000, "W": 7 * 86400_000_000}[period]

    def part(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        per = us // unit_us
        key = key_codes(t, [by])
        order = np.lexsort((per, key))
        key, per = key[order], per[order]
        new = _new_runs(key)
        seg = np.cumsum(new) - 1
        cohort = per[new][seg]          # first (min) period per key
        age = per - cohort
        # distinct (key, age) pairs -> count per (cohort, age)
        d = _new_runs(key, age)
        ck, ak = cohort[d], age[d]
        o2 = np.lexsort((ak, ck))
        ck, ak = ck[o2], ak[o2]
        n2 = _new_runs(ck, ak)
        gid = np.cumsum(n2) - 1
        cnt = np.bincount(gid, minlength=int(n2.sum())).astype(np.int64)
        return pa.table({"cohort": pa.array(ck[n2], pa.int64()),
                         "age": pa.array(ak[n2], pa.int64()),
                         "n": pa.array(cnt)})

    parts = hash_partition_reduce(ds.select_columns([by, ts_col]), [by],
                                  part, num_parts=num_parts)

    def merge(t: pa.Table) -> pa.Table:
        return arrow_group_by(t, ["cohort", "age"], [("n", "sum")]) \
            .rename_columns(["cohort", "age", "n"])

    return hash_partition_reduce(parts, ["cohort", "age"], merge)


def dense_time_counts(ds, *, ts_col: str, unit_us: int,
                      value_col: str | None = None):
    """Event counts per fixed time bucket with GAP FILL: every bucket
    between the global min and max appears, zero-filled when empty (SQL
    generate_series semantics — plain per-bucket groupby drops silent
    gaps). Buckets = floor(epoch_us / unit_us).

    Two-level: per-batch bucket partials -> tiny tree merge; the dense
    range materializes from the merged (bounded: span/unit rows) — the
    gap-fill itself is never corpus-sized."""
    from gdal_ray.util import to_arrow

    specs = [("n", "count_star", None)]
    if value_col:
        specs.append((f"sum_{value_col}", "sum", value_col))

    def bucket(t: pa.Table) -> pa.Table:
        us = pc.cast(t[ts_col], pa.int64())
        b = pc.divide(us, unit_us)
        out = {"bucket": pc.cast(b, pa.int64())}
        if value_col:
            out[value_col] = t[value_col]
        return pa.table(out)

    bk = ds.map_batches(bucket, batch_format="pyarrow", batch_size=None)
    agg = to_arrow(groupby_agg(bk, ["bucket"], specs))
    b = agg["bucket"].to_numpy(zero_copy_only=False)
    n = agg["n"].to_numpy(zero_copy_only=False)
    if b.size == 0:
        cols = {"bucket": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64())}
        if value_col:
            cols[f"sum_{value_col}"] = pa.array([], pa.float64())
        return pa.table(cols)
    lo, hi = int(b.min()), int(b.max())
    full = np.arange(lo, hi + 1, dtype=np.int64)
    dense_n = np.zeros(full.size, np.int64)
    dense_n[b - lo] = n
    cols = {"bucket": pa.array(full), "n": pa.array(dense_n)}
    if value_col:
        sv = agg[f"sum_{value_col}"].to_numpy(zero_copy_only=False)
        dense_s = np.zeros(full.size, np.float64)
        dense_s[b - lo] = sv
        cols[f"sum_{value_col}"] = pa.array(dense_s)
    return pa.table(cols)
