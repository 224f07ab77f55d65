"""Geo pipeline stages (map_batches callables).

The PIP join is a stateless map_batches stage: the broadcast polygon table
rides the object store and each worker process builds its PolygonSet once
per table (the reference's "copy the method layer into memory for best
performance" advice, ogr/ogrsf_frmts/generic/ogrlayer.cpp:5323-5325,
restated for Ray); per-batch work is pure vectorized numpy.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from gdal_ray.geo import hexcell, hilbert, s2, webmercator
from gdal_ray.geo.pip import PolygonSet


def add_cell_columns(
    ds,
    lon_col: str = "lon",
    lat_col: str = "lat",
    *,
    hex_res: tuple[int, ...] = (5, 9),
    s2_level: int | None = 16,
    tile_zooms: tuple[int, ...] = (9,),
    hilbert_order: int | None = None,
):
    """H3-style hex cells, S2 cells, WebMercator tiles, hilbert key — one
    stateless vectorized stage (the north star's 'H3/S2 cell encode')."""

    def f(t: pa.Table) -> pa.Table:
        lon = np.asarray(t[lon_col].to_numpy(zero_copy_only=False), dtype=np.float64)
        lat = np.asarray(t[lat_col].to_numpy(zero_copy_only=False), dtype=np.float64)
        for r in hex_res:
            t = t.append_column(f"hex_res{r}", pa.array(hexcell.lonlat_to_cell(lon, lat, r)))
        if s2_level is not None:
            t = t.append_column(f"s2_l{s2_level}", pa.array(s2.lonlat_to_cell(lon, lat, s2_level)))
        for z in tile_zooms:
            tx, ty = webmercator.lonlat_to_tile(lon, lat, z)
            t = t.append_column(f"tile_x_z{z}", pa.array(tx))
            t = t.append_column(f"tile_y_z{z}", pa.array(ty))
        if hilbert_order is not None:
            t = t.append_column(
                "hilbert_key", pa.array(hilbert.lonlat_hilbert(lon, lat, hilbert_order))
            )
        return t

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


#: per-worker-process PolygonSet cache: stateless map_batches tasks get
#: actor-like amortization (the set is built once per worker, not per batch)
#: without paying actor-pool spawn latency — at 32 CPUs a (1, 30) actor pool
#: spent more wall time spawning actors than joining (measured). At most one
#: entry: callers ray.put a fresh polygon table per pipeline, so older
#: entries are never read again.
_PSET_CACHE: dict = {}


def _polygon_set(polygons_ref, wkb_col: str):
    """(attribute table, PolygonSet) of a broadcast polygon table, cached in
    this worker. Module-level on purpose: a closure handed to map_batches is
    pickled by value together with copies of the module globals it names, so
    a closure reading _PSET_CACHE would see a fresh empty dict in every
    task; a top-level function is pickled by reference and reads the worker
    module's own dict."""
    import ray

    key = (polygons_ref.hex(), wkb_col)
    cached = _PSET_CACHE.get(key)
    if cached is None:
        table = ray.get(polygons_ref)
        cached = (table.drop_columns([wkb_col]), PolygonSet(table[wkb_col].to_pylist()))
        _PSET_CACHE.clear()
        _PSET_CACHE[key] = cached
    return cached


def pip_join_fn(polygons_ref, *, lon_col="lon", lat_col="lat",
                wkb_col="geometry", how="inner"):
    """Point-in-polygon spatial join against a broadcast polygon table
    (`polygons_ref`, an ObjectRef of a table with a WKB column); returns a
    batch fn for map_batches.

    Semantics follow OGRLayer::Intersection for point inputs
    (ogrlayer.cpp:5385-5800): how="inner" drops unmatched points and emits
    one row per (point, polygon) match; how="left" is the Identity-style
    left join (ogrlayer.cpp:6770) that keeps every point once, with the
    lowest-index matching polygon or null attributes. The attribute columns
    of the polygon side are appended."""

    def f(t: pa.Table) -> pa.Table:
        attrs, pset = _polygon_set(polygons_ref, wkb_col)
        return _pip_apply(t, attrs, pset, lon_col, lat_col, how)

    return f


def _pip_apply(t: pa.Table, attrs: pa.Table, pset, lon_col, lat_col, how):
    import pyarrow.compute as pc

    lon = np.asarray(t[lon_col].to_numpy(zero_copy_only=False), dtype=np.float64)
    lat = np.asarray(t[lat_col].to_numpy(zero_copy_only=False), dtype=np.float64)
    qi, pi = pset.locate(lon, lat)
    if how == "inner":
        left = t.take(pa.array(qi))
        for name in attrs.column_names:
            left = left.append_column(name, attrs[name].take(pa.array(pi)))
        return left
    # left join: first match wins (deterministic: lowest polygon index)
    order = np.lexsort((pi, qi))
    qi, pi = qi[order], pi[order]
    firsts = np.ones(qi.size, dtype=bool)
    firsts[1:] = qi[1:] != qi[:-1]
    qi, pi = qi[firsts], pi[firsts]
    match_of = np.full(len(t), -1, dtype=np.int64)
    match_of[qi] = pi
    out = t
    for name in attrs.column_names:
        col = attrs[name].take(pa.array(np.where(match_of >= 0, match_of, 0))).combine_chunks()
        mask = pa.array(match_of < 0)
        col = pc.if_else(mask, pa.scalar(None, type=col.type), col)
        out = out.append_column(name, col)
    return out


def knn_points(ds, queries: pa.Table, k: int, *, id_col="id", lon_col="lon",
               lat_col="lat", exclude_self=True):
    """Streaming kNN: the query points are broadcast (small side), the point
    dataset streams through; each batch yields a partial top-k per query
    (at most q*k rows leave each block), computed when this is called, and
    ops.relational.tree_reduce merges them per query: the final task reads
    at most TREE_WIDTH*q*k rows. Returns (query_id, neighbor_id, dist,
    rank)."""
    import ray

    from gdal_ray.ops.relational import (head_k, segment_positions, sort_segments,
                                         tree_reduce)

    qx = np.asarray(queries[lon_col].to_numpy(zero_copy_only=False), dtype=np.float64)
    qy = np.asarray(queries[lat_col].to_numpy(zero_copy_only=False), dtype=np.float64)
    qid = np.asarray(queries[id_col].to_numpy(zero_copy_only=False))
    qref = ray.put((qx, qy, qid))

    def partial(t: pa.Table) -> pa.Table:
        QX, QY, QID = ray.get(qref)
        x = np.asarray(t[lon_col].to_numpy(zero_copy_only=False), dtype=np.float64)
        y = np.asarray(t[lat_col].to_numpy(zero_copy_only=False), dtype=np.float64)
        ids = np.asarray(t[id_col].to_numpy(zero_copy_only=False))
        out_q, out_n, out_d = [], [], []
        for j in range(QX.size):
            d2 = (x - QX[j]) ** 2 + (y - QY[j]) ** 2
            if exclude_self:
                d2 = np.where(ids == QID[j], np.inf, d2)
            kk = min(k, d2.size)
            cand = np.argpartition(d2, kk - 1)[:kk]
            out_q.append(np.full(kk, QID[j]))
            out_n.append(ids[cand])
            out_d.append(np.sqrt(d2[cand]))
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                "neighbor_id": pa.array(np.concatenate(out_n)),
                "dist": pa.array(np.concatenate(out_d)),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    order = [("dist", "ascending"), ("neighbor_id", "ascending")]

    def rank(t: pa.Table) -> pa.Table:
        t, starts = sort_segments(t, ["query_id"], order)
        return t.append_column("rank", pa.array(segment_positions(starts, len(t)) + 1))

    return tree_reduce(partials, head_k(["query_id"], order, k)) \
        .map_batches(rank, batch_format="pyarrow", batch_size=None)


def knn_all_points_cell_partitioned(ds, k: int, *, cell_size: float,
                                    fringe: float, id_col="id",
                                    lon_col="lon", lat_col="lat"):
    """Self-kNN of EVERY point (the scale path of SURVEY §7.4: repartition
    by cell + per-cell local search + fringe duplication for boundary
    correctness — per-cell trees instead of any broadcast).

    Every point belongs to one square cell (floor(x/s), floor(y/s)) as CORE
    and is duplicated into each adjacent cell it lies within `fringe` of.
    A per-cell group answers kNN for its core points against core+fringe.
    Exact iff each point's k-th neighbor is within `fringe`; the output's
    `exact` column certifies this per row (kth_dist <= fringe AND the group
    exposed at least k candidates). fringe must be <= cell_size: beyond one
    cell width the fan-out only reaches the 8 adjacent cells, so a larger
    fringe could not certify anything.

    Per-cell memory is bounded: query rows are processed in fixed-size
    chunks of `chunk` rows, so the distance matrix is O(chunk * cell_pts)
    regardless of how skewed a hot cell is (a 10^6-point urban cell never
    allocates a 10^12-entry matrix).
    """
    if fringe > cell_size:
        raise ValueError(
            f"fringe ({fringe}) must be <= cell_size ({cell_size}): neighbors beyond "
            "the 8 adjacent cells are never duplicated, so the exactness certificate "
            "would be unsound"
        )
    chunk = 256

    def fan(t: pa.Table) -> pa.Table:
        x = np.asarray(t[lon_col].to_numpy(zero_copy_only=False), dtype=np.float64)
        y = np.asarray(t[lat_col].to_numpy(zero_copy_only=False), dtype=np.float64)
        ids = np.asarray(t[id_col].to_numpy(zero_copy_only=False))
        cx = np.floor(x / cell_size).astype(np.int64)
        cy = np.floor(y / cell_size).astype(np.int64)
        fx = x - cx * cell_size  # position within the cell
        fy = y - cy * cell_size
        rows = {"cx": [cx], "cy": [cy], "id": [ids], "x": [x], "y": [y],
                "core": [np.ones(x.size, dtype=bool)]}
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                near_x = (fx < fringe) if dx < 0 else (fx > cell_size - fringe) if dx > 0 else np.ones_like(fx, bool)
                near_y = (fy < fringe) if dy < 0 else (fy > cell_size - fringe) if dy > 0 else np.ones_like(fy, bool)
                m = near_x & near_y
                if not m.any():
                    continue
                rows["cx"].append(cx[m] + dx)
                rows["cy"].append(cy[m] + dy)
                rows["id"].append(ids[m])
                rows["x"].append(x[m])
                rows["y"].append(y[m])
                rows["core"].append(np.zeros(int(m.sum()), dtype=bool))
        return pa.table({name: pa.array(np.concatenate(v)) for name, v in rows.items()})

    fanned = ds.map_batches(fan, batch_format="pyarrow", batch_size=None)

    def solve(g: pa.Table) -> pa.Table:
        x = g["x"].to_numpy()
        y = g["y"].to_numpy()
        id_arr = g["id"].combine_chunks()
        ids = id_arr.to_numpy(zero_copy_only=False)
        core = g["core"].to_numpy()
        qi = np.nonzero(core)[0]
        kk = max(min(k, x.size - 1), 0)
        if kk == 0:  # a lone point has no neighbour
            qi = qi[:0]
        q_at, n_at, dists, ranks, exacts = ([np.empty(0, np.int64)], [np.empty(0, np.int64)],
                                            [np.empty(0)], [np.empty(0, np.int64)],
                                            [np.empty(0, bool)])
        for c0 in range(0, qi.size, chunk):
            qc = qi[c0 : c0 + chunk]
            d2 = (x[qc, None] - x[None, :]) ** 2 + (y[qc, None] - y[None, :]) ** 2
            d2[np.arange(qc.size), qc] = np.inf  # self
            order = np.lexsort((np.broadcast_to(ids, d2.shape), d2), axis=1)[:, :kk]
            dist = np.sqrt(np.take_along_axis(d2, order, axis=1))
            # sound certificate only when the k-th neighbor is inside the
            # fringe AND the group actually exposed k candidates
            exact = (dist[:, -1] <= fringe) & (kk >= k)
            q_at.append(np.repeat(qc, kk))
            n_at.append(order.ravel())
            dists.append(dist.ravel())
            ranks.append(np.tile(np.arange(1, kk + 1), qc.size))
            exacts.append(np.repeat(exact, kk))
        return pa.table({"query_id": id_arr.take(np.concatenate(q_at)),
                         "neighbor_id": id_arr.take(np.concatenate(n_at)),
                         "dist": pa.array(np.concatenate(dists)),
                         "rank": pa.array(np.concatenate(ranks)),
                         "exact": pa.array(np.concatenate(exacts))})

    return fanned.groupby(["cx", "cy"]).map_groups(solve, batch_format="pyarrow")


class SpatialKNN:
    """kNN of each input point against a broadcast reference point set —
    the gridding-search semantics (radius/max-point-bounded nearest search,
    alg/gdalgrid.cpp:257-377) as an actor-pool stage. Reference points are
    held once per actor; per batch one vectorized distance computation.

    For reference sets too big to broadcast, the scale path is
    repartition-by-cell + per-cell trees (SURVEY.md §7.4); this stage is the
    broadcast-side variant (queries small OR references small)."""

    def __init__(self, ref_points_ref, k: int, *, id_col="id", lon_col="lon",
                 lat_col="lat", radius: float | None = None):
        import ray

        tbl = ray.get(ref_points_ref) if not isinstance(ref_points_ref, pa.Table) else ref_points_ref
        self.rx = np.asarray(tbl[lon_col].to_numpy(zero_copy_only=False), dtype=np.float64)
        self.ry = np.asarray(tbl[lat_col].to_numpy(zero_copy_only=False), dtype=np.float64)
        self.rid = np.asarray(tbl[id_col].to_numpy(zero_copy_only=False))
        self.k = k
        self.radius = radius
        self.id_col = id_col

    def __call__(self, t: pa.Table) -> pa.Table:
        lon = np.asarray(t["lon"].to_numpy(zero_copy_only=False), dtype=np.float64)
        lat = np.asarray(t["lat"].to_numpy(zero_copy_only=False), dtype=np.float64)
        qid = np.asarray(t[self.id_col].to_numpy(zero_copy_only=False))
        d2 = (lon[:, None] - self.rx[None, :]) ** 2 + (lat[:, None] - self.ry[None, :]) ** 2
        # exclude self-matches by id
        d2[qid[:, None] == self.rid[None, :]] = np.inf
        k = min(self.k, d2.shape[1])
        # deterministic ordering: (distance, ref_id)
        order = np.lexsort((np.broadcast_to(self.rid, d2.shape), d2), axis=-1)[:, :k]
        dist = np.sqrt(np.take_along_axis(d2, order, axis=1))
        # flat assembly (no per-row loop): radius filter is one mask
        nq = len(lon)
        out_q = np.repeat(qid, k)
        out_n = self.rid[order].ravel()
        out_d = dist.ravel()
        out_r = np.tile(np.arange(1, k + 1, dtype=np.int64), nq)
        if self.radius is not None:
            keep = out_d <= self.radius
            out_q, out_n, out_d = out_q[keep], out_n[keep], out_d[keep]
            # re-rank within each query after the filter (ranks stay dense)
            kept_per_q = keep.reshape(nq, k).sum(axis=1)
            out_r = (np.arange(keep.sum(), dtype=np.int64)
                     - np.repeat(np.cumsum(kept_per_q) - kept_per_q, kept_per_q) + 1)
        return pa.table(
            {
                "query_id": pa.array(out_q),
                "neighbor_id": pa.array(out_n),
                "dist": pa.array(out_d),
                "rank": pa.array(out_r),
            }
        )
