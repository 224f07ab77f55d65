"""Distributed contour over the tile table + iso-band polygons.

Reference: alg/contour.cpp:569 (iso-lines AND iso-polygons, any raster
size via its segmentizer/merger). Ray restatement:

* contour_tiles_ds — iso-LINES at any raster size: each 2x2 sample cell
  is owned by the tile holding its top-left sample; tiles post a 1-px
  strip to their left/up neighbors so every owned cell is computable
  locally. Per-tile marching squares + local polyline stitch, then a
  cross-tile merge in the polygonize shape: shared endpoints (always on
  tile seams) -> equivalence pairs -> union-find over pairs only ->
  per-component polyline join.
* contour_band_polygons — iso-POLYGONS between consecutive levels,
  computed by classifying pixels into bands and running the distributed
  polygonize. Band boundaries are at pixel resolution (the reference
  interpolates sub-pixel crossings); areas exactly conserve pixel counts,
  which is what the zonal/area consumers here need. Documented scope
  difference.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

from gdal_ray.ops.relational import hash_partition_reduce
from gdal_ray.raster.analysis import contour_segments, stitch_polylines
from gdal_ray.raster.polygonize import UnionFind
from gdal_ray.util import default_num_parts

TILE = 256


def _endpoint_key(p, level_i: int) -> str:
    return f"{level_i}:{round(p[0], 6)}:{round(p[1], 6)}"


def contour_tiles_ds(tiles_ds, levels, *, dtype=np.float32):
    """tiles_ds rows (tile_x, tile_y, data[TILE*TILE dtype]) -> list of
    (level, polyline ndarray in GLOBAL pixel coords)."""
    import ray

    levels = [float(lv) for lv in levels]

    def fan(t: pa.Table) -> pa.Table:
        rows = {"t_x": [], "t_y": [], "role": [], "data": []}
        for tx, ty, buf in zip(t["tile_x"].to_pylist(), t["tile_y"].to_pylist(),
                               t["data"].to_pylist()):
            arr = np.frombuffer(buf, dtype=dtype).reshape(TILE, TILE)
            rows["t_x"].append(tx); rows["t_y"].append(ty)
            rows["role"].append("self"); rows["data"].append(buf)
            # cells at this tile's left/top seam belong to the NEIGHBOR
            # (owner = tile of the top-left sample) -> post first col/row
            posts = {(-1, 0): arr[:, :1], (0, -1): arr[:1, :], (-1, -1): arr[:1, :1]}
            for (dx, dy), strip in posts.items():
                rows["t_x"].append(tx + dx); rows["t_y"].append(ty + dy)
                rows["role"].append(f"n_{-dx}_{-dy}")
                rows["data"].append(np.ascontiguousarray(strip).tobytes())
        return pa.table({k: pa.array(v) for k, v in rows.items()})

    fanned = tiles_ds.map_batches(fan, batch_format="pyarrow", batch_size=None)

    def lines_per_tile(g: pa.Table) -> pa.Table:
        out = {"uid": [], "level_i": [], "pts": [], "k0": [], "k1": []}
        types = {"level_i": pa.int64()}
        roles, datas = g["role"].to_pylist(), g["data"].to_pylist()
        if "self" not in roles:
            return pa.table({c: pa.array(v, types.get(c, pa.string()))
                             for c, v in out.items()})
        i = roles.index("self")
        tx, ty = g["t_x"][i].as_py(), g["t_y"][i].as_py()
        pad = np.zeros((TILE + 1, TILE + 1), np.float64)
        have = np.zeros((TILE + 1, TILE + 1), bool)
        pad[:TILE, :TILE] = np.frombuffer(datas[i], dtype=dtype).reshape(TILE, TILE)
        have[:TILE, :TILE] = True
        for role, data in zip(roles, datas):
            if role == "self":
                continue
            dx, dy = (int(v) for v in role.split("_")[1:])
            strip = np.frombuffer(data, dtype=dtype)
            if (dx, dy) == (1, 0):
                pad[:TILE, TILE] = strip; have[:TILE, TILE] = True
            elif (dx, dy) == (0, 1):
                pad[TILE, :TILE] = strip; have[TILE, :TILE] = True
            else:
                pad[TILE, TILE] = strip[0]; have[TILE, TILE] = True
        ox, oy = tx * TILE, ty * TILE

        def seam_key(p, li):
            # only endpoints ON a tile seam can continue into another tile;
            # samples sit at pixel centers, so seams run at N*TILE + 0.5
            def on(v):
                q = v - 0.5
                return abs(q - round(q)) < 1e-9 and round(q) % TILE == 0

            return _endpoint_key(p, li) if (on(p[0]) or on(p[1])) else ""

        for li, lv in enumerate(levels):
            segs = contour_segments(pad, lv, valid=have)
            for j, line in enumerate(stitch_polylines(segs)):
                line = line + np.array([ox, oy], np.float64)
                out["uid"].append(f"{tx}_{ty}_{li}_{j}")
                out["level_i"].append(li)
                out["pts"].append(json.dumps(line.tolist()))
                out["k0"].append(seam_key(line[0], li))
                out["k1"].append(seam_key(line[-1], li))
        return pa.table({c: pa.array(v, types.get(c, pa.string()))
                         for c, v in out.items()})

    lines = fanned.groupby(["t_x", "t_y"]).map_groups(
        lines_per_tile, batch_format="pyarrow"
    ).materialize()

    # --- cross-tile merge, polygonize-shaped: ONLY seam-endpoint keys
    # shuffle for pairing; the driver sees just the equivalence PAIRS ----
    def endpoints(t: pa.Table) -> pa.Table:
        uids, keys = [], []
        for uid, k0v, k1v in zip(t["uid"].to_pylist(), t["k0"].to_pylist(),
                                 t["k1"].to_pylist()):
            for k in (k0v, k1v):
                if k:
                    uids.append(uid)
                    keys.append(k)
        return pa.table({"key": pa.array(keys, pa.string()),
                         "uid": pa.array(uids, pa.string())})

    def pair_group(g: pa.Table) -> pa.Table:
        u = sorted(set(g["uid"].to_pylist()))
        return pa.table({"a": pa.array(u[:-1], pa.string()),
                         "b": pa.array(u[1:], pa.string())})

    pair_batches = list(
        lines.map_batches(endpoints, batch_format="pyarrow", batch_size=None)
        .groupby("key").map_groups(pair_group, batch_format="pyarrow")
        .iter_batches(batch_size=None, batch_format="pyarrow")
    )
    uf = UnionFind()
    for b in pair_batches:
        for a, bb in zip(b["a"].to_pylist(), b["b"].to_pylist()):
            uf.union(a, bb)
    root_map = {x: str(uf.find(x)) for x in list(uf.parent)}
    map_ref = ray.put(root_map)

    # --- per-component polyline join as a Ray stage (hash-partitioned) ---
    def relabel(t: pa.Table) -> pa.Table:
        rm = ray.get(map_ref)
        roots = [rm.get(u, u) for u in t["uid"].to_pylist()]
        return pa.table({"root": pa.array(roots, pa.string()),
                         "level_i": t["level_i"], "pts": t["pts"]})

    def join_partition(g: pa.Table) -> pa.Table:
        g = g.sort_by("root")
        roots = g["root"].to_numpy()
        bounds = np.concatenate(
            [[0], np.nonzero(roots[1:] != roots[:-1])[0] + 1, [len(g)]])
        level_i = g["level_i"].to_numpy()
        pts = g["pts"].to_pylist()
        out_li, out_pts = [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            polylines = [np.array(json.loads(p), np.float64) for p in pts[s:e]]
            for line in _join_polylines(polylines):
                out_li.append(int(level_i[s]))
                out_pts.append(json.dumps(line.tolist()))
        return pa.table({"level_i": pa.array(out_li, pa.int64()),
                         "pts": pa.array(out_pts, pa.string())})

    joined = hash_partition_reduce(
        lines.map_batches(relabel, batch_format="pyarrow", batch_size=None),
        ["root"], join_partition, num_parts=default_num_parts())
    out = []
    for b in joined.iter_batches(batch_size=None, batch_format="pyarrow"):
        for li, pj in zip(b["level_i"].to_pylist(), b["pts"].to_pylist()):
            out.append((levels[li], np.array(json.loads(pj), np.float64)))
    return out


def _join_polylines(polylines: list[np.ndarray]) -> list[np.ndarray]:
    """Greedy endpoint-matching join of polylines into maximal chains
    (same contract as stitch_polylines, at polyline granularity)."""
    def key(p):
        return (round(float(p[0]), 6), round(float(p[1]), 6))

    from collections import defaultdict

    adj = defaultdict(list)
    for i, line in enumerate(polylines):
        adj[key(line[0])].append((i, True))
        adj[key(line[-1])].append((i, False))
    used = [False] * len(polylines)
    out = []
    for start in range(len(polylines)):
        if used[start]:
            continue
        used[start] = True
        chain = polylines[start]
        while True:
            nxt = [(i, fwd) for i, fwd in adj[key(chain[-1])] if not used[i]]
            if not nxt:
                break
            i, fwd = nxt[0]
            used[i] = True
            seg = polylines[i] if fwd else polylines[i][::-1]
            chain = np.vstack([chain, seg[1:]])
        while True:
            nxt = [(i, fwd) for i, fwd in adj[key(chain[0])] if not used[i]]
            if not nxt:
                break
            i, fwd = nxt[0]
            used[i] = True
            seg = polylines[i][::-1] if fwd else polylines[i]
            chain = np.vstack([seg[:-1], chain])
        out.append(chain)
    return out


def contour_band_polygons(tiles_ds, levels, *, dtype=np.float32, nodata=None):
    """Iso-band POLYGONS: pixels classify into band b = #levels <= value
    (np.digitize), the banded raster polygonizes with the distributed
    cross-tile merge. Returns [(band_index, rings)] where band b covers
    levels[b-1] <= value < levels[b] (b=0 below the first level). Pixel-
    resolution boundaries (documented vs the reference's interpolation)."""
    from gdal_ray.raster.mapops import tile_calc
    from gdal_ray.stages.raster import polygonize_tiles_ds

    levels = sorted(float(lv) for lv in levels)

    def classify(arr):
        bands = np.digitize(arr.astype(np.float64), levels).astype(np.uint32)
        if nodata is not None:
            bands = np.where(arr == nodata, np.uint32(len(levels) + 1), bands)
        return bands

    banded = tile_calc(tiles_ds, classify, dtype=dtype, out_dtype=np.uint32)
    nd = (len(levels) + 1) if nodata is not None else None
    return polygonize_tiles_ds(banded, connectivity=4, nodata=nd, dtype=np.uint32)
