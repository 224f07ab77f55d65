"""Distributed (cross-tile) sieve filter.

Reference: alg/gdalsievefilter.cpp:178 — polygons smaller than `threshold`
pixels merge into their largest neighbor, iterating to a fixpoint. GDAL
holds the whole raster in one process; the Ray restatement (SURVEY §7.5.3
"cross-tile polygonize/sieve merge") works at COMPONENT granularity:

  1. per-tile extract (one vectorized map_batches): per-label pixel counts,
     within-tile adjacency pairs, and border cells
  2. border pairing as a hash-partitioned Ray stage: same-value pairs are
     component EQUIVALENCES, different-value pairs are component ADJACENCY
  3. ONE Ray task consumes the component graph (sizes, values, adjacency) —
     pixel data never leaves stage 1, and the driver holds only the remap's
     ObjectRef — and runs the same smallest-first merge loop as the
     single-array sieve, unioning components whose values converge
  4. a broadcast (tile, label) -> new value map relabels every tile

Determinism matches the single-array sieve up to tie-breaks: component ids
here are (tile, label) tuples, so ties in (size) may resolve differently
than whole-raster label order (documented; the equality test uses
distinct-size regions)."""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from gdal_ray.ops.relational import hash_partition_reduce
from gdal_ray.util import default_num_parts

from gdal_ray.raster.polygonize import UnionFind, label_array

TILE = 256


def _tile_sieve_pieces(arr: np.ndarray, tile_key, connectivity: int, nodata):
    """-> (stats, intra_adj, borders) column dicts; labels are tile-local."""
    tx, ty = tile_key
    labels = label_array(arr, connectivity=connectivity, nodata=nodata)
    h, w = arr.shape
    nlab = int(labels.max()) + 1
    flat, vals = labels.ravel(), arr.ravel()
    m = flat >= 0
    counts = np.bincount(flat[m], minlength=max(nlab, 1))
    # first value per label
    first_val = np.zeros(max(nlab, 1), dtype=np.float64)
    first_val[flat[m][::-1]] = vals[m][::-1]
    labs = np.arange(nlab, dtype=np.int64)
    stats = {
        "tx": np.full(nlab, tx, np.int64), "ty": np.full(nlab, ty, np.int64),
        "lab": labs, "value": first_val[:nlab].astype(np.float64),
        "count": counts[:nlab].astype(np.int64),
    }
    # within-tile adjacency (unique label pairs across h/v neighbors)
    pairs = []
    for sl_a, sl_b in ((labels[:, :-1], labels[:, 1:]),
                       (labels[:-1, :], labels[1:, :])):
        diff = (sl_a != sl_b) & (sl_a >= 0) & (sl_b >= 0)
        a, b = sl_a[diff].astype(np.int64), sl_b[diff].astype(np.int64)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        pairs.append(np.unique(lo * np.int64(nlab + 1) + hi))
    enc = np.unique(np.concatenate(pairs)) if pairs else np.array([], np.int64)
    intra = {
        "tx": np.full(enc.size, tx, np.int64), "ty": np.full(enc.size, ty, np.int64),
        "lab_a": enc // np.int64(nlab + 1), "lab_b": enc % np.int64(nlab + 1),
    }
    # border cells (both values needed cross-tile, even when nodata-adjacent)
    xs = np.arange(w, dtype=np.int64)
    ys = np.arange(h, dtype=np.int64)
    sides = [
        (0, tx * w + xs, np.full(w, ty * h, np.int64), arr[0, :], labels[0, :]),
        (0, tx * w + xs, np.full(w, ty * h + h, np.int64), arr[h - 1, :], labels[h - 1, :]),
        (1, np.full(h, tx * w, np.int64), ty * h + ys, arr[:, 0], labels[:, 0]),
        (1, np.full(h, tx * w + w, np.int64), ty * h + ys, arr[:, w - 1], labels[:, w - 1]),
    ]
    b_cols = {k: [] for k in ("orient", "gx", "gy", "value", "tx", "ty", "lab")}
    for orient, gx, gy, v, lb in sides:
        keep = lb >= 0  # nodata cells don't join/merge
        b_cols["orient"].append(np.full(int(keep.sum()), orient, np.int8))
        b_cols["gx"].append(gx[keep]); b_cols["gy"].append(gy[keep])
        b_cols["value"].append(v[keep].astype(np.float64))
        b_cols["tx"].append(np.full(int(keep.sum()), tx, np.int64))
        b_cols["ty"].append(np.full(int(keep.sum()), ty, np.int64))
        b_cols["lab"].append(lb[keep].astype(np.int64))
    borders = {k: np.concatenate(v) for k, v in b_cols.items()}
    return stats, intra, borders


def _sieve_component_merge(threshold, pair_refs, piece_refs):
    """Pure pairs+pieces -> (tile,label)->value remap reduce.

    Runs as ONE Ray task (not on the driver): the component graph is tiny
    relative to the raster, but unbounded at 100-TB scale, so the driver
    only ever holds the returned remap's ObjectRef (VERDICT r3 item 8)."""
    import ray

    pair_tables = ray.get(list(pair_refs))
    piece_tables = ray.get(list(piece_refs))

    uf = UnionFind()
    cross_adj = []
    for t in pair_tables:
        if t.num_rows == 0:
            continue
        eqs = t["eq"].to_pylist()
        axs = zip(t["tx_a"].to_pylist(), t["ty_a"].to_pylist(), t["lab_a"].to_pylist())
        bxs = zip(t["tx_b"].to_pylist(), t["ty_b"].to_pylist(), t["lab_b"].to_pylist())
        for eq, a, bb in zip(eqs, axs, bxs):
            a = (int(a[0]), int(a[1]), int(a[2]))
            bb = (int(bb[0]), int(bb[1]), int(bb[2]))
            if eq:
                uf.union(a, bb)
            else:
                cross_adj.append((a, bb))

    stats_t = pa.concat_tables(
        [t.filter(pa.compute.equal(t["kind"], 0)) for t in piece_tables])
    intra_t = pa.concat_tables(
        [t.filter(pa.compute.equal(t["kind"], 1)) for t in piece_tables])

    sizes: dict = defaultdict(int)
    value_of: dict = {}
    for txv, tyv, lab, val, cnt in zip(
        stats_t["tx"].to_pylist(), stats_t["ty"].to_pylist(),
        stats_t["lab"].to_pylist(), stats_t["value"].to_pylist(),
        stats_t["count"].to_pylist(),
    ):
        root = uf.find((txv, tyv, lab))
        sizes[root] += cnt
        value_of[root] = val
    adj: dict = defaultdict(set)
    for txv, tyv, la, lb in zip(
        intra_t["tx"].to_pylist(), intra_t["ty"].to_pylist(),
        intra_t["lab"].to_pylist(), intra_t["count"].to_pylist(),
    ):
        ra, rb = uf.find((txv, tyv, la)), uf.find((txv, tyv, int(lb)))
        if ra != rb:
            adj[ra].add(rb); adj[rb].add(ra)
    for a, bb in cross_adj:
        ra, rb = uf.find(a), uf.find(bb)
        if ra != rb:
            adj[ra].add(rb); adj[rb].add(ra)

    # --- component-graph sieve loop (mirrors raster.analysis.sieve) -----
    merged_into: dict = {}

    def find_live(r):
        while r in merged_into:
            r = merged_into[r]
        return r

    changed = True
    while changed:
        changed = False
        small = sorted((r for r in sizes if sizes[r] < threshold and r not in merged_into),
                       key=lambda r: (sizes[r], r))
        for r in small:
            if r in merged_into or sizes.get(r, 0) >= threshold:
                continue
            nbrs = {find_live(n) for n in adj.get(r, ())} - {r}
            if not nbrs:
                continue
            tgt = max(nbrs, key=lambda n: (sizes[n], n))
            # merge r into tgt: r takes tgt's value and joins its component
            sizes[tgt] += sizes.pop(r)
            merged_into[r] = tgt
            new_adj = {find_live(n) for n in adj.pop(r, ())} | \
                      {find_live(n) for n in adj.get(tgt, ())}
            new_adj -= {tgt}
            adj[tgt] = new_adj
            for n in new_adj:
                adj[n].add(tgt)
                adj[n].discard(r)
            # fuse neighbors whose value now equals tgt's (the raster
            # relabel would make them ONE region — sizes must combine
            # before further threshold decisions)
            stack = [n for n in list(new_adj) if value_of.get(n) == value_of[tgt]]
            while stack:
                n = find_live(stack.pop())
                if n == tgt or n in merged_into or n not in sizes:
                    continue
                sizes[tgt] += sizes.pop(n)
                merged_into[n] = tgt
                more = {find_live(x) for x in adj.pop(n, ())} - {tgt}
                for x in more:
                    adj[x].discard(n)
                    adj[x].add(tgt)
                adj[tgt] |= more
                adj[tgt].discard(tgt)
                stack.extend(x for x in more if value_of.get(x) == value_of[tgt])
            changed = True

    # final value per (tile, label): only components whose live root's value
    # differs need rewriting
    remap: dict = {}
    for txv, tyv, lab, val in zip(
        stats_t["tx"].to_pylist(), stats_t["ty"].to_pylist(),
        stats_t["lab"].to_pylist(), stats_t["value"].to_pylist(),
    ):
        live = find_live(uf.find((txv, tyv, lab)))
        nv = value_of[live]
        if nv != val:
            remap.setdefault((txv, tyv), {})[lab] = nv
    return remap


def sieve_tiles_ds(tiles_ds, threshold: int, *, connectivity: int = 4,
                   nodata=None, dtype=np.uint32):
    """Distributed sieve over the tile table; returns a Dataset of sieved
    tiles (zoom?, tile_x, tile_y, data)."""
    import ray

    def extract(t: pa.Table) -> pa.Table:
        cols = {k: [] for k in ("kind", "tx", "ty", "lab", "value", "count",
                                "o", "gx", "gy", "ghost")}
        for txv, tyv, buf in zip(t["tile_x"].to_pylist(), t["tile_y"].to_pylist(),
                                 t["data"].to_pylist()):
            arr = np.frombuffer(buf, dtype=dtype).reshape(TILE, TILE)
            stats, intra, borders = _tile_sieve_pieces(
                arr, (int(txv), int(tyv)), connectivity, nodata)
            if connectivity == 8:
                # GHOST copies shifted +1 along the edge direction: a ghost
                # at key k is the cell at k-1, so every DIAGONAL cross-tile
                # neighbor pair meets at one shared key (including the
                # 4-tile corner, where the corner cells of diagonal tiles
                # lie on the same horizontal edge line). Ghosts join only
                # same-value EQUIVALENCE pairs — the sieve's merge-target
                # adjacency stays face-connected, matching the single-array
                # sieve (its neighbor graph is h/v even at connectivity=8).
                nb0 = borders["lab"].size
                ghost = {k: np.concatenate([v, v]) for k, v in borders.items()}
                ghost["gx"] = np.concatenate([
                    borders["gx"],
                    borders["gx"] + (borders["orient"] == 0).astype(np.int64)])
                ghost["gy"] = np.concatenate([
                    borders["gy"],
                    borders["gy"] + (borders["orient"] == 1).astype(np.int64)])
                borders = ghost
                borders["__ghost"] = np.concatenate(
                    [np.zeros(nb0, np.int8), np.ones(nb0, np.int8)])
            else:
                borders["__ghost"] = np.zeros(borders["lab"].size, np.int8)
            ns, ni, nb = stats["lab"].size, intra["lab_a"].size, borders["lab"].size
            cols["kind"].append(np.concatenate(
                [np.zeros(ns, np.int8), np.ones(ni, np.int8), np.full(nb, 2, np.int8)]))
            cols["tx"].append(np.concatenate([stats["tx"], intra["tx"], borders["tx"]]))
            cols["ty"].append(np.concatenate([stats["ty"], intra["ty"], borders["ty"]]))
            cols["lab"].append(np.concatenate([stats["lab"], intra["lab_a"], borders["lab"]]))
            cols["value"].append(np.concatenate(
                [stats["value"], np.zeros(ni), borders["value"]]))
            cols["count"].append(np.concatenate(
                [stats["count"], intra["lab_b"], np.zeros(nb, np.int64)]))
            cols["o"].append(np.concatenate(
                [np.zeros(ns, np.int64), np.zeros(ni, np.int64),
                 borders["orient"].astype(np.int64)]))
            cols["gx"].append(np.concatenate(
                [np.zeros(ns, np.int64), np.zeros(ni, np.int64), borders["gx"]]))
            cols["gy"].append(np.concatenate(
                [np.zeros(ns, np.int64), np.zeros(ni, np.int64), borders["gy"]]))
            cols["ghost"].append(np.concatenate(
                [np.zeros(ns, np.int8), np.zeros(ni, np.int8), borders["__ghost"]]))
        return pa.table({k: pa.array(np.concatenate(v)) for k, v in cols.items()})

    pieces = tiles_ds.map_batches(extract, batch_format="pyarrow", batch_size=None).materialize()

    def borders(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["kind"], 2))
        return t.select(["o", "gx", "gy", "value", "tx", "ty", "lab", "ghost"])

    def pair_partition(g: pa.Table) -> pa.Table:
        g = g.sort_by([(c, "ascending")
                       for c in ("o", "gx", "gy", "ghost", "tx", "ty")])
        key = np.stack([g[c].to_numpy() for c in ("o", "gx", "gy")], axis=1)
        va = g["value"].to_numpy()
        gh = g["ghost"].to_numpy()
        cols = {n: g[n].to_numpy() for n in ("tx", "ty", "lab")}
        out = {"eq": [], "tx_a": [], "ty_a": [], "lab_a": [],
               "tx_b": [], "ty_b": [], "lab_b": []}
        # a key group holds <= 2 entries per side (real + conn8 ghost):
        # enumerate in-group pairs at offsets 1..3, vectorized
        max_off = 3 if connectivity == 8 else 1
        for off in range(1, max_off + 1):
            if len(g) <= off:
                break
            same = (key[:-off] == key[off:]).all(axis=1)
            a = np.nonzero(same)[0]
            if a.size == 0:
                continue
            b = a + off
            difftile = (cols["tx"][a] != cols["tx"][b]) | (cols["ty"][a] != cols["ty"][b])
            ghsum = gh[a].astype(np.int64) + gh[b]
            eqv = va[a] == va[b]
            # face pairs (no ghost): equivalence or adjacency;
            # real+ghost = diagonal: same-value equivalence ONLY;
            # ghost+ghost duplicates a face pair at the previous key: skip
            keep = difftile & ((ghsum == 0) | ((ghsum == 1) & eqv))
            a, b = a[keep], b[keep]
            out["eq"].append(eqv[keep].astype(np.int8))
            for n, arr_ in (("tx", cols["tx"]), ("ty", cols["ty"]), ("lab", cols["lab"])):
                out[f"{n}_a"].append(arr_[a])
                out[f"{n}_b"].append(arr_[b])
        if not out["eq"]:
            return pa.table({k: pa.array([], pa.int8() if k == "eq" else pa.int64())
                             for k in out})
        return pa.table({k: pa.array(np.concatenate(v)) for k, v in out.items()})

    # border pairing (hash-partitioned): equal values -> equivalence;
    # different values -> cross-tile adjacency
    pairs_ds = hash_partition_reduce(
        pieces.map_batches(borders, batch_format="pyarrow", batch_size=None),
        ["o", "gx", "gy"], pair_partition, num_parts=default_num_parts())

    # The pairs -> remap reduce is a pure function of the (small) component
    # graph, but at 100-TB raster scale the pair list is unbounded — run it
    # as ONE Ray task so the driver only ever holds the remap's ObjectRef
    # (VERDICT r3 item 8).
    remap_ref = ray.remote(num_cpus=1)(_sieve_component_merge).remote(
        threshold, pairs_ds.to_arrow_refs(), pieces.to_arrow_refs())

    def relabel(t: pa.Table) -> pa.Table:
        rm = ray.get(remap_ref)
        datas = []
        for txv, tyv, buf in zip(t["tile_x"].to_pylist(), t["tile_y"].to_pylist(),
                                 t["data"].to_pylist()):
            tile_map = rm.get((int(txv), int(tyv)))
            if not tile_map:
                datas.append(buf)
                continue
            arr = np.frombuffer(buf, dtype=dtype).reshape(TILE, TILE).copy()
            labels = label_array(arr, connectivity=connectivity, nodata=nodata)
            lut_labs = np.array(sorted(tile_map), np.int64)
            lut_vals = np.array([tile_map[k] for k in sorted(tile_map)])
            idx = np.searchsorted(lut_labs, labels.ravel())
            idx = np.clip(idx, 0, lut_labs.size - 1)
            hit = (labels.ravel() >= 0) & (lut_labs[idx] == labels.ravel())
            flat = arr.ravel()
            flat[hit] = lut_vals[idx[hit]].astype(arr.dtype)
            datas.append(flat.reshape(TILE, TILE).tobytes())
        out = t.set_column(t.schema.get_field_index("data"), "data",
                           pa.array(datas, pa.binary()))
        return out

    return tiles_ds.map_batches(relabel, batch_format="pyarrow", batch_size=None)
