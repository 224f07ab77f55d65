"""Distributed connected components over an edge Dataset — the missing
step between near-dup CANDIDATE PAIRS and dedup CLUSTERS (pick one
survivor per component). The reference's analog is the single-process
union-find in polygonize/sieve; at 100 TB the edge list (1e8-1e9 pairs
from LSH) never fits one process, so this is hash-min label propagation
with pointer jumping:

  label(v) <- min(label(v), min over neighbors' labels)   [1 round]
  label(v) <- label(label(v))                             [pointer jump]

Rounds converge in O(log(diameter)) thanks to the jump step.

EXECUTION SHAPE (round 4): the iterative loop runs on raw Ray tasks over
lists of partitioned Arrow tables, NOT on per-round Dataset plans. Two
reasons, both measured:

1. Ray Data's sort-based ``groupby().map_groups`` costs seconds of fixed
   overhead per call; the previous Dataset formulation paid 3 of them per
   round (~30-60 s/round on a loaded host, even at 1e5 edges).
2. Iterative Dataset plans accumulate lineage/stats metadata per
   generation (rounds decayed exponentially until severed with
   ``from_arrow_refs(materialize().to_arrow_refs())`` — see ``_sever``).

Raw tasks sidestep both: labels live as ``num_parts`` object-store tables
hash-partitioned by node (a loop invariant), edges are co-partitioned by
hash(nbr) ONCE before the loop, and each round is three small map-reduce
shuffles (messages->min, jump-request, jump-result) of 2-column int64
tables. The driver holds only object refs and per-round changed-counts;
at 256 nodes the same code runs with num_parts ~ 2x cluster CPUs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from gdal_ray.util import partition_ids


def _sever(ds):
    """Materialize AND cut Ray Data's stats/lineage chain by rewrapping
    the materialized blocks (from_arrow_refs — zero-copy, blocks stay in
    the object store). A plain .materialize() keeps a per-generation
    lineage/stats chain whose metadata compounds: a 12-iteration label
    loop grew 0.5s -> 8.5s per round with materialize() alone, and stays
    ~0.6s flat with the rewrap. Kept as the canonical pattern for any
    Dataset-level iteration elsewhere in the repo."""
    import ray.data as rd

    m = ds.materialize()
    return rd.from_arrow_refs(m.to_arrow_refs())


def _pairs_to_edges(pairs_ds, a_col: str, b_col: str):
    """(a, b) pairs -> symmetric (node, nbr) edge rows."""

    def sym(t: pa.Table) -> pa.Table:
        a = t[a_col].to_numpy(zero_copy_only=False)
        b = t[b_col].to_numpy(zero_copy_only=False)
        return pa.table({
            "node": pa.array(np.concatenate([a, b]), pa.int64()),
            "nbr": pa.array(np.concatenate([b, a]), pa.int64()),
        })

    return pairs_ds.map_batches(sym, batch_format="pyarrow", batch_size=None)


@ray.remote
def _split_by_hash(t: pa.Table, key_col: str, num_parts: int):
    """One table -> num_parts tables routed by hash(key_col). Single
    argsort + boundary scan; slices are zero-copy views of one take."""
    if len(t) == 0:
        return [t] * num_parts if num_parts > 1 else t
    part = partition_ids(t, [key_col], num_parts)
    order = np.argsort(part, kind="stable")
    sorted_t = t.take(pa.array(order))
    bounds = np.searchsorted(part[order], np.arange(num_parts + 1))
    out = [sorted_t.slice(bounds[p], bounds[p + 1] - bounds[p])
           for p in range(num_parts)]
    return out if num_parts > 1 else out[0]


@ray.remote
def _init_labels(edges_p: pa.Table) -> pa.Table:
    """Edges partitioned by hash(nbr): the distinct nbr values of
    partition p are exactly the endpoints with hash == p (edges are
    symmetric), so initial labels come free of any extra shuffle.
    Output sorted by node — a loop invariant every lookup relies on.
    `chg` marks labels that changed last round (all, initially): only
    changed neighbors re-send messages (delta propagation — a label once
    incorporated never needs re-sending because labels are monotone
    decreasing, so the per-round message volume tracks the shrinking
    frontier instead of staying edge-sized)."""
    n = np.unique(edges_p["nbr"].to_numpy(zero_copy_only=False))
    return pa.table({"node": pa.array(n, pa.int64()),
                     "label": pa.array(n, pa.int64()),
                     "chg": pa.array(np.ones(n.size, np.int8))})


@ray.remote
def _msgs(edges_p: pa.Table, labels_p: pa.Table) -> pa.Table:
    """Per-partition (no shuffle): edges_p has hash(nbr)==p, labels_p has
    hash(node)==p and is sorted by node, so every nbr resolves locally.
    Only edges whose nbr's label changed last round emit a message."""
    if len(edges_p) == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "cand": pa.array([], pa.int64())})
    ln = labels_p["node"].to_numpy(zero_copy_only=False)
    lv = labels_p["label"].to_numpy(zero_copy_only=False)
    chg = labels_p["chg"].to_numpy(zero_copy_only=False)
    nbr = edges_p["nbr"].to_numpy(zero_copy_only=False)
    pos = np.searchsorted(ln, nbr)
    live = chg[pos] != 0
    node = edges_p["node"].to_numpy(zero_copy_only=False)[live]
    cand = lv[pos][live]
    # local pre-min per destination node before the shuffle: round 1 is
    # edge-sized otherwise (every label "changed" at init), and a single
    # lexsort here cuts the all-to-all volume to <= distinct dst nodes
    if node.size > 1:
        order = np.lexsort((cand, node))
        node, cand = node[order], cand[order]
        keep = np.ones(node.size, bool)
        keep[1:] = node[1:] != node[:-1]
        node, cand = node[keep], cand[keep]
    return pa.table({"node": pa.array(node, pa.int64()),
                     "cand": pa.array(cand, pa.int64())})


@ray.remote(num_returns=2)
def _min_step(labels_p: pa.Table, *msg_pieces: pa.Table):
    """new_label(v) = min(own, candidates). Returns (new labels table —
    same node order as labels_p, still sorted — , changed count)."""
    ln = labels_p["node"].to_numpy(zero_copy_only=False)
    own = labels_p["label"].to_numpy(zero_copy_only=False)
    new = own.copy()
    pieces = [m for m in msg_pieces if len(m)]
    if pieces:
        msgs = pa.concat_tables(pieces)
        node = msgs["node"].to_numpy(zero_copy_only=False)
        cand = msgs["cand"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(ln, node)
        np.minimum.at(new, idx, cand)
    changed = int((new != own).sum())
    out = pa.table({"node": labels_p["node"], "label": pa.array(new, pa.int64())})
    return out, changed


@ray.remote
def _jump_resolve(provider_q: pa.Table, *request_pieces: pa.Table) -> pa.Table:
    """Requests (node, label) with hash(label)==q against providers
    (node->label) with hash(node)==q: label2 = label(label)."""
    pieces = [r for r in request_pieces if len(r)]
    if not pieces:
        return pa.table({"node": pa.array([], pa.int64()),
                         "label": pa.array([], pa.int64())})
    req = pa.concat_tables(pieces)
    ln = provider_q["node"].to_numpy(zero_copy_only=False)
    lv = provider_q["label"].to_numpy(zero_copy_only=False)
    lbl = req["label"].to_numpy(zero_copy_only=False)
    pos = np.searchsorted(ln, lbl)
    return pa.table({"node": req["node"], "label": pa.array(lv[pos], pa.int64())})


@ray.remote
def _concat_sorted(*pieces: pa.Table) -> pa.Table:
    parts = [p for p in pieces if len(p)]
    if not parts:
        return pieces[0]  # empty, but carries the right schema
    t = pa.concat_tables(parts)
    order = np.argsort(t["node"].to_numpy(zero_copy_only=False), kind="stable")
    return t.take(pa.array(order))


@ray.remote
def _labels_round_end(prev_labels_p: pa.Table, *back_pieces: pa.Table) -> pa.Table:
    """Re-assemble the post-jump labels for partition p and mark which
    changed vs the round-start labels (same node set, both sorted by
    node, so the comparison is positional)."""
    parts = [p for p in back_pieces if len(p)]
    if not parts:
        return prev_labels_p
    t = pa.concat_tables(parts)
    node = t["node"].to_numpy(zero_copy_only=False)
    order = np.argsort(node, kind="stable")
    node = node[order]
    label = t["label"].to_numpy(zero_copy_only=False)[order]
    prev = prev_labels_p["label"].to_numpy(zero_copy_only=False)
    return pa.table({"node": pa.array(node, pa.int64()),
                     "label": pa.array(label, pa.int64()),
                     "chg": pa.array((label != prev).astype(np.int8))})


def _shuffle_refs(refs, key_col: str, num_parts: int):
    """All-to-all on raw tasks: split each table by hash(key_col), return
    per-partition lists of piece refs (num_parts lists)."""
    splits = [_split_by_hash.options(num_returns=num_parts).remote(r, key_col, num_parts)
              if num_parts > 1 else [_split_by_hash.remote(r, key_col, num_parts)]
              for r in refs]
    return [[s[p] for s in splits] for p in range(num_parts)]


def _cc_load_checkpoint(cp_dir: str, num_parts: int):
    """Newest sealed round -> (round, label-table refs) or None. Label
    tables restore VERBATIM (node-sorted with the chg delta markers),
    which reproduces the uninterrupted delta-propagation stream
    exactly."""
    import json
    import os
    import re

    if not os.path.isdir(cp_dir):
        return None
    best = None
    for name in os.listdir(cp_dir):
        m = re.fullmatch(r"iter_(\d{4})", name)
        if m and os.path.exists(os.path.join(cp_dir, name, "_COMPLETE")):
            it = int(m.group(1))
            if best is None or it > best:
                best = it
    if best is None:
        return None
    d = os.path.join(cp_dir, f"iter_{best:04d}")
    info = json.load(open(os.path.join(d, "_COMPLETE")))
    if info["num_parts"] != num_parts:
        raise ValueError(
            f"checkpoint {d} was written with num_parts="
            f"{info['num_parts']}; this run has {num_parts} — resume "
            "requires the same partitioning")

    @ray.remote
    def _load(path: str) -> pa.Table:
        import pyarrow.parquet as pq

        return pq.read_table(path)

    return best, [_load.remote(os.path.join(d, f"part_{p}.parquet"))
                  for p in range(num_parts)]


def connected_components(pairs_ds, a_col: str = "id_a", b_col: str = "id_b",
                         *, max_rounds: int = 50,
                         num_parts: int | None = None,
                         stats_out: dict | None = None,
                         checkpoint_dir: str | None = None,
                         checkpoint_every: int = 1):
    """-> Dataset (node, component) where component = min node id of the
    connected component. Raises if not converged within max_rounds (each
    round is min-propagation + one pointer jump, so rounds ~ log2 of the
    largest component's diameter).

    num_parts defaults to 1x cluster CPUs (floor 16, cap 256). Each
    shuffle creates num_parts^2 piece objects, and object-management
    cost dominates these narrow tables long before partition size does
    (measured at 10M edges / 32 cpus: P=32 -> 8.4 s total, P=64 ->
    67.8 s). The 256 cap keeps piece count <= 65k on big clusters; a
    cluster where 256 partitions of the label table overflow workers
    would need a two-level (node-then-worker) exchange here.

    stats_out, if given, receives {"rounds": int, "round_secs": [float],
    "round_changed": [int]} — the flat-per-round guarantee is benchmarked
    against these (bench.py cc10m).

    checkpoint_dir: same sealed-iteration resume contract as pagerank —
    label tables (with their delta `chg` markers) write verbatim every
    `checkpoint_every` rounds; a rerun resumes the delta-propagation
    stream exactly where it stopped (the edge partitioning re-derives
    from the input; num_parts must match the checkpoint)."""
    import time as _time

    import ray.data as rd

    from gdal_ray.util import default_num_parts

    if num_parts is None:
        num_parts = min(default_num_parts(multiplier=1, floor=16), 256)

    edge_refs = _pairs_to_edges(pairs_ds, a_col, b_col) \
        .materialize().to_arrow_refs()
    if not edge_refs:
        return rd.from_arrow(pa.table({"node": pa.array([], pa.int64()),
                                       "component": pa.array([], pa.int64())}))
    # one-time co-partitioning: edges by hash(nbr) — the SAME hash that
    # partitions labels by node, so per-round message lookup is local
    edge_pieces = _shuffle_refs(edge_refs, "nbr", num_parts)
    edges = [_concat_sorted.options(name="cc_edges").remote(*edge_pieces[p])
             for p in range(num_parts)]
    labels = [_init_labels.remote(edges[p]) for p in range(num_parts)]
    start_round = 0
    if checkpoint_dir is not None:
        resumed = _cc_load_checkpoint(checkpoint_dir, num_parts)
        if resumed is not None:
            start_round, labels = resumed

    round_secs: list[float] = []
    round_changed: list[int] = []
    for _round in range(start_round, max_rounds):
        t0 = _time.time()
        # 1. messages: nbr's current label, resolved locally per partition
        msgs = [_msgs.remote(edges[p], labels[p]) for p in range(num_parts)]
        # 2. shuffle messages to hash(node) and take the min vs own label
        msg_pieces = _shuffle_refs(msgs, "node", num_parts)
        minned, changed = [], []
        for p in range(num_parts):
            lab, ch = _min_step.remote(labels[p], *msg_pieces[p])
            minned.append(lab)
            changed.append(ch)
        n_changed = sum(ray.get(changed))
        round_secs.append(round(_time.time() - t0, 3))
        round_changed.append(n_changed)
        if n_changed == 0:
            # fixed point of min-propagation over symmetric edges ->
            # labels are constant per component and equal the min id.
            # (Delta messages preserve this: an unchanged neighbor's
            # label was incorporated at its last change and labels are
            # monotone decreasing, so zero min-changes given the delta
            # stream implies the full fixed point.)
            if stats_out is not None:
                stats_out.update(rounds=len(round_secs),
                                 round_secs=round_secs,
                                 round_changed=round_changed)
            out = rd.from_arrow_refs(labels)
            return out.map_batches(
                lambda t: t.select(["node", "label"])
                           .rename_columns(["node", "component"]),
                batch_format="pyarrow", batch_size=None)
        # 3. pointer jump: label <- label(label). Requests shuffle to
        #    hash(label); resolved rows shuffle back to hash(node).
        req_pieces = _shuffle_refs(minned, "label", num_parts)
        resolved = [_jump_resolve.remote(minned[q], *req_pieces[q])
                    for q in range(num_parts)]
        back = _shuffle_refs(resolved, "node", num_parts)
        labels = [_labels_round_end.remote(labels[p], *back[p])
                  for p in range(num_parts)]
        if checkpoint_dir is not None and \
                (_round + 1) % max(checkpoint_every, 1) == 0:
            # n_nodes unused by the cc loader (labels restore verbatim)
            _pr_write_checkpoint(checkpoint_dir, _round + 1, num_parts,
                                 0, labels)
    raise RuntimeError(f"connected_components: no convergence in {max_rounds} rounds")


def dedup_survivors(pairs_ds, a_col: str = "id_a", b_col: str = "id_b",
                    *, num_parts: int | None = None):
    """Near-dup clusters -> survivors: every node's component plus a
    `keep` flag (True for the minimum id of each component — the
    canonical doc). Docs not in any pair are implicitly kept."""
    comps = connected_components(pairs_ds, a_col, b_col, num_parts=num_parts)

    def flag(t: pa.Table) -> pa.Table:
        node = t["node"].to_numpy(zero_copy_only=False)
        comp = t["component"].to_numpy(zero_copy_only=False)
        return pa.table({
            "node": t["node"], "component": t["component"],
            "keep": pa.array(node == comp),
        })

    return comps.map_batches(flag, batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# BFS shortest paths (hop counts) — frontier expansion on the same raw-task
# co-partitioned shuffle machinery as connected_components
# ---------------------------------------------------------------------------


@ray.remote
def _bfs_expand(edges_p: pa.Table, frontier_p: pa.Table, d: int) -> pa.Table:
    """Edges partitioned by hash(src), frontier by hash(node) with the
    SAME hash — every frontier node's out-edges are local. Emits
    (node=dst, d) candidate rows."""
    if len(edges_p) == 0 or len(frontier_p) == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "d": pa.array([], pa.int64())})
    src = edges_p["src"].to_numpy(zero_copy_only=False)
    fn = np.unique(frontier_p["node"].to_numpy(zero_copy_only=False))
    pos = np.searchsorted(fn, src)
    hit = (pos < fn.size) & (fn[np.minimum(pos, fn.size - 1)] == src)
    dst = edges_p["dst"].to_numpy(zero_copy_only=False)[hit]
    dst = np.unique(dst)
    return pa.table({"node": pa.array(dst, pa.int64()),
                     "d": pa.array(np.full(dst.size, d, np.int64))})


@ray.remote(num_returns=3)
def _bfs_absorb(dist_p: pa.Table, *cand_pieces: pa.Table):
    """Merge candidate (node, d) rows into partition p's dist table
    (sorted by node). Returns (new dist table, next frontier, n_new)."""
    empty = pa.table({"node": pa.array([], pa.int64()),
                      "d": pa.array([], pa.int64())})
    pieces = [c for c in cand_pieces if len(c)]
    if not pieces:
        return dist_p, empty, 0
    cand = pa.concat_tables(pieces)
    cn = np.unique(cand["node"].to_numpy(zero_copy_only=False))
    d = int(cand["d"][0].as_py())
    dn = dist_p["node"].to_numpy(zero_copy_only=False)
    pos = np.searchsorted(dn, cn)
    known = (pos < dn.size) & (dn[np.minimum(pos, max(dn.size - 1, 0))] == cn) \
        if dn.size else np.zeros(cn.size, bool)
    new = cn[~known]
    if new.size == 0:
        return dist_p, empty, 0
    nd = np.concatenate([dn, new])
    dd = np.concatenate([dist_p["d"].to_numpy(zero_copy_only=False),
                         np.full(new.size, d, np.int64)])
    order = np.argsort(nd, kind="stable")
    out = pa.table({"node": pa.array(nd[order], pa.int64()),
                    "d": pa.array(dd[order], pa.int64())})
    frontier = pa.table({"node": pa.array(new, pa.int64()),
                         "d": pa.array(np.full(new.size, d, np.int64))})
    return out, frontier, int(new.size)


def bfs_shortest_paths(edges_ds, sources, *, src_col: str = "src",
                       dst_col: str = "dst", max_depth: int = 64,
                       num_parts: int | None = None,
                       stats_out: dict | None = None):
    """Single/multi-source BFS hop distances over a DIRECTED edge Dataset
    -> Dataset (node, dist). dist = fewest edges from any source (sources
    themselves get 0); nodes unreachable within max_depth are absent —
    the distributed analog of GNM's Dijkstra for unit weights
    (gnm/gnmgraph.h:173 names the API; the algorithm is textbook BFS).

    Same execution shape as connected_components: edges co-partitioned by
    hash(src) ONCE, dist/frontier tables live hash-partitioned in the
    object store, each round is one local expand + one candidate shuffle;
    the driver holds only refs and per-round new-node counts, so rounds =
    graph eccentricity and per-round cost tracks the frontier size."""
    import time as _time

    import ray.data as rd

    from gdal_ray.util import default_num_parts

    if num_parts is None:
        num_parts = min(default_num_parts(multiplier=1, floor=16), 256)

    import pyarrow.compute as pc

    def norm(t: pa.Table) -> pa.Table:
        return pa.table({"src": pc.cast(t[src_col], pa.int64()),
                         "dst": pc.cast(t[dst_col], pa.int64())})

    edge_refs = edges_ds.map_batches(norm, batch_format="pyarrow",
                                     batch_size=None) \
        .materialize().to_arrow_refs()
    srcs = np.unique(np.asarray(list(sources), np.int64))
    src_tbl = pa.table({"node": pa.array(srcs, pa.int64()),
                        "d": pa.array(np.zeros(srcs.size, np.int64))})
    if not edge_refs or srcs.size == 0:
        return rd.from_arrow(src_tbl.rename_columns(["node", "dist"]))

    edge_pieces = _shuffle_refs(edge_refs, "src", num_parts)

    @ray.remote
    def _edges_cat(*pieces):
        parts = [p for p in pieces if len(p)]
        if not parts:
            return pieces[0]
        t = pa.concat_tables(parts)
        order = np.argsort(t["src"].to_numpy(zero_copy_only=False),
                           kind="stable")
        return t.take(pa.array(order))

    edges = [_edges_cat.remote(*edge_pieces[p]) for p in range(num_parts)]
    if num_parts > 1:
        dist = list(_split_by_hash.options(num_returns=num_parts)
                    .remote(src_tbl, "node", num_parts))
    else:
        dist = [_split_by_hash.remote(src_tbl, "node", 1)]
    frontier = list(dist)

    round_secs: list[float] = []
    round_new: list[int] = []
    for depth in range(1, max_depth + 1):
        t0 = _time.time()
        cands = [_bfs_expand.remote(edges[p], frontier[p], depth)
                 for p in range(num_parts)]
        cand_pieces = _shuffle_refs(cands, "node", num_parts)
        nxt_dist, nxt_frontier, counts = [], [], []
        for p in range(num_parts):
            dp, fp, c = _bfs_absorb.remote(dist[p], *cand_pieces[p])
            nxt_dist.append(dp)
            nxt_frontier.append(fp)
            counts.append(c)
        n_new = sum(ray.get(counts))
        dist, frontier = nxt_dist, nxt_frontier
        round_secs.append(round(_time.time() - t0, 3))
        round_new.append(n_new)
        if n_new == 0:
            break
    if stats_out is not None:
        stats_out.update(rounds=len(round_secs), round_secs=round_secs,
                         round_new=round_new)
    out = rd.from_arrow_refs(dist)
    return out.map_batches(
        lambda t: t.rename_columns(["node", "dist"]),
        batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# Weighted SSSP — label-correcting (distributed Bellman-Ford with frontier)
# ---------------------------------------------------------------------------


@ray.remote
def _sssp_expand(edges_p: pa.Table, frontier_p: pa.Table) -> pa.Table:
    """Frontier (node, d) against edges (src, dst, w) co-partitioned by
    hash(src): emit (node=dst, d + w) relaxation candidates. One
    searchsorted fan-out; a frontier node with k out-edges emits k rows."""
    if len(edges_p) == 0 or len(frontier_p) == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "d": pa.array([], pa.int64())})
    fn = frontier_p["node"].to_numpy(zero_copy_only=False)
    fd = frontier_p["d"].to_numpy(zero_copy_only=False)
    order = np.argsort(fn, kind="stable")
    fn, fd = fn[order], fd[order]
    src = edges_p["src"].to_numpy(zero_copy_only=False)
    lo = np.searchsorted(fn, src)
    hit = (lo < fn.size) & (fn[np.minimum(lo, fn.size - 1)] == src)
    dst = edges_p["dst"].to_numpy(zero_copy_only=False)[hit]
    w = edges_p["w"].to_numpy(zero_copy_only=False)[hit]
    nd = fd[lo[hit]] + w
    # local pre-min per dst shrinks the shuffle
    o2 = np.lexsort((nd, dst))
    ds_, nds = dst[o2], nd[o2]
    new = np.ones(ds_.size, bool)
    new[1:] = ds_[1:] != ds_[:-1]
    return pa.table({"node": pa.array(ds_[new], pa.int64()),
                     "d": pa.array(nds[new], pa.int64())})


@ray.remote(num_returns=3)
def _sssp_absorb(dist_p: pa.Table, *cand_pieces: pa.Table):
    """Min-merge candidates into partition p's dist table (sorted by
    node). Returns (new dist, improved rows as next frontier, n_improved)."""
    empty = pa.table({"node": pa.array([], pa.int64()),
                      "d": pa.array([], pa.int64())})
    pieces = [c for c in cand_pieces if len(c)]
    if not pieces:
        return dist_p, empty, 0
    cand = pa.concat_tables(pieces)
    cn = cand["node"].to_numpy(zero_copy_only=False)
    cd = cand["d"].to_numpy(zero_copy_only=False)
    o = np.lexsort((cd, cn))
    cn, cd = cn[o], cd[o]
    first = np.ones(cn.size, bool)
    first[1:] = cn[1:] != cn[:-1]
    cn, cd = cn[first], cd[first]
    dn = dist_p["node"].to_numpy(zero_copy_only=False)
    dd = dist_p["d"].to_numpy(zero_copy_only=False)
    pos = np.searchsorted(dn, cn)
    known = (pos < dn.size) & (dn[np.minimum(pos, max(dn.size - 1, 0))] == cn) \
        if dn.size else np.zeros(cn.size, bool)
    better = np.zeros(cn.size, bool)
    if known.any():
        better[known] = cd[known] < dd[pos[known]]
    improved_known = cn[known & better]
    new_nodes = cn[~known]
    if improved_known.size == 0 and new_nodes.size == 0:
        return dist_p, empty, 0
    upd = dd.copy()
    if (known & better).any():
        upd[pos[known & better]] = cd[known & better]
    nd = np.concatenate([dn, new_nodes])
    ndd = np.concatenate([upd, cd[~known]])
    order = np.argsort(nd, kind="stable")
    out = pa.table({"node": pa.array(nd[order], pa.int64()),
                    "d": pa.array(ndd[order], pa.int64())})
    fr_n = np.concatenate([improved_known, new_nodes])
    fr_d = np.concatenate([cd[known & better], cd[~known]])
    frontier = pa.table({"node": pa.array(fr_n, pa.int64()),
                         "d": pa.array(fr_d, pa.int64())})
    return out, frontier, int(fr_n.size)


def sssp_weighted(edges_ds, sources, *, src_col: str = "src",
                  dst_col: str = "dst", weight_col: str = "w",
                  max_rounds: int = 100, num_parts: int | None = None,
                  stats_out: dict | None = None):
    """Single/multi-source shortest paths with non-negative INTEGER edge
    weights over a directed edge Dataset -> Dataset (node, dist). The
    distributed analog of GNM's Dijkstra (gnm/gnmgraph.h:173): distances
    converge by label correction (Bellman-Ford with a changed-set
    frontier), each round one local expand + one candidate shuffle on the
    raw-task machinery; rounds <= hop count of the longest shortest path."""
    import time as _time

    import pyarrow.compute as pc
    import ray.data as rd

    from gdal_ray.util import default_num_parts

    if num_parts is None:
        num_parts = min(default_num_parts(multiplier=1, floor=16), 256)

    def norm(t: pa.Table) -> pa.Table:
        return pa.table({"src": pc.cast(t[src_col], pa.int64()),
                         "dst": pc.cast(t[dst_col], pa.int64()),
                         "w": pc.cast(t[weight_col], pa.int64())})

    edge_refs = edges_ds.map_batches(norm, batch_format="pyarrow",
                                     batch_size=None) \
        .materialize().to_arrow_refs()
    srcs = np.unique(np.asarray(list(sources), np.int64))
    src_tbl = pa.table({"node": pa.array(srcs, pa.int64()),
                        "d": pa.array(np.zeros(srcs.size, np.int64))})
    if not edge_refs or srcs.size == 0:
        return rd.from_arrow(src_tbl.rename_columns(["node", "dist"]))

    edge_pieces = _shuffle_refs(edge_refs, "src", num_parts)

    @ray.remote
    def _edges_cat(*pieces):
        parts = [p for p in pieces if len(p)]
        if not parts:
            return pieces[0]
        t = pa.concat_tables(parts)
        order = np.argsort(t["src"].to_numpy(zero_copy_only=False),
                           kind="stable")
        return t.take(pa.array(order))

    edges = [_edges_cat.remote(*edge_pieces[p]) for p in range(num_parts)]
    if num_parts > 1:
        dist = list(_split_by_hash.options(num_returns=num_parts)
                    .remote(src_tbl, "node", num_parts))
    else:
        dist = [_split_by_hash.remote(src_tbl, "node", 1)]
    frontier = list(dist)

    round_secs: list[float] = []
    round_new: list[int] = []
    for _ in range(max_rounds):
        t0 = _time.time()
        cands = [_sssp_expand.remote(edges[p], frontier[p])
                 for p in range(num_parts)]
        cand_pieces = _shuffle_refs(cands, "node", num_parts)
        nxt_dist, nxt_frontier, counts = [], [], []
        for p in range(num_parts):
            dp, fp, c = _sssp_absorb.remote(dist[p], *cand_pieces[p])
            nxt_dist.append(dp)
            nxt_frontier.append(fp)
            counts.append(c)
        n_new = sum(ray.get(counts))
        dist, frontier = nxt_dist, nxt_frontier
        round_secs.append(round(_time.time() - t0, 3))
        round_new.append(n_new)
        if n_new == 0:
            break
    else:
        raise RuntimeError(f"sssp_weighted: no convergence in {max_rounds} rounds")
    if stats_out is not None:
        stats_out.update(rounds=len(round_secs), round_secs=round_secs,
                         round_new=round_new)
    out = rd.from_arrow_refs(dist)
    return out.map_batches(
        lambda t: t.rename_columns(["node", "dist"]),
        batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# PageRank — distributed power iteration (link-graph quality signal for
# web-corpus curation; extension beyond the reference, which has no graph
# ranking. Same execution shape as connected_components: edges
# co-partitioned by hash(src) ONCE, ranks live hash-partitioned by node in
# the object store, each iteration is one local expand + one contribution
# shuffle; the driver holds only refs and two scalars per iteration
# (dangling mass, L1 delta).
# ---------------------------------------------------------------------------


@ray.remote(num_returns=3)
def _pr_nodes_outdeg(edges_p: pa.Table, *node_pieces: pa.Table):
    """Partition-local node universe (unique) + out-degree aligned to it,
    plus the node count (scalar)."""
    parts = [p["node"].to_numpy(zero_copy_only=False)
             for p in node_pieces if len(p)]
    nodes = (np.unique(np.concatenate(parts)) if parts
             else np.empty(0, np.int64))
    src = np.sort(edges_p["src"].to_numpy(zero_copy_only=False)) \
        if len(edges_p) else np.empty(0, np.int64)
    lo = np.searchsorted(src, nodes, side="left")
    hi = np.searchsorted(src, nodes, side="right")
    outdeg = (hi - lo).astype(np.int64)
    return (pa.table({"node": pa.array(nodes, pa.int64()),
                      "outdeg": pa.array(outdeg)}),
            int(nodes.size), None)


@ray.remote(num_returns=2)
def _pr_expand(edges_p: pa.Table, meta_p: pa.Table, ranks_p: pa.Table):
    """Contributions (dst, r/outdeg per out-edge) + local dangling mass.
    edges_p is sorted by src; ranks/meta share the node order."""
    r = ranks_p["r"].to_numpy(zero_copy_only=False)
    nodes = meta_p["node"].to_numpy(zero_copy_only=False)
    outdeg = meta_p["outdeg"].to_numpy(zero_copy_only=False)
    dangling = float(r[outdeg == 0].sum()) if len(r) else 0.0
    if len(edges_p) == 0:
        return pa.table({"dst": pa.array([], pa.int64()),
                         "w": pa.array([], pa.float64())}), dangling
    src = edges_p["src"].to_numpy(zero_copy_only=False)
    dst = edges_p["dst"].to_numpy(zero_copy_only=False)
    j = np.searchsorted(nodes, src)  # nodes unique-sorted; srcs all present
    w = r[j] / outdeg[j]
    return pa.table({"dst": pa.array(dst, pa.int64()),
                     "w": pa.array(w, pa.float64())}), dangling


@ray.remote(num_returns=2)
def _pr_absorb(meta_p: pa.Table, ranks_p: pa.Table, base: float,
               damping: float, *contrib_pieces: pa.Table):
    """New rank per node: base + damping * (incoming sum). Returns the
    ranks table and the partition's L1 delta (scalar)."""
    nodes = meta_p["node"].to_numpy(zero_copy_only=False)
    acc = np.zeros(nodes.size, np.float64)
    for piece in contrib_pieces:
        if len(piece) == 0:
            continue
        d = piece["dst"].to_numpy(zero_copy_only=False)
        w = piece["w"].to_numpy(zero_copy_only=False)
        np.add.at(acc, np.searchsorted(nodes, d), w)
    new_r = base + damping * acc
    prev = ranks_p["r"].to_numpy(zero_copy_only=False)
    delta = float(np.abs(new_r - prev).sum()) if prev.size else 0.0
    return pa.table({"node": meta_p["node"],
                     "r": pa.array(new_r, pa.float64())}), delta


def _pr_write_checkpoint(cp_dir: str, iteration: int, num_parts: int,
                         n_total: int, ranks) -> None:
    """Seal {cp_dir}/iter_NNNN: per-partition parquet written by remote
    tasks, then one atomic _COMPLETE marker (tmp + rename)."""
    import json
    import os

    d = os.path.join(cp_dir, f"iter_{iteration:04d}")
    os.makedirs(d, exist_ok=True)

    @ray.remote
    def _write(t: pa.Table, path: str) -> int:
        import pyarrow.parquet as pq

        tmp = f"{path}.tmp{os.getpid()}"
        pq.write_table(t, tmp)
        os.replace(tmp, path)
        return len(t)

    n_rows = ray.get([_write.remote(ranks[p],
                                    os.path.join(d, f"part_{p}.parquet"))
                      for p in range(num_parts)])
    marker = os.path.join(d, "_COMPLETE")
    tmp = f"{marker}.tmp{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump({"iteration": iteration, "num_parts": num_parts,
                   "n_nodes": n_total, "rows": n_rows}, f)
    os.replace(tmp, marker)


def _pr_load_checkpoint(cp_dir: str, num_parts: int, n_total: int, meta):
    """Newest sealed iteration -> (iteration, rank refs) or None.
    Partitions must match the current run's layout (num_parts +
    node-universe size pinned in the marker); loaded tables re-align to
    the current meta node order by searchsorted, and a partition whose
    node ids differ from the current run's raises ValueError."""
    import json
    import os
    import re

    if not os.path.isdir(cp_dir):
        return None
    best = None
    for name in os.listdir(cp_dir):
        m = re.fullmatch(r"iter_(\d{4})", name)
        if m and os.path.exists(os.path.join(cp_dir, name, "_COMPLETE")):
            it = int(m.group(1))
            if best is None or it > best:
                best = it
    if best is None:
        return None
    d = os.path.join(cp_dir, f"iter_{best:04d}")
    info = json.load(open(os.path.join(d, "_COMPLETE")))
    if info["num_parts"] != num_parts or info["n_nodes"] != n_total:
        raise ValueError(
            f"checkpoint {d} was written with num_parts="
            f"{info['num_parts']}/n_nodes={info['n_nodes']}; this run "
            f"has {num_parts}/{n_total} — resume requires the same "
            "partitioning")

    @ray.remote
    def _load(path: str, meta_p: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        t = pq.read_table(path)
        nodes = meta_p["node"].to_numpy(zero_copy_only=False)
        got = t["node"].to_numpy(zero_copy_only=False)
        if len(got) != len(nodes):
            raise ValueError("checkpoint partition size mismatch")
        if not np.array_equal(got, nodes):
            pos = np.minimum(np.searchsorted(got, nodes), len(got) - 1)
            t = t.take(pa.array(pos))
            if not np.array_equal(t["node"].to_numpy(zero_copy_only=False),
                                  nodes):
                raise ValueError(
                    f"checkpoint {path} holds other node ids than this "
                    "run's partition")
        return pa.table({"node": t["node"], "r": t["r"]})

    ranks = [_load.remote(os.path.join(d, f"part_{p}.parquet"), meta[p])
             for p in range(num_parts)]
    return best, ranks


def pagerank(edges_ds, *, src_col: str = "src", dst_col: str = "dst",
             damping: float = 0.85, max_iters: int = 30, tol: float = 1e-9,
             num_parts: int | None = None, stats_out: dict | None = None,
             checkpoint_dir: str | None = None,
             checkpoint_every: int = 1):
    """Distributed PageRank over a DIRECTED edge Dataset -> Dataset
    (node, rank); ranks sum to 1. Dangling nodes (no out-edges) spread
    their mass uniformly, the standard formulation. Stops at max_iters or
    when the L1 rank change < tol.

    Scale shape: edges hash-partition by src once (loop invariant);
    per-iteration traffic is ONE (dst, w) contribution shuffle of
    |E| float64 rows; the driver sees only two scalars per iteration.

    checkpoint_dir: iterative-job resume (the north-rule checkpoint
    contract, same spirit as state/manifest for sinks). Every
    `checkpoint_every` iterations each rank partition writes
    {dir}/iter_NNNN/part_P.parquet, sealed by an atomic _COMPLETE marker
    recording (iteration, num_parts, n_nodes). A rerun pointed at the
    same directory resumes from the newest sealed iteration — bit-exact
    with an uninterrupted run (the per-partition float orders are
    deterministic) — and re-derives the edge partitioning from the
    input (loop-invariant, cheaper to rebuild than to store)."""
    import time as _time

    import pyarrow.compute as pc
    import ray.data as rd

    from gdal_ray.util import default_num_parts

    if num_parts is None:
        num_parts = min(default_num_parts(multiplier=1, floor=16), 256)

    def norm(t: pa.Table) -> pa.Table:
        return pa.table({"src": pc.cast(t[src_col], pa.int64()),
                         "dst": pc.cast(t[dst_col], pa.int64())})

    edge_refs = edges_ds.map_batches(norm, batch_format="pyarrow",
                                     batch_size=None) \
        .materialize().to_arrow_refs()
    if not edge_refs:
        return rd.from_arrow(pa.table({"node": pa.array([], pa.int64()),
                                       "rank": pa.array([], pa.float64())}))
    edge_pieces = _shuffle_refs(edge_refs, "src", num_parts)

    @ray.remote
    def _edges_cat(*pieces):
        parts = [p for p in pieces if len(p)]
        if not parts:
            return pieces[0]
        t = pa.concat_tables(parts)
        order = np.argsort(t["src"].to_numpy(zero_copy_only=False),
                           kind="stable")
        return t.take(pa.array(order))

    edges = [_edges_cat.remote(*edge_pieces[p]) for p in range(num_parts)]

    # node universe: both endpoints, shuffled by hash(node)
    @ray.remote
    def _endpoints(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False)
        d = t["dst"].to_numpy(zero_copy_only=False)
        return pa.table({"node": pa.array(
            np.unique(np.concatenate([s, d])), pa.int64())})

    ep_refs = [_endpoints.remote(r) for r in edge_refs]
    node_pieces = _shuffle_refs(ep_refs, "node", num_parts)
    meta, counts = [], []
    for p in range(num_parts):
        m, c, _ = _pr_nodes_outdeg.remote(edges[p], *node_pieces[p])
        meta.append(m)
        counts.append(c)
    n_total = sum(ray.get(counts))
    if n_total == 0:
        return rd.from_arrow(pa.table({"node": pa.array([], pa.int64()),
                                       "rank": pa.array([], pa.float64())}))

    @ray.remote
    def _init_ranks(meta_p: pa.Table, n: int) -> pa.Table:
        return pa.table({
            "node": meta_p["node"],
            "r": pa.array(np.full(len(meta_p), 1.0 / n), pa.float64())})

    ranks = [_init_ranks.remote(meta[p], n_total) for p in range(num_parts)]
    start_iter = 0
    if checkpoint_dir is not None:
        resumed = _pr_load_checkpoint(checkpoint_dir, num_parts, n_total,
                                      meta)
        if resumed is not None:
            start_iter, ranks = resumed

    iter_secs: list[float] = []
    deltas: list[float] = []
    for _i in range(start_iter, max_iters):
        t0 = _time.time()
        contribs, dangls = [], []
        for p in range(num_parts):
            c, g = _pr_expand.remote(edges[p], meta[p], ranks[p])
            contribs.append(c)
            dangls.append(g)
        dangling = sum(ray.get(dangls))
        base = (1.0 - damping) / n_total + damping * dangling / n_total
        contrib_pieces = _shuffle_refs(contribs, "dst", num_parts)
        nxt, dls = [], []
        for p in range(num_parts):
            rp, dl = _pr_absorb.remote(meta[p], ranks[p], base, damping,
                                       *contrib_pieces[p])
            nxt.append(rp)
            dls.append(dl)
        delta = sum(ray.get(dls))
        ranks = nxt
        iter_secs.append(round(_time.time() - t0, 3))
        deltas.append(delta)
        if checkpoint_dir is not None and \
                ((_i + 1) % max(checkpoint_every, 1) == 0
                 or delta < tol or _i + 1 == max_iters):
            _pr_write_checkpoint(checkpoint_dir, _i + 1, num_parts,
                                 n_total, ranks)
        if delta < tol:
            break
    if stats_out is not None:
        stats_out.update(iters=len(iter_secs), iter_secs=iter_secs,
                         deltas=deltas, n_nodes=n_total)
    out = rd.from_arrow_refs(ranks)
    return out.map_batches(
        lambda t: t.rename_columns(["node", "rank"]),
        batch_format="pyarrow", batch_size=None)
