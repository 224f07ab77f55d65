"""Distributed connected components / dedup clustering + median-cut."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from gdal_ray.ops.graph import connected_components, dedup_survivors
from gdal_ray.util import to_arrow


def _uf_reference(pairs, nodes):
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    # component = min id in component
    comp = {}
    for n in nodes:
        r = find(n)
        comp.setdefault(r, []).append(n)
    return {n: min(comp[find(n)]) for n in nodes}


def test_connected_components_matches_union_find():
    rng = np.random.RandomState(5)
    # 3 blobs + a long chain (exercises the pointer-jump convergence)
    pairs = []
    pairs += [(a, b) for a in range(0, 5) for b in range(a + 1, 5)]      # clique 0-4
    pairs += [(10, 11), (11, 12), (12, 13)]                              # path
    pairs += [(i, i + 1) for i in range(100, 116)]                       # chain of 17
    pairs += [(200, 201)]
    rng.shuffle(pairs)
    t = pa.table({"id_a": pa.array([a for a, _ in pairs], pa.int64()),
                  "id_b": pa.array([b for _, b in pairs], pa.int64())})
    ds = rd.from_arrow([t.slice(0, len(pairs) // 2), t.slice(len(pairs) // 2)])
    got = to_arrow(connected_components(ds, num_parts=8)).to_pandas()
    nodes = sorted({a for a, _ in pairs} | {b for _, b in pairs})
    exp = _uf_reference(pairs, nodes)
    gm = dict(zip(got["node"], got["component"]))
    assert len(gm) == len(nodes)
    for n in nodes:
        assert gm[n] == exp[n], (n, gm[n], exp[n])


def test_dedup_survivors_flags_min_per_component():
    pairs = pa.table({"id_a": pa.array([1, 2, 7], pa.int64()),
                      "id_b": pa.array([2, 3, 8], pa.int64())})
    out = to_arrow(dedup_survivors(rd.from_arrow(pairs), num_parts=8)).to_pandas()
    kept = sorted(out[out["keep"]]["node"].tolist())
    assert kept == [1, 7]
    assert sorted(out["node"].tolist()) == [1, 2, 3, 7, 8]


def test_median_cut_palette_and_remap():
    import pandas as pd

    from gdal_ray.raster.mediancut import (TILE, compute_median_cut_pct,
                                           remap_to_palette)

    # two dominant colors + noise
    rng = np.random.RandomState(0)
    rgb = np.empty(TILE * TILE, np.uint32)
    rgb[: TILE * TILE // 2] = 0xFF0000        # red
    rgb[TILE * TILE // 2:] = 0x0000FF         # blue
    noise = rng.randint(0, TILE * TILE, 500)
    rgb[noise] = rng.randint(0, 1 << 24, 500).astype(np.uint32)
    tiles = rd.from_pandas(pd.DataFrame([
        {"tile_x": 0, "tile_y": 0, "data": rgb.tobytes()}]))
    pal = compute_median_cut_pct(tiles, n_colors=8)
    assert pal.shape[1] == 3 and 2 <= pal.shape[0] <= 8
    # a palette entry near pure red and one near pure blue must exist
    dr = np.abs(pal.astype(int) - np.array([255, 0, 0])).sum(axis=1)
    db = np.abs(pal.astype(int) - np.array([0, 0, 255])).sum(axis=1)
    assert dr.min() < 30 and db.min() < 30
    out = to_arrow(remap_to_palette(tiles, pal))
    idx = np.frombuffer(out["data"][0].as_py(), np.uint8)
    assert idx.size == TILE * TILE and len(np.unique(idx)) <= 8
    # red pixels and blue pixels map to different entries
    assert idx[0] != idx[-1]


def test_line_of_sight_and_vertical_shift():
    from gdal_ray.raster.analysis import line_of_sight, vertical_shift

    dem = np.zeros((50, 50))
    assert line_of_sight(dem, (5, 5), (40, 40))[0] is True
    dem2 = dem.copy()
    dem2[20:23, 20:23] = 100.0   # wall between
    vis, blocked = line_of_sight(dem2, (5, 5), (40, 40))
    assert vis is False and blocked is not None
    bx, by = blocked
    assert 19 <= bx <= 23 and 19 <= by <= 23
    # target higher than the wall is visible again
    dem3 = dem2.copy()
    dem3[40, 40] = 400.0   # above the sight line over the wall
    assert line_of_sight(dem3, (5, 5), (40, 40), h1=0.0)[0] is True
    v = vertical_shift(np.array([[1.0, 2.0]]), 10.0, scale=2.0)
    assert v.tolist() == [[12.0, 14.0]]


def test_bfs_shortest_paths_vs_python(ray_session):
    """Distributed frontier BFS == single-process BFS on a random
    directed graph (multi-source, unreachable nodes absent)."""
    from collections import defaultdict, deque

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.ops.graph import bfs_shortest_paths

    rng = np.random.RandomState(3)
    E, V = 3000, 400
    src = rng.randint(0, V, E)
    dst = rng.randint(0, V, E)
    ds = rd.from_arrow(pa.table({"src": src, "dst": dst})).repartition(5)
    stats = {}
    out = bfs_shortest_paths(ds, [0, 7], max_depth=30,
                             stats_out=stats).to_pandas()
    got = dict(zip(out.node, out.dist))

    adj = defaultdict(list)
    for s, d in zip(src, dst):
        adj[s].append(d)
    dist = {0: 0, 7: 0}
    q = deque([0, 7])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    assert got == dist
    assert stats["round_new"][-1] == 0  # converged, not depth-capped


def test_sssp_weighted_vs_dijkstra(ray_session):
    """Label-correcting distributed SSSP == heap Dijkstra, integer
    weights, multi-edges included."""
    import heapq
    from collections import defaultdict

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.ops.graph import sssp_weighted

    rng = np.random.RandomState(11)
    E, V = 4000, 350
    src = rng.randint(0, V, E)
    dst = rng.randint(0, V, E)
    w = rng.randint(1, 8, E)
    ds = rd.from_arrow(pa.table({"src": src, "dst": dst, "w": w})) \
        .repartition(6)
    stats = {}
    out = sssp_weighted(ds, [0], stats_out=stats).to_pandas()
    got = dict(zip(out.node, out.dist))

    adj = defaultdict(list)
    for s, d, ww in zip(src, dst, w):
        adj[s].append((d, ww))
    dist = {0: 0}
    pq = [(0, 0)]
    while pq:
        du, u = heapq.heappop(pq)
        if du > dist.get(u, 1 << 60):
            continue
        for v, ww in adj[u]:
            nd = du + ww
            if nd < dist.get(v, 1 << 60):
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    assert got == dist
    assert stats["round_new"][-1] == 0


def test_pagerank_matches_dense_power_iteration(ray_session):
    """pagerank vs a dense NumPy reference on a random directed graph
    (dangling nodes included): same formulation, same damping — values
    agree to 1e-10 and sum to 1."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.ops.graph import pagerank
    from gdal_ray.util import to_arrow

    rng = np.random.default_rng(11)
    n = 60
    m = 400
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # ensure some dangling nodes: strip all out-edges of nodes 0-4
    mask = src >= 5
    src, dst = src[mask], dst[mask]
    edges = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64())})

    stats = {}
    got = to_arrow(pagerank(rd.from_arrow(edges), max_iters=200,
                            tol=1e-14, num_parts=4, stats_out=stats))
    gm = dict(zip(got["node"].to_pylist(), got["rank"].to_pylist()))

    # dense reference over the same node universe
    nodes = np.unique(np.concatenate([src, dst]))
    idx = {v: i for i, v in enumerate(nodes)}
    N = nodes.size
    A = np.zeros((N, N))
    for s, d in zip(src, dst):
        A[idx[d], idx[s]] += 1.0
    outdeg = A.sum(axis=0)
    nz = outdeg > 0
    A[:, nz] /= outdeg[nz]
    r = np.full(N, 1.0 / N)
    damp = 0.85
    for _ in range(200):
        dangling = r[~nz].sum()
        r_new = (1 - damp) / N + damp * (A @ r + dangling / N)
        if np.abs(r_new - r).sum() < 1e-14:
            r = r_new
            break
        r = r_new

    assert abs(sum(gm.values()) - 1.0) < 1e-9
    assert set(gm) == set(nodes.tolist())
    for v in nodes:
        assert abs(gm[v] - r[idx[v]]) < 1e-10, v
    assert stats["iters"] < 200  # converged, not exhausted


def test_pagerank_checkpoint_resume(ray_session, tmp_path):
    """A run killed after 3 iterations resumes from the sealed
    checkpoint and ends BIT-EXACT with an uninterrupted run."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.ops.graph import pagerank
    from gdal_ray.util import to_arrow

    rng = np.random.default_rng(9)
    src = rng.integers(0, 200, 2000)
    dst = rng.integers(0, 200, 2000)
    edges = pa.table({"src": src, "dst": dst})
    cp = str(tmp_path / "cp")

    # phase 1: "crashes" after 3 iterations (max_iters=3 stands in)
    pagerank(rd.from_arrow(edges), max_iters=3, tol=0.0, num_parts=4,
             checkpoint_dir=cp)
    import os

    assert os.path.exists(f"{cp}/iter_0003/_COMPLETE")

    # phase 2: resume to 8 iterations
    stats = {}
    resumed = to_arrow(pagerank(rd.from_arrow(edges), max_iters=8,
                                tol=0.0, num_parts=4, checkpoint_dir=cp,
                                stats_out=stats))
    assert stats["iters"] == 5  # only the remaining iterations ran

    # uninterrupted reference run
    clean = to_arrow(pagerank(rd.from_arrow(edges), max_iters=8, tol=0.0,
                              num_parts=4))
    a = resumed.to_pandas().sort_values("node").reset_index(drop=True)
    b = clean.to_pandas().sort_values("node").reset_index(drop=True)
    assert (a["node"] == b["node"]).all()
    assert np.array_equal(a["rank"].to_numpy(), b["rank"].to_numpy())

    # mismatched partitioning is refused, not silently wrong
    import pytest as _pytest

    with _pytest.raises(Exception, match="same partitioning"):
        pagerank(rd.from_arrow(edges), max_iters=8, num_parts=8,
                 checkpoint_dir=cp).count()


def test_pagerank_checkpoint_other_node_ids_raise(ray_session, tmp_path):
    """A checkpoint partition with the run's sizes but other node ids is
    refused, not re-aligned onto the wrong ranks."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import pytest

    from gdal_ray.ops.graph import pagerank

    rng = np.random.default_rng(9)
    edges = pa.table({"src": rng.integers(0, 200, 2000),
                      "dst": rng.integers(0, 200, 2000)})
    cp = str(tmp_path / "cp")
    pagerank(rd.from_arrow(edges), max_iters=2, tol=0.0, num_parts=4,
             checkpoint_dir=cp)
    part = f"{cp}/iter_0002/part_0.parquet"
    t = pq.read_table(part)
    t = t.set_column(t.column_names.index("node"), "node",
                     pc.add(t["node"], 1_000_000))
    pq.write_table(t, part)
    with pytest.raises(ValueError, match="other node ids"):
        pagerank(rd.from_arrow(edges), max_iters=4, tol=0.0, num_parts=4,
                 checkpoint_dir=cp).count()


def test_cc_checkpoint_resume(ray_session, tmp_path):
    """A cc run that dies mid-convergence (max_rounds exhausted) leaves
    sealed checkpoints; the rerun resumes the delta stream and converges
    to the same components as an uninterrupted run."""
    import numpy as np
    import pyarrow as pa
    import pytest as _pytest
    import ray.data as rd

    from gdal_ray.ops.graph import connected_components
    from gdal_ray.util import to_arrow

    rng = np.random.default_rng(11)
    # long chains -> needs several rounds to converge
    base = np.arange(3000)
    pairs = pa.table({"id_a": base, "id_b": base + 1})
    cp = str(tmp_path / "cccp")

    with _pytest.raises(RuntimeError, match="no convergence"):
        connected_components(rd.from_arrow(pairs), max_rounds=2,
                             num_parts=4, checkpoint_dir=cp).count()
    import os

    assert os.path.exists(f"{cp}/iter_0002/_COMPLETE")

    stats = {}
    resumed = to_arrow(connected_components(
        rd.from_arrow(pairs), max_rounds=50, num_parts=4,
        checkpoint_dir=cp, stats_out=stats))
    clean = to_arrow(connected_components(
        rd.from_arrow(pairs), max_rounds=50, num_parts=4))
    a = resumed.to_pandas().sort_values("node").reset_index(drop=True)
    b = clean.to_pandas().sort_values("node").reset_index(drop=True)
    assert a.equals(b)
    assert (a["component"] == 0).all()  # one chain, min id 0


def test_graph_inputs_from_a_hash_exchange(ray_session, monkeypatch):
    """Edges that come out of a keyed merge on the hash exchange, whose
    empty partitions are zero-column blocks: connected components and BFS
    still match the single-process answers."""
    import ray

    from gdal_ray.ops import relational as R
    from gdal_ray.ops.graph import bfs_shortest_paths

    monkeypatch.setattr(R, "TREE_MAX_BYTES", 0)
    pairs = [(a, b) for a in range(0, 5) for b in range(a + 1, 5)] \
        + [(10, 11), (11, 12), (200, 201)]
    t = pa.table({"id_a": pa.array([a for a, _ in pairs] * 2, pa.int64()),
                  "id_b": pa.array([b for _, b in pairs] * 2, pa.int64())})
    ds = R.distinct(rd.from_arrow([t.slice(i, 2) for i in range(0, len(t), 2)]),
                    ["id_a", "id_b"]).materialize()
    assert any(b.num_columns == 0 for b in ray.get(ds.to_arrow_refs()))
    got = to_arrow(connected_components(ds, num_parts=8)).to_pandas()
    nodes = sorted({a for a, _ in pairs} | {b for _, b in pairs})
    assert dict(zip(got["node"], got["component"])) == _uf_reference(pairs, nodes)
    edges = ds.map_batches(lambda t: t.rename_columns(["src", "dst"]),
                           batch_format="pyarrow", batch_size=None)
    out = bfs_shortest_paths(edges, [10], max_depth=5).to_pandas()
    assert dict(zip(out.node, out.dist)) == {10: 0, 11: 1, 12: 2}
