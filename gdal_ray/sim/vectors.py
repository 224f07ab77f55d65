"""Embedding-column statistics and clustering.

Distributed Lloyd's k-means (the public textbook algorithm; also the
trainer behind IVF coarse quantizers) done the mergeable way: centroids are
broadcast once per iteration (ray.put), each batch computes assignments
with one matmul and emits per-cluster partial sums (k x d + counts) — so
one iteration is ONE streaming pass whose shuffle volume is k*d floats per
batch, independent of row count. Per-dimension moment profiling
(vector_dim_stats) is the same shape with a single pass.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from gdal_ray.sim.knn import _matrix as _list_matrix


def _matrix(t: pa.Table, col: str) -> np.ndarray:
    """(n, d) float64 from a list<float> column OR Ray's tensor extension
    type (ArrowTensorArray, e.g. from ray.data.from_numpy)."""
    arr = t[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if hasattr(arr, "flatten"):
        return _list_matrix(t, col)
    return np.asarray(arr.to_numpy(zero_copy_only=False),
                      dtype=np.float64).reshape(len(t), -1)


def vector_dim_stats(ds, vec_col: str = "embedding", *, ndigits: int = 6):
    """Per-dimension mean/std over a list<float> column: per-batch sum /
    sumsq / count (d-length partials), one tiny merge. Output rows
    (i 1-based, mean, std) — population std, matching SQL stddev_pop."""
    def partial(t: pa.Table) -> pa.Table:
        m = _matrix(t, vec_col)
        return pa.table({
            "i": pa.array(np.arange(1, m.shape[1] + 1, dtype=np.int64)),
            "s1": pa.array(m.sum(axis=0)),
            "s2": pa.array((m * m).sum(axis=0)),
            "n": pa.array(np.full(m.shape[1], m.shape[0], np.int64)),
        })

    from gdal_ray.ops.relational import groupby_agg
    from gdal_ray.util import to_arrow

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    agg = to_arrow(groupby_agg(parts, ["i"], [
        ("s1", "sum", "s1"), ("s2", "sum", "s2"), ("n", "sum", "n")]))
    s1 = agg["s1"].to_numpy(zero_copy_only=False)
    s2 = agg["s2"].to_numpy(zero_copy_only=False)
    n = agg["n"].to_numpy(zero_copy_only=False).astype(np.float64)
    mean = s1 / n
    var = np.maximum(s2 / n - mean * mean, 0.0)
    # DuckDB round() is half-AWAY-from-zero (matters for negative means)
    rnd = lambda v: np.copysign(
        np.floor(np.abs(v) * 10.0**ndigits + 0.5) / 10.0**ndigits, v)
    out = pa.table({"i": agg["i"],
                    "mean": pa.array(rnd(mean)),
                    "std": pa.array(rnd(np.sqrt(var)))})
    return out.take(pc.sort_indices(out["i"]))


def kmeans_fit(ds, *, k: int, iters: int = 10, id_col: str = "vec_id",
               vec_col: str = "embedding",
               checkpoint_path: str | None = None) -> np.ndarray:
    """Distributed Lloyd's: deterministic init (the k vectors with the
    smallest ids — reproducible across runs and hosts, no RNG), then
    `iters` streaming passes of broadcast-assign + mergeable partial sums.
    Empty clusters keep their previous centroid. Returns (k, d) float64.

    checkpoint_path: the sealed-resume contract for driver-small state —
    after every iteration the (iteration, centroids) pair writes to one
    .npz (tmp + atomic rename); a rerun resumes from it bit-exact (the
    per-iteration partial sums are deterministic)."""
    import ray

    from gdal_ray.ops.relational import topk
    from gdal_ray.util import to_arrow

    seed_t = to_arrow(topk(ds, [(id_col, False)], k))
    order = np.argsort(seed_t[id_col].to_numpy(zero_copy_only=False))
    cents = _matrix(seed_t, vec_col)[order]
    start = 0
    if checkpoint_path is not None:
        import os

        if os.path.exists(checkpoint_path):
            saved = np.load(checkpoint_path)
            if saved["centroids"].shape != cents.shape:
                raise ValueError(
                    "kmeans checkpoint shape mismatch: "
                    f"{saved['centroids'].shape} vs {cents.shape}")
            start = int(saved["iteration"])
            cents = saved["centroids"]

    for _i in range(start, iters):
        cref = ray.put(cents)

        def partial(t: pa.Table) -> pa.Table:
            c = ray.get(cref)
            m = _matrix(t, vec_col)
            d2 = (m * m).sum(axis=1)[:, None] - 2.0 * (m @ c.T) \
                + (c * c).sum(axis=1)[None, :]
            a = np.argmin(d2, axis=1)
            kk, dd = c.shape
            sums = np.zeros((kk, dd))
            np.add.at(sums, a, m)
            cnt = np.bincount(a, minlength=kk).astype(np.int64)
            return pa.table({
                "c": pa.array(np.arange(kk, dtype=np.int64)),
                "n": pa.array(cnt),
                **{f"s{j}": pa.array(sums[:, j]) for j in range(dd)},
            })

        agg = to_arrow(ds.map_batches(partial, batch_format="pyarrow",
                                      batch_size=None))
        idx = agg["c"].to_numpy(zero_copy_only=False)
        cnt = np.zeros(k, np.int64)
        np.add.at(cnt, idx, agg["n"].to_numpy(zero_copy_only=False))
        sums = np.zeros_like(cents)
        for j in range(cents.shape[1]):
            np.add.at(sums[:, j], idx,
                      agg[f"s{j}"].to_numpy(zero_copy_only=False))
        nz = cnt > 0
        cents = np.where(nz[:, None], sums / np.maximum(cnt, 1)[:, None],
                         cents)
        if checkpoint_path is not None:
            import os

            tmp = f"{checkpoint_path}.tmp{os.getpid()}"
            np.savez(tmp, iteration=_i + 1, centroids=cents)
            os.replace(tmp + ".npz" if not tmp.endswith(".npz") else tmp,
                       checkpoint_path)
    return cents


def kmeans_assign(ds, cents: np.ndarray, *, id_col: str = "vec_id",
                  vec_col: str = "embedding", out: str = "cluster"):
    """Label every vector with its nearest centroid (one matmul per
    batch; centroids ray.put once)."""
    import ray

    cref = ray.put(np.asarray(cents, np.float64))

    def f(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        m = _matrix(t, vec_col)
        d2 = (m * m).sum(axis=1)[:, None] - 2.0 * (m @ c.T) \
            + (c * c).sum(axis=1)[None, :]
        return pa.table({id_col: t[id_col],
                         out: pa.array(np.argmin(d2, axis=1).astype(np.int64))})

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def embedding_decontaminate(ds, bench, *, vec_col: str = "embedding",
                            id_col: str = "vec_id", threshold: float = 0.8,
                            mode: str = "flag", ndigits: int = 4):
    """Embedding-space decontamination: flag (or drop) corpus rows whose
    max cosine similarity against ANY benchmark vector reaches the
    threshold (the embedding analog of text/decontam.py's n-gram overlap;
    e.g. LLM eval-set leakage detection over document embeddings).

    bench: (B, d) ndarray or a pa.Table/list-of-lists with the benchmark
    vectors. It is L2-normalized ONCE on the driver and ray.put — each
    batch then needs a single (n x d) @ (d x B) matmul; zero shuffles, so
    the pass streams at 100 TB. mode="flag" appends max_sim (rounded
    half-away like DuckDB ROUND) + contaminated; mode="drop" filters.
    """
    import ray

    if isinstance(bench, pa.Table):
        bench = _matrix(bench, vec_col)
    b = np.asarray(bench, np.float64)
    bn = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True), 1e-300)
    bref = ray.put(bn)

    def f(t: pa.Table) -> pa.Table:
        bm = ray.get(bref)
        m = _matrix(t, vec_col)
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True),
                            1e-300)
        ms = (mn @ bm.T).max(axis=1) if len(bm) else np.full(len(m), -1.0)
        if mode == "drop":
            return t.filter(pa.array(ms < threshold))
        rnd = np.copysign(
            np.floor(np.abs(ms) * 10.0**ndigits + 0.5) / 10.0**ndigits, ms)
        t = t.append_column("max_sim", pa.array(rnd))
        return t.append_column("contaminated",
                               pa.array(ms >= threshold))

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def semdedup(ds, *, k: int = 16, threshold: float = 0.95, iters: int = 5,
             id_col: str = "vec_id", vec_col: str = "embedding"):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic dedup =
    k-means over embeddings, then WITHIN each cluster drop near-identical
    vectors (pairwise cosine >= threshold). Survivor rule here is
    deterministic: connected components of the within-cluster threshold
    graph keep their smallest id (the paper keeps a per-group exemplar;
    min-id is reproducible across cluster layouts).

    Scale shape: the O(m^2) pairwise step runs PER CLUSTER (map_groups
    after one hash shuffle on the cluster label) — exactly the published
    algorithm's decomposition; k controls the largest group. Returns
    (id_col, cluster, keep) for every input row.
    """
    import ray

    cents = kmeans_fit(ds, k=k, iters=iters, id_col=id_col,
                       vec_col=vec_col)
    cref = ray.put(np.asarray(cents, np.float64))

    def label(t: pa.Table) -> pa.Table:
        # centroids broadcast once — labels attach in-stream (a join of
        # per-row labels back onto rows would re-shuffle the full rows)
        c = ray.get(cref)
        m = _matrix(t, vec_col)
        d2 = (m * m).sum(axis=1)[:, None] - 2.0 * (m @ c.T) \
            + (c * c).sum(axis=1)[None, :]
        return t.replace_schema_metadata(None).append_column(
            "cluster", pa.array(np.argmin(d2, axis=1).astype(np.int64)))

    labeled = ds.map_batches(label, batch_format="pyarrow",
                             batch_size=None)

    def dedup_cluster(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, sort_keys=[(id_col, "ascending")]))
        m = _matrix(t, vec_col)
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True),
                            1e-300)
        sim = mn @ mn.T
        n = len(t)
        parent = np.arange(n)

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        ei, ej = np.nonzero(np.triu(sim >= threshold, 1))
        for a, b in zip(ei, ej):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        roots = np.array([find(i) for i in range(n)])
        keep = roots == np.arange(n)  # min-id row of each component
        return pa.table({id_col: t[id_col], "cluster": t["cluster"],
                         "keep": pa.array(keep)})

    return labeled.groupby("cluster").map_groups(
        dedup_cluster, batch_format="pyarrow")


def matryoshka_truncate(ds, dims: int, *, vec_col: str = "embedding",
                        out: str | None = None, renormalize: bool = True):
    """Matryoshka-representation truncation (Kusupati et al. 2022,
    arXiv:2205.13147): keep the first `dims` components of each vector
    and (optionally) L2-renormalize — the standard cheap-tier retrieval
    trick for MRL-trained embeddings. One vectorized kernel per batch,
    zero shuffles; output is list<double>."""
    out = out or vec_col

    def f(t: pa.Table) -> pa.Table:
        X = _matrix(t, vec_col)[:, :dims].astype(np.float64)
        if renormalize:
            X = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True),
                               1e-30)
        la = pa.FixedSizeListArray.from_arrays(
            pa.array(X.ravel()), dims).cast(pa.list_(pa.float64()))
        if out in t.column_names:
            t = t.drop_columns([out])
        return t.append_column(out, la)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)
