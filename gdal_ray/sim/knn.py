"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — numpy matmul per batch against a
broadcast query matrix (ray.put once), per-batch partial top-k, then a
per-query final merge. The scale path is the LSH-bucketed variant
(random-hyperplane signatures -> only matching buckets are scanned),
mirroring the reference's gridding search (quadtree-bounded nearest
neighbours, alg/gdalgrid.cpp:257-377) re-expressed as a bucketed shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from gdal_ray.ops.relational import head_k, tree_reduce


def _matrix(t: pa.Table, col: str) -> np.ndarray:
    arr = t[col].combine_chunks()
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = np.asarray(arr.flatten(), dtype=np.float64)
    return flat.reshape(len(t), -1)


def brute_force_topk(ds, queries: np.ndarray, query_ids: np.ndarray, k: int,
                     *, id_col: str = "vec_id", vec_col: str = "embedding",
                     metric: str = "cosine", exclude_self: bool = True):
    """Top-k most-similar vectors per query. queries: (q, d) float64.

    Per-batch: one matmul (d x q) against the broadcast query matrix ->
    partial top-k per query -> rows (query_id, vec_id, score), at most q*k
    per block; ops.relational.tree_reduce then merges them per query_id.
    The partials are computed when this is called (tree_reduce materializes
    them); more than TREE_WIDTH partial blocks are coalesced to TREE_WIDTH
    first, so the final merge reads at most TREE_WIDTH*q*k rows.
    """
    import ray

    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    qref = ray.put(qn if metric == "cosine" else queries)
    ids_ref = ray.put(np.asarray(query_ids))

    def partial(t: pa.Table) -> pa.Table:
        Q = ray.get(qref)          # (q, d) — zero-copy from local object store
        qids = ray.get(ids_ref)
        X = _matrix(t, vec_col)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        if metric == "cosine":
            Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-30)
            S = Xn @ Q.T           # (n, q)
        else:  # negative euclidean distance as similarity
            S = -np.sqrt(((X[:, None, :] - Q[None, :, :]) ** 2).sum(-1))
        n, q = S.shape
        kk = min(k + (1 if exclude_self else 0), n)
        out_q, out_id, out_s = [], [], []
        top = np.argpartition(-S, kk - 1, axis=0)[:kk]  # (kk, q)
        for j in range(q):
            cand = top[:, j]
            if exclude_self:
                cand = cand[ids[cand] != qids[j]]
            out_q.append(np.full(cand.size, qids[j]))
            out_id.append(ids[cand])
            out_s.append(S[cand, j])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                id_col: pa.array(np.concatenate(out_id)),
                "score": pa.array(np.concatenate(out_s)),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    return tree_reduce(partials, head_k(
        ["query_id"], [("score", "descending"), (id_col, "ascending")], k))


def kmeans_centroids(X: np.ndarray, nlist: int, *, iters: int = 8, seed: int = 7) -> np.ndarray:
    """Tiny deterministic Lloyd's k-means for the IVF coarse quantizer
    (trained once on a driver-side sample — FAISS-IVF's train step)."""
    rng = np.random.RandomState(seed)
    C = X[rng.choice(len(X), size=min(nlist, len(X)), replace=False)].copy()
    for _ in range(iters):
        d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(-1)
        assign = d2.argmin(1)
        for c in range(len(C)):
            m = assign == c
            if m.any():
                C[c] = X[m].mean(0)
    return C


def ivf_topk(ds, queries: np.ndarray, query_ids: np.ndarray, k: int,
             *, nlist: int = 16, nprobe: int = 4, train_sample: int = 2048,
             id_col: str = "vec_id", vec_col: str = "embedding",
             exclude_self: bool = True):
    """IVF approximate top-k (the scale path beyond LSH buckets): a coarse
    k-means quantizer partitions vectors into nlist inverted lists; each
    query scans only its nprobe nearest lists, so per-batch work drops by
    ~nprobe/nlist vs brute force. The centroid set is trained on a
    driver-side sample and broadcast; everything else streams.

    Returns (query_id, vec_id, score) rows, top-k per query (approximate:
    recall < 1 when the true neighbor's list isn't probed — brute_force_topk
    is the exactness baseline)."""
    import ray

    sample = pa.concat_tables(
        ds.limit(train_sample).iter_batches(batch_size=None, batch_format="pyarrow")
    )
    C = kmeans_centroids(_matrix(sample, vec_col), nlist)
    Cn = C / np.maximum(np.linalg.norm(C, axis=1, keepdims=True), 1e-30)
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    # nprobe nearest centroids per query (cosine)
    probe = np.argsort(-(qn @ Cn.T), axis=1)[:, :nprobe]  # (q, nprobe)
    ref = ray.put((C, qn, np.asarray(query_ids), probe))

    def partial(t: pa.Table) -> pa.Table:
        Cb, Q, qids, P = ray.get(ref)
        X = _matrix(t, vec_col)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        d2 = ((X[:, None, :] - Cb[None, :, :]) ** 2).sum(-1)
        assign = d2.argmin(1)  # (n,)
        Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-30)
        out_q, out_id, out_s = [], [], []
        for j in range(Q.shape[0]):
            m = np.isin(assign, P[j])
            if not m.any():
                continue
            s = Xn[m] @ Q[j]
            sub_ids = ids[m]
            kk = min(k + (1 if exclude_self else 0), s.size)
            cand = np.argpartition(-s, kk - 1)[:kk]
            if exclude_self:
                cand = cand[sub_ids[cand] != qids[j]]
            out_q.append(np.full(cand.size, qids[j]))
            out_id.append(sub_ids[cand])
            out_s.append(s[cand])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            id_col: pa.array(np.concatenate(out_id)),
            "score": pa.array(np.concatenate(out_s)),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    return tree_reduce(partials, head_k(
        ["query_id"], [("score", "descending"), (id_col, "ascending")], k))


class HyperplaneLSH:
    """Random-hyperplane signature stage (actor pool): planes generated once
    per actor from a fixed seed; adds a `bucket` int64 column. ANN = only
    compare vectors within a bucket (plus optionally multi-probe neighbors)."""

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 42, vec_col: str = "embedding"):
        rng = np.random.RandomState(seed)
        self.planes = rng.standard_normal((n_planes, dim))
        self.vec_col = vec_col
        self.weights = (1 << np.arange(n_planes)).astype(np.int64)

    def __call__(self, t: pa.Table) -> pa.Table:
        X = _matrix(t, self.vec_col)
        bits = (X @ self.planes.T) > 0
        bucket = (bits * self.weights).sum(axis=1).astype(np.int64)
        return t.replace_schema_metadata(None).append_column("bucket", pa.array(bucket))


def lsh_topk(ds, queries: np.ndarray, query_ids: np.ndarray, k: int, dim: int,
             *, n_planes: int = 8, id_col: str = "vec_id", vec_col: str = "embedding"):
    """Approximate top-k: hash data + queries to hyperplane buckets, scan only
    the matching bucket per query. Recall < 1 by design; the brute-force path
    is the correctness baseline."""
    hasher = HyperplaneLSH(dim, n_planes=n_planes, vec_col=vec_col)
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    qbits = (qn @ hasher.planes.T) > 0
    qbucket = (qbits * hasher.weights).sum(axis=1).astype(np.int64)
    by_bucket = {}
    for qb, qi, qv in zip(qbucket, query_ids, qn):
        by_bucket.setdefault(int(qb), []).append((qi, qv))

    import ray

    bref = ray.put(by_bucket)

    hashed = ds.map_batches(
        HyperplaneLSH,
        fn_constructor_kwargs={"dim": dim, "n_planes": n_planes, "vec_col": vec_col},
        batch_format="pyarrow",
        concurrency=2, batch_size=None,)

    qid_type = pa.array(np.asarray(query_ids)[:0]).type

    def scan(g: pa.Table) -> pa.Table:
        qs = ray.get(bref).get(g["bucket"][0].as_py(), [])
        ids = g[id_col].combine_chunks()
        idn = ids.to_numpy(zero_copy_only=False)
        Xn = _matrix(g, vec_col)
        Xn = Xn / np.maximum(np.linalg.norm(Xn, axis=1, keepdims=True), 1e-30)
        out_q, out_i, out_s = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
        for qi, qv in qs:
            s = Xn @ qv
            order = np.lexsort((idn, -s))[: k + 1]
            order = order[idn[order] != qi][:k]
            out_q.append(np.full(order.size, qi))
            out_i.append(order)
            out_s.append(s[order])
        return pa.table({"query_id": pa.array(np.concatenate(out_q), qid_type),
                         id_col: ids.take(np.concatenate(out_i)),
                         "score": pa.array(np.concatenate(out_s))})

    return hashed.groupby("bucket").map_groups(scan, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# product quantization (PQ / IVF-ADC): the memory-bound scale path —
# vectors compress to m uint8 codes; queries scan codes with asymmetric
# distance (ADC lookup tables), so a 768-dim float32 corpus shrinks ~384x
# and the scan is table lookups + sums instead of matmuls.
# ---------------------------------------------------------------------------


def pq_train(X: np.ndarray, m: int = 8, ksub: int = 256, *,
             iters: int = 10, seed: int = 5) -> np.ndarray:
    """Train PQ codebooks: split dims into m subspaces, k-means each.
    Returns (m, ksub, dsub) float64 codebooks. dim must be divisible by m."""
    n, d = X.shape
    if d % m != 0:
        raise ValueError(f"dim {d} not divisible by m {m}")
    dsub = d // m
    ksub = min(ksub, n)
    books = np.empty((m, ksub, dsub))
    for j in range(m):
        books[j] = kmeans_centroids(
            np.ascontiguousarray(X[:, j * dsub:(j + 1) * dsub]),
            ksub, iters=iters, seed=seed + j)
    return books

def pq_encode(X: np.ndarray, books: np.ndarray) -> np.ndarray:
    """-> (n, m) uint8 codes (nearest sub-centroid per subspace)."""
    n, d = X.shape
    m, ksub, dsub = books.shape
    codes = np.empty((n, m), np.uint8)
    for j in range(m):
        sub = X[:, j * dsub:(j + 1) * dsub]
        d2 = ((sub[:, None, :] - books[j][None, :, :]) ** 2).sum(-1)
        codes[:, j] = d2.argmin(1).astype(np.uint8)
    return codes


def pq_adc_tables(queries: np.ndarray, books: np.ndarray) -> np.ndarray:
    """Asymmetric-distance lookup tables: (q, m, ksub) squared distances
    from each query subvector to every sub-centroid."""
    q, d = queries.shape
    m, ksub, dsub = books.shape
    T = np.empty((q, m, ksub))
    for j in range(m):
        sub = queries[:, j * dsub:(j + 1) * dsub]
        T[:, j, :] = ((sub[:, None, :] - books[j][None, :, :]) ** 2).sum(-1)
    return T


def pq_topk(ds, queries: np.ndarray, query_ids: np.ndarray, k: int,
            *, m: int = 8, ksub: int = 256, train_sample: int = 4096,
            id_col: str = "vec_id", vec_col: str = "embedding",
            exclude_self: bool = True):
    """PQ-compressed approximate top-k by L2 distance: codebooks train on
    a driver-side sample and broadcast with the per-query ADC tables;
    each batch encodes its vectors once (m argmins) and scans with pure
    table-lookup sums (np.take + sum over m — no per-query matmul).
    Same tree merge as brute_force_topk. Returns
    (query_id, vec_id, dist) rows, smallest distance first."""
    import ray

    sample = pa.concat_tables(
        ds.limit(train_sample).iter_batches(batch_size=None,
                                            batch_format="pyarrow"))
    books = pq_train(_matrix(sample, vec_col), m, ksub)
    T = pq_adc_tables(np.asarray(queries, np.float64), books)
    ref = ray.put((books, T, np.asarray(query_ids)))

    def partial(t: pa.Table) -> pa.Table:
        B, Tq, qids = ray.get(ref)
        X = _matrix(t, vec_col)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        codes = pq_encode(X, B)  # (n, m)
        out_q, out_id, out_d = [], [], []
        for j in range(Tq.shape[0]):
            # ADC: dist ~ sum over subspaces of table[code]
            d = np.zeros(codes.shape[0])
            for s in range(B.shape[0]):
                d += Tq[j, s][codes[:, s]]
            if exclude_self:
                d = np.where(ids == qids[j], np.inf, d)
            kk = min(k, d.size)
            cand = np.argpartition(d, kk - 1)[:kk]
            out_q.append(np.full(kk, qids[j]))
            out_id.append(ids[cand])
            out_d.append(d[cand])
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "vec_id": pa.array(np.concatenate(out_id)),
            "dist": pa.array(np.concatenate(out_d)),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    return tree_reduce(partials, head_k(
        ["query_id"], [("dist", "ascending"), ("vec_id", "ascending")], k))
