"""Model-based quality filtering: a distributed linear (logistic)
classifier over hashed bag-of-words features — the fastText-style
quality/seed classifier used by DataComp-LM / phi-class pipelines to score
web documents against a curated seed set.

Ray-Data-first design:
- Features are the hashing trick (FNV-1a over words, reusing the
  vectorized per-byte-position FNV, util.hash_tokens_fnv) into `dim` buckets,
  L2-normalized counts. Feature extraction is a pure numpy kernel per
  batch — the corpus never leaves its blocks.
- Training is full-batch gradient descent: each block emits ONE dense
  gradient partial (a float64[dim] row, ~32 KB at dim=4096), partials are
  summed on the driver in a DETERMINISTIC order (sorted by each block's
  min row id), and the updated weight vector broadcasts back through the
  next map closure. Per iteration the cluster moves num_blocks * dim
  floats — independent of corpus size.
- Scoring is one shuffle-free map_batches (sigmoid(x . w)).

At 100 TB: the gradient pass streams; weights (dim * 8 bytes) broadcast;
nothing materializes but the per-block partials. Real pipelines train on
a bounded sample and score the full corpus — both paths are the same code
here.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from gdal_ray.util import hash_tokens_fnv

__all__ = ["train_quality_classifier", "score_quality", "hashed_features"]


def hashed_features(texts, dim: int):
    """(doc_idx, bucket, value) triplets for a batch of texts: hashed
    bag-of-words with duplicate-word accumulation, L2-normalized per doc.
    Fully vectorized (one FNV pass over the flattened words)."""
    la = pc.utf8_split_whitespace(texts)
    if isinstance(la, pa.ChunkedArray):
        la = la.combine_chunks()
    flat = la.flatten()
    keep = pc.not_equal(flat, "")
    offsets = la.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    n_docs = len(la)
    word_doc = np.repeat(np.arange(n_docs, dtype=np.int64),
                         np.diff(offsets))
    keep_np = keep.to_numpy(zero_copy_only=False)
    flat = flat.filter(keep)
    word_doc = word_doc[keep_np]
    if len(flat) == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.float64), n_docs)
    bucket = (hash_tokens_fnv(flat) % np.uint64(dim)).astype(np.int64)
    # accumulate duplicate (doc, bucket) pairs
    key = word_doc * dim + bucket
    uniq, counts = np.unique(key, return_counts=True)
    d_idx = uniq // dim
    b_idx = uniq % dim
    val = counts.astype(np.float64)
    # L2 normalize per doc
    norm_sq = np.zeros(n_docs, dtype=np.float64)
    np.add.at(norm_sq, d_idx, val * val)
    norm = np.sqrt(np.maximum(norm_sq, 1e-300))
    val = val / norm[d_idx]
    return d_idx, b_idx, val, n_docs


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train_quality_classifier(ds, label_col: str, text_col: str = "text",
                             dim: int = 4096, iters: int = 30,
                             lr: float = 2.0, l2: float = 1e-4,
                             num_parts: int = 16) -> np.ndarray:
    """Learn weights w (float64[dim + 1], last entry = bias) by full-batch
    logistic-regression GD. label_col: 0/1 integers. Deterministic for a
    fixed corpus + num_parts (partials sum in sorted-min-id order)."""
    import ray.data as rd

    need = [text_col, label_col]
    feats = ds.map_batches(
        lambda t: t.select([c for c in need if c in t.column_names]),
        batch_format="pyarrow", batch_size=None).repartition(num_parts)
    feats = rd.from_arrow_refs(feats.materialize().to_arrow_refs())
    w = np.zeros(dim + 1, dtype=np.float64)

    for _ in range(iters):
        def grad_partial(t: pa.Table, w=w) -> pa.Table:
            d_idx, b_idx, val, n = hashed_features(t[text_col], dim)
            y = t[label_col].to_numpy(zero_copy_only=False).astype(
                np.float64)
            z = np.full(n, w[dim], dtype=np.float64)
            np.add.at(z, d_idx, val * w[b_idx])
            resid = _sigmoid(z) - y
            g = np.zeros(dim + 1, dtype=np.float64)
            np.add.at(g, b_idx, val * resid[d_idx])
            g[dim] = resid.sum()
            # deterministic partial-merge order: tag each block by the
            # FNV of its first text (stable for stable block layout)
            tag = (int(hash_tokens_fnv(t[text_col].slice(0, 1))[0]
                       & np.uint64(0x7FFFFFFFFFFFFFFF)) if n else 0)
            return pa.table({
                "tag": pa.array([tag], pa.int64()),
                "n": pa.array([n], pa.int64()),
                "g": pa.array([g], pa.list_(pa.float64())),
            })

        parts = feats.map_batches(grad_partial, batch_format="pyarrow",
                                  batch_size=None).take_all()
        parts.sort(key=lambda r: (r["tag"], r["n"]))
        total_n = sum(r["n"] for r in parts)
        g = np.zeros(dim + 1, dtype=np.float64)
        for r in parts:
            g += np.asarray(r["g"], dtype=np.float64)
        g /= max(total_n, 1)
        g[:dim] += l2 * w[:dim]
        w = w - lr * g
    return w


class _Scorer:
    """Actor-pool scoring stage: weights held once per actor."""

    def __init__(self, w: np.ndarray, text_col: str, out: str, dim: int):
        self.w = np.asarray(w, dtype=np.float64)
        self.text_col = text_col
        self.out = out
        self.dim = dim

    def __call__(self, t: pa.Table) -> pa.Table:
        d_idx, b_idx, val, n = hashed_features(t[self.text_col], self.dim)
        z = np.full(n, self.w[self.dim], dtype=np.float64)
        np.add.at(z, d_idx, val * self.w[b_idx])
        return t.append_column(self.out, pa.array(_sigmoid(z)))


def score_quality(ds, w: np.ndarray, text_col: str = "text",
                  out: str = "quality_score", dim: int | None = None,
                  concurrency=(1, 8)):
    """sigmoid(x . w) per doc — one shuffle-free actor-pool map."""
    if dim is None:
        dim = len(w) - 1
    return ds.map_batches(_Scorer, fn_constructor_args=(w, text_col, out,
                                                        dim),
                          batch_format="pyarrow", batch_size=None,
                          concurrency=concurrency)
