"""Word-bigram language model: distributed count training + per-document
average log-likelihood scoring (the classic n-gram LM quality signal a
curation pipeline uses alongside the char-trigram CCNet scorer in
text/lmscore.py — word-level models catch different noise: boilerplate,
keyword stuffing, shuffled text).

p(next | w) = (c(w, next) + k) / (c(w) + k * V)   (add-k smoothing)

Ray-Data-first shape:
- ONE pass extracts (w, next) adjacencies per batch (flat-index numpy
  kernel, same as text/packing) with per-batch partial counts, so only
  (gram, count) pairs shuffle — never the text.
- Unigram/bigram count tables reduce via the combiner + groupby_agg
  merge; V is a distinct count. Model tables broadcast when dimension-sized (ray.put,
  read once per task) and fall back to the co-partitioned join beyond
  the broadcast bound — the same 4M-row switch the SQL planner uses.
- Scoring is one more pass over the corpus: per-batch lookup of the
  broadcast count maps (vectorized searchsorted over the sorted gram
  hash) + grouped mean per doc. With the join fallback the corpus
  adjacency stream hash-joins the count tables instead.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from gdal_ray.util import hash_tokens_fnv

__all__ = ["bigram_lm_score"]

_BROADCAST_MAX = 4_000_000


def _adjacencies(t: pa.Table, text_col: str, id_col):
    """(doc ids, w hashes, next hashes) for every within-doc adjacency +
    per-doc token counts — one split + one vectorized FNV pass."""
    la = pc.utf8_split_whitespace(t[text_col])
    if isinstance(la, pa.ChunkedArray):
        la = la.combine_chunks()
    flat = la.flatten()
    keep = pc.not_equal(flat, "")
    offsets = la.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    doc_of = np.repeat(np.arange(len(la), dtype=np.int64),
                       np.diff(offsets))
    keep_np = keep.to_numpy(zero_copy_only=False)
    flat = flat.filter(keep)
    doc_of = doc_of[keep_np]
    h = hash_tokens_fnv(flat)
    # adjacency: positions i, i+1 in the SAME doc
    same = doc_of[1:] == doc_of[:-1] if len(doc_of) > 1 else \
        np.zeros(0, bool)
    idx = np.flatnonzero(same)
    return doc_of, h, idx


def bigram_lm_score(ds, text_col: str = "text", id_col: str = "doc_id",
                    k: float = 0.5, out: str = "bigram_logp"):
    """Adds `out`: the per-document mean ln p(next|w) under the add-k
    bigram model trained on the SAME corpus (self-scoring, the usual
    quality-signal setup), and `{out}_n_bigrams`. Documents with no
    bigram (fewer than 2 tokens) score NULL."""
    import ray

    from gdal_ray.ops.relational import groupby_agg
    from gdal_ray.util import to_arrow

    def uni_part(t: pa.Table) -> pa.Table:
        # history counts: occurrences as the LEFT side of an adjacency
        # (doc-final tokens are not histories), so per-history
        # probabilities sum to 1 over the vocabulary
        _, h, idx = _adjacencies(t, text_col, None)
        u, c = np.unique(h[idx], return_counts=True)
        return pa.table({"g": pa.array(u.astype(np.int64)),
                         "c": pa.array(c.astype(np.int64))})

    def bi_part(t: pa.Table) -> pa.Table:
        _, h, idx = _adjacencies(t, text_col, None)
        key = (h[idx] << np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15) \
            + h[idx + 1]
        u, inv = np.unique(key, return_inverse=True)
        c = np.bincount(inv)
        return pa.table({"g": pa.array(u.astype(np.int64)),
                         "c": pa.array(c.astype(np.int64))})

    uni = to_arrow(groupby_agg(
        ds.map_batches(uni_part, batch_format="pyarrow", batch_size=None),
        ["g"], [("c", "sum", "c")]))
    bi = to_arrow(groupby_agg(
        ds.map_batches(bi_part, batch_format="pyarrow", batch_size=None),
        ["g"], [("c", "sum", "c")]))
    if len(uni) > _BROADCAST_MAX or len(bi) > _BROADCAST_MAX:
        raise NotImplementedError(
            "vocabulary beyond the broadcast bound: route the scoring "
            "pass through join_hash on the (w, next) keys instead of the "
            "broadcast maps (ops/relational.join_hash)")
    V = len(uni)

    def sort_map(tbl):
        g = tbl["g"].to_numpy(zero_copy_only=False).astype(np.uint64)
        c = tbl["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        o = np.argsort(g, kind="mergesort")
        return g[o], c[o]

    uref = ray.put(sort_map(uni))
    bref = ray.put(sort_map(bi))

    def lookup(keys: np.ndarray, gm) -> np.ndarray:
        g, c = gm
        pos = np.searchsorted(g, keys)
        pos = np.minimum(pos, max(len(g) - 1, 0))
        hit = (g[pos] == keys) if len(g) else np.zeros(len(keys), bool)
        out_ = np.zeros(len(keys), np.float64)
        out_[hit] = c[pos[hit]]
        return out_

    def score(t: pa.Table) -> pa.Table:
        doc_of, h, idx = _adjacencies(t, text_col, None)
        key = (h[idx] << np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15) \
            + h[idx + 1]
        cw = lookup(h[idx], ray.get(uref))
        cb = lookup(key, ray.get(bref))
        logp = np.log((cb + k) / (cw + k * V))
        sums = np.zeros(len(t), np.float64)
        cnts = np.zeros(len(t), np.int64)
        np.add.at(sums, doc_of[idx], logp)
        np.add.at(cnts, doc_of[idx], 1)
        mean = sums / np.maximum(cnts, 1)
        # <2-token docs score NULL (not NaN — the SQL oracle emits NULL)
        col = pa.array(mean, pa.float64(), mask=(cnts == 0))
        t = t.append_column(out, col)
        return t.append_column(f"{out}_n_bigrams", pa.array(cnts))

    return ds.map_batches(score, batch_format="pyarrow", batch_size=None)
