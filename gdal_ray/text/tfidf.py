"""Corpus-level TF-IDF term scoring (Sparck Jones 1972; the standard
`tf * ln(N / df)` form every IR textbook publishes).

Ray shape — two passes, both streaming:

1. **Document frequencies.** Per batch, the distinct (doc, word) pairs are
   found with one dictionary-encode + lexsort (no hashing, exact); each
   batch emits (word, partial_df) rows which are merged exactly through
   `hash_partition_reduce` keyed on the word string — the same
   partition-disjoint reduce every wide op in this repo uses, so the
   shuffle is vocabulary-sized, not corpus-sized.
2. **Scoring.** The reduced DF table is vocabulary-bounded (Heaps' law:
   sublinear in corpus size) and is broadcast once via `ray.put` as a
   sorted (fnv64(word), df) pair of arrays; the corpus then streams through
   ONE `map_batches` that recomputes per-doc term frequencies with the same
   lexsort grouping, probes the DF map with `np.searchsorted`, and keeps
   the top-k terms per doc (score desc, term asc tie-break).

The broadcast assumes the vocabulary fits worker memory (10^8 words ×
16 B ≈ 1.6 GB upper bound for web-scale English); beyond that the DF side
would switch to the shuffle equi-join in `ops/relational.py`. The hash
probe can alias two words with probability ~V²/2⁶⁵ — negligible for any
real vocabulary (the DF values themselves are exact; only the lookup keys
are hashed).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from gdal_ray.ops.relational import arrow_group_by, hash_partition_reduce
from gdal_ray.util import hash_tokens_fnv


def _batch_tokens(texts):
    """(flat token strings pa.Array, doc_of int64) with str.split()
    semantics (empty edge tokens filtered), all inside Arrow."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = pc.cast(pc.fill_null(texts, ""), pa.string())
    toks = pc.utf8_split_whitespace(texts)
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    off = off - off[0]
    vals = toks.flatten()
    if len(vals):
        ne_mask = pc.not_equal(pc.binary_length(vals), 0)
        ne = ne_mask.to_numpy(zero_copy_only=False)
        cs = np.concatenate([[0], np.cumsum(ne, dtype=np.int64)])
        ntok = cs[off[1:]] - cs[off[:-1]]
        if not ne.all():
            vals = vals.filter(ne_mask)
    else:
        ntok = np.zeros(len(texts), np.int64)
    doc_of = np.repeat(np.arange(len(texts), dtype=np.int64), ntok)
    return vals, doc_of


def _group_doc_word(vals: pa.Array, doc_of: np.ndarray):
    """Exact (doc, word) grouping of a batch's flat tokens: returns
    (group doc index, group word-code, tf per group, dictionary values).
    One dictionary-encode + one lexsort — collision-free."""
    enc = vals.dictionary_encode()
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((codes, doc_of))
    dd, cc = doc_of[order], codes[order]
    new = np.ones(dd.size, bool)
    if dd.size > 1:
        new[1:] = (dd[1:] != dd[:-1]) | (cc[1:] != cc[:-1])
    gid = np.cumsum(new) - 1
    tf = np.bincount(gid) if gid.size else np.zeros(0, np.int64)
    return dd[new], cc[new], tf.astype(np.int64), enc.dictionary


def document_frequencies(ds, text_col: str = "text"):
    """Dataset of (term string, df int64): number of documents containing
    each distinct term. Exact; shuffle is vocabulary-sized."""

    def partial(t: pa.Table) -> pa.Table:
        vals, doc_of = _batch_tokens(t[text_col])
        if len(vals) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64())})
        _, gcode, _, dictionary = _group_doc_word(vals, doc_of)
        # distinct docs per code within this batch
        pdf = np.bincount(gcode, minlength=len(dictionary)).astype(np.int64)
        keep = pdf > 0
        return pa.table({"term": dictionary.filter(pa.array(keep)),
                         "df": pa.array(pdf[keep])})

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)

    def reduce_tbl(t: pa.Table) -> pa.Table:
        return arrow_group_by(t, ["term"], [("df", "sum")]) \
            .rename_columns(["term", "df"])

    return hash_partition_reduce(parts, ["term"], reduce_tbl)


def tfidf_top_terms(ds, text_col: str = "text", id_col: str = "doc_id",
                    k: int = 1, round_digits: int | None = 6):
    """Top-k TF-IDF terms per document: columns (id_col, term, tf, df,
    tfidf), score = tf * ln(N / df), ties broken by term ascending. Docs
    with no tokens emit no rows (matching SQL unnest semantics)."""
    import ray

    from gdal_ray.util import to_arrow

    n_docs = ds.count()
    dft = to_arrow(document_frequencies(ds, text_col))
    terms = dft["term"].combine_chunks()
    if isinstance(terms, pa.ChunkedArray):
        terms = pa.concat_arrays(terms.chunks) if terms.num_chunks else \
            pa.array([], pa.string())
    hashes = hash_tokens_fnv(terms)
    dfs = dft["df"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(hashes, kind="stable")
    ref = ray.put((np.ascontiguousarray(hashes[order]),
                   np.ascontiguousarray(dfs[order]), int(n_docs)))

    def rnd(v):
        if round_digits is None:
            return v
        p = 10.0 ** round_digits
        # half-away-from-zero to match DuckDB round()
        return np.floor(np.abs(v) * p + 0.5) / p * np.sign(v)

    def score(t: pa.Table) -> pa.Table:
        hs, hdf, nd = ray.get(ref)
        vals, doc_of = _batch_tokens(pc.cast(t[text_col], pa.string()))
        empty = pa.table({id_col: pa.array([], t[id_col].type),
                          "term": pa.array([], pa.string()),
                          "tf": pa.array([], pa.int64()),
                          "df": pa.array([], pa.int64()),
                          "tfidf": pa.array([], pa.float64())})
        if len(vals) == 0:
            return empty
        gdoc, gcode, tf, dictionary = _group_doc_word(vals, doc_of)
        dh = hash_tokens_fnv(dictionary)
        idx = np.minimum(np.searchsorted(hs, dh), max(hs.size - 1, 0))
        df_of_code = np.where(hs.size > 0, hdf[idx], 0)
        hit = (hs.size > 0) & (hs[idx] == dh)
        df_of_code = np.where(hit, df_of_code, 1)  # unseen term: df>=1 guard
        gdf = df_of_code[gcode]
        sc = tf * np.log(nd / gdf.astype(np.float64))
        words = np.asarray(dictionary.to_pylist(), dtype=object)[gcode]
        # top-k per doc: sort (doc asc, score desc, term asc)
        order2 = np.lexsort((words.astype(str), -sc, gdoc))
        dd = gdoc[order2]
        new = np.ones(dd.size, bool)
        new[1:] = dd[1:] != dd[:-1]
        pos = np.arange(dd.size) - np.maximum.accumulate(
            np.where(new, np.arange(dd.size), 0))
        keep = order2[pos < k]
        keep = keep[np.argsort(gdoc[keep], kind="stable")]
        ids = t[id_col].combine_chunks().take(pa.array(gdoc[keep]))
        dict_take = dictionary.take(pa.array(gcode[keep]))
        return pa.table({id_col: ids,
                         "term": dict_take,
                         "tf": pa.array(tf[keep]),
                         "df": pa.array(gdf[keep]),
                         "tfidf": pa.array(rnd(sc[keep]))})

    return ds.map_batches(score, batch_format="pyarrow", batch_size=None)


def bm25_scores(ds, query_terms, *, text_col: str = "text",
                id_col: str = "doc_id", k1: float = 1.2, b: float = 0.75,
                idf: str = "lucene", top_k: int | None = None):
    """BM25 retrieval scores for a fixed query term set (Robertson/
    Sparck Jones; the Lucene `ln((N - df + .5)/(df + .5) + 1)` idf by
    default). Columns (id_col, score); only docs with a positive score
    emit; top_k applies the standard two-level distributed top-k
    (score desc, id asc).

    idf="ratio" uses the log-free variant (N - df + .5)/(df + .5): same
    ranking for a single term and rational arithmetic only, so the score
    is bit-identical across engines — the ORACLE-facing mode (ln differs
    by ulps between libm builds; see the float-parity memory).

    Ray shape: pass 1 streams ONE bounded partial row per batch (doc
    count, token count, per-query-term dfs — never vocabulary-sized);
    pass 2 is a shuffle-free score map with the tiny stats broadcast in
    the closure. The query term set is assumed small (it is a query)."""
    from gdal_ray.ops.relational import topk
    from gdal_ray.util import to_arrow

    terms = sorted(set(query_terms))

    def partial(t: pa.Table) -> pa.Table:
        vals, doc_of = _batch_tokens(pc.cast(t[text_col], pa.string()))
        nd = len(t)
        dfs = []
        for term in terms:
            m = pc.equal(vals, term).to_numpy(zero_copy_only=False)
            cnt = np.bincount(doc_of[m], minlength=nd) if m.any() else \
                np.zeros(nd, np.int64)
            dfs.append(int((cnt > 0).sum()))
        return pa.table({"n": pa.array([nd], pa.int64()),
                         "tl": pa.array([len(vals)], pa.int64()),
                         **{f"df{i}": pa.array([d], pa.int64())
                            for i, d in enumerate(dfs)}})

    stats = to_arrow(ds.map_batches(partial, batch_format="pyarrow",
                                    batch_size=None))
    n_docs = int(pc.sum(stats["n"]).as_py() or 0)
    total_tok = int(pc.sum(stats["tl"]).as_py() or 0)
    dfv = np.array([int(pc.sum(stats[f"df{i}"]).as_py() or 0)
                    for i in range(len(terms))], np.float64)
    avgdl = (total_tok / n_docs) if n_docs else 1.0
    ratio = (n_docs - dfv + 0.5) / (dfv + 0.5)
    idfv = np.log(ratio + 1.0) if idf == "lucene" else ratio
    idfv = np.where(dfv > 0, idfv, 0.0)  # absent terms contribute nothing

    def score(t: pa.Table) -> pa.Table:
        vals, doc_of = _batch_tokens(pc.cast(t[text_col], pa.string()))
        nd = len(t)
        dlen = np.bincount(doc_of, minlength=nd).astype(np.float64)
        s = np.zeros(nd, np.float64)
        for i, term in enumerate(terms):
            if idfv[i] == 0.0:
                continue
            m = pc.equal(vals, term).to_numpy(zero_copy_only=False)
            tf = (np.bincount(doc_of[m], minlength=nd).astype(np.float64)
                  if m.any() else np.zeros(nd))
            denom = tf + k1 * (1.0 - b + b * dlen / avgdl)
            s += np.where(tf > 0, idfv[i] * tf * (k1 + 1.0)
                          / np.where(denom > 0, denom, 1.0), 0.0)
        keep = s > 0
        return pa.table({id_col: t[id_col].filter(pa.array(keep)),
                         "score": pa.array(s[keep])})

    out = ds.map_batches(score, batch_format="pyarrow", batch_size=None)
    if top_k is not None:
        out = topk(out, [("score", True), (id_col, False)], top_k)
    return out
