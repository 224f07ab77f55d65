"""Deduplication suite over the documents table.

Exact dedup follows the reference's only dedup primitive (SELECT DISTINCT,
ogr/ogr_swq.h:322 SWQM_DISTINCT_LIST) generalized to content hashing; the
near-dup family (MinHash+LSH, SimHash, n-gram Jaccard) is the
training-data-pipeline extension. All stages are expressed Ray-Data-first:

  shingle/minhash per batch (vectorized)  ->  explode to (band, band_hash)
  rows  ->  groupby(band, band_hash)  ->  candidate pairs  ->  distinct
  ->  exact-Jaccard verify  ->  keep pairs >= threshold

The all-to-all shuffle only ever moves (band_id:int32, band_hash:uint64,
doc_id:int64) triples — never document text.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from gdal_ray.ops.relational import distinct, first_by
from gdal_ray.text.analysis import add_fingerprint
from gdal_ray.util import FNV_OFFSET, FNV_PRIME, hash_tokens_fnv

_SHINGLE_MIX = np.uint64(1000003)


def _rolling_shingles(th: np.ndarray, w: int) -> np.ndarray:
    """Rolling w-gram mix over a token-hash array: acc[p] covers tokens
    p..p+w-1."""
    n = th.size - w + 1
    acc = np.zeros(max(n, 0), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(w):
            acc = acc * _SHINGLE_MIX + th[j : j + n]
    return acc


def _shingle_hashes(text: str, w: int) -> np.ndarray:
    """Hashes of word w-shingles of ONE doc (unique set — used by the exact
    Jaccard verifier; the MinHash path uses the batched variant below)."""
    tokens = text.split()
    if len(tokens) < w:
        tokens = tokens + ["\x00"] * (w - len(tokens))
    return np.unique(_rolling_shingles(hash_tokens_fnv(tokens), w))


# FNV-1a of the "\x00" pad token — (offset ^ 0) * prime mod 2^64
_PAD_HASH = np.uint64((int(FNV_OFFSET) * int(FNV_PRIME)) & (1 << 64) - 1)


def _tokenize_whitespace(texts):
    """Whitespace tokenization that NEVER leaves Arrow: returns
    (token_hashes uint64 flat, ntok int64 per doc). pc.utf8_split_whitespace
    emits empty tokens at string edges; filtering them yields exactly the
    maximal non-whitespace runs — i.e. Python str.split() semantics — so
    signatures stay bit-identical to the per-doc path (tested). Accepts a
    pa.Array/ChunkedArray (the hot path — zero-copy from the batch) or any
    Python sequence of str/None."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if not isinstance(texts, pa.Array):
        texts = pa.array([s or "" for s in texts], pa.string())
    texts = pc.cast(pc.fill_null(texts, ""), pa.string())
    toks = pc.utf8_split_whitespace(texts)
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    off -= off[0]
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
    return hash_tokens_fnv(vals), ntok


def _batch_shingles(texts, w: int):
    """All docs of a batch at once: returns (shingle_hashes flat array,
    doc start offsets into it). Tokenization, hashing and the rolling mix
    are all vectorized over the concatenated tokens (Arrow split + the
    buffer-level FNV). Docs with < w tokens are padded with the "\\x00"
    token's hash, matching the per-doc path; shingle windows crossing doc
    boundaries are masked out."""
    th, ntok = _tokenize_whitespace(texts)
    ntok2 = np.maximum(ntok, w)  # short docs pad to exactly one window
    starts = np.concatenate([[0], np.cumsum(ntok)[:-1]]).astype(np.int64)
    starts2 = np.concatenate([[0], np.cumsum(ntok2)[:-1]]).astype(np.int64)
    padded = np.full(int(ntok2.sum()), _PAD_HASH, dtype=np.uint64)
    if th.size:
        idx = np.repeat(starts2, ntok) + (np.arange(th.size, dtype=np.int64)
                                          - np.repeat(starts, ntok))
        padded[idx] = th
    acc = _rolling_shingles(padded, w)  # includes invalid cross-doc windows
    n_sh = ntok2 - w + 1  # >= 1 by padding
    # valid shingle positions: starts2[d] .. starts2[d] + n_sh[d] - 1
    sh_starts = np.concatenate([[0], np.cumsum(n_sh)[:-1]])
    pos = np.repeat(starts2, n_sh) + (np.arange(int(n_sh.sum()), dtype=np.int64)
                                      - np.repeat(sh_starts, n_sh))
    return acc[pos], sh_starts


class MinHasher:
    """Actor-pool stage: permutation parameters built once per actor.

    minhash_i(doc) = min over shingles s of (a_i * h(s) + b_i) mod 2^61-1.
    num_perm = bands * rows_per_band.
    """

    MERSENNE = np.uint64((1 << 61) - 1)

    def __init__(self, num_perm: int = 128, shingle_w: int = 3, text_col: str = "text"):
        rng = np.random.RandomState(42)  # fixed seed: signatures are join keys
        self.a = rng.randint(1, 1 << 61, size=num_perm, dtype=np.uint64)
        self.b = rng.randint(0, 1 << 61, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.w = shingle_w
        self.text_col = text_col

    def signature(self, text: str) -> np.ndarray:
        sh = _shingle_hashes(text or "", self.w) & self.MERSENNE
        with np.errstate(over="ignore"):
            m = (self.a[:, None] * sh[None, :] + self.b[:, None]) % self.MERSENNE
        return m.min(axis=1)

    # shingles per vectorized window: small enough that the (num_perm, CHUNK)
    # scratch stays cache-resident — measured ~60x faster than one big slab
    # (large uint64 temporaries are memory-bound AND % is an integer divide;
    # the in-place Mersenne fold below replaces the divide with shift/mask)
    _CHUNK = 512

    def _minhash_window(self, seg: np.ndarray, z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """(a*sh + b) mod 2^61-1 for one shingle window, in-place.
        Bit-identical to `% MERSENNE` on the wrapped 64-bit products:
        z mod (2^61-1) = (z>>61) + (z&M), one conditional subtract. The
        subtract is branchless: min(r, r-M) — r-M wraps past 2^64 when
        r < M, so the minimum always picks the reduced value."""
        n = seg.size
        zv, tv = z[:, :n], tmp[:, :n]
        np.multiply(self.a[:, None], seg[None, :], out=zv)
        np.add(zv, self.b[:, None], out=zv)
        np.right_shift(zv, np.uint64(61), out=tv)
        np.bitwise_and(zv, self.MERSENNE, out=zv)
        np.add(zv, tv, out=zv)
        np.subtract(zv, self.MERSENNE, out=tv)
        np.minimum(zv, tv, out=zv)
        return zv

    def __call__(self, t: pa.Table) -> pa.Table:
        nd = len(t)
        P = self.num_perm
        if nd == 0:
            sigs = np.zeros((0, P), dtype=np.uint64)
        else:
            # the text column goes into the tokenizer AS ARROW — no
            # to_pylist, no per-doc Python split (the former per-row hot
            # spot of the whole LLM-dedup family)
            sh_all, starts = _batch_shingles(t[self.text_col], self.w)
            sh_all = sh_all & self.MERSENNE
            ends = np.concatenate([starts[1:], [sh_all.size]])
            sigs = np.empty((nd, P), dtype=np.uint64)
            z = np.empty((P, self._CHUNK), dtype=np.uint64)
            tmp = np.empty((P, self._CHUNK), dtype=np.uint64)
            d0 = 0
            with np.errstate(over="ignore"):
                while d0 < nd:
                    d1 = d0 + 1
                    while d1 < nd and ends[d1] - starts[d0] <= self._CHUNK:
                        d1 += 1
                    if d1 - d0 == 1 and ends[d0] - starts[d0] > self._CHUNK:
                        # one oversized doc: sub-chunk its shingles, fold mins
                        acc = np.full(P, np.iinfo(np.uint64).max, dtype=np.uint64)
                        for c0 in range(int(starts[d0]), int(ends[d0]), self._CHUNK):
                            seg = sh_all[c0 : min(c0 + self._CHUNK, int(ends[d0]))]
                            np.minimum(acc, self._minhash_window(seg, z, tmp).min(axis=1), out=acc)
                        sigs[d0] = acc
                    else:
                        seg = sh_all[starts[d0] : ends[d1 - 1]]
                        m = self._minhash_window(seg, z, tmp)
                        idx = (starts[d0:d1] - starts[d0]).astype(np.int64)
                        sigs[d0:d1] = np.minimum.reduceat(m, idx, axis=1).T
                    d0 = d1
        return t.append_column(
            "minhash", pa.FixedSizeListArray.from_arrays(pa.array(sigs.ravel()), P)
        )


def minhash_bands(ds, id_col: str, *, num_perm=128, bands=16, text_col="text", shingle_w=3):
    """documents -> (doc_id, band_id, band_hash) rows (LSH banding)."""
    rows_per_band = num_perm // bands

    # autoscaling pool (1, 4): never reserves the whole node — a fixed pool
    # that takes every CPU starves the upstream read stage
    sig_ds = ds.map_batches(
        MinHasher,
        fn_constructor_kwargs={"num_perm": num_perm, "shingle_w": shingle_w, "text_col": text_col},
        batch_format="pyarrow",
        batch_size=None,
        concurrency=(1, 4),
    )

    def bandify(t: pa.Table) -> pa.Table:
        n = len(t)
        sig = np.asarray(t["minhash"].combine_chunks().flatten()).reshape(n, num_perm)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        out_id = np.repeat(ids, bands)
        out_band = np.tile(np.arange(bands, dtype=np.int32), n)
        bh = np.zeros((n, bands), dtype=np.uint64)
        with np.errstate(over="ignore"):
            # hash each band's rows_per_band consecutive signature values
            for bnd in range(bands):
                seg = sig[:, bnd * rows_per_band : (bnd + 1) * rows_per_band]
                h = np.full(n, 14695981039346656037, dtype=np.uint64)
                for r in range(rows_per_band):
                    h = (h ^ seg[:, r]) * FNV_PRIME
                bh[:, bnd] = h
        return pa.table(
            {
                id_col: pa.array(out_id),
                "band_id": pa.array(out_band),
                "band_hash": pa.array(bh.reshape(-1)),
            }
        )

    return sig_ds.map_batches(bandify, batch_format="pyarrow", batch_size=None)


def _bucket_pairs_partition(t: pa.Table, id_col: str, pair_cap: int) -> pa.Table:
    """Emit candidate pairs for EVERY (band_id, band_hash) bucket in one
    hash partition, vectorized: sort + boundary scan finds buckets, buckets
    are grouped BY SIZE so each distinct size is one batched triu gather
    (no per-bucket Python for the tiny-bucket common case).

    Mega-buckets (> pair_cap members — boilerplate-heavy corpora produce
    them constantly) are SALTED, not dropped: members are split into
    pair_cap-sized salt chunks (all pairs within each chunk) plus a chain
    edge linking consecutive chunks, so the bucket stays one connected
    component for clustering while pair count stays O(size * pair_cap)
    instead of O(size^2)."""
    n = len(t)
    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64())})
    if n == 0:
        return empty
    t = t.take(pc.sort_indices(t, sort_keys=[
        ("band_id", "ascending"), ("band_hash", "ascending"),
        (id_col, "ascending")]))
    band = t["band_id"].to_numpy(zero_copy_only=False)
    bh = t["band_hash"].to_numpy(zero_copy_only=False)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    change = np.flatnonzero((band[1:] != band[:-1]) | (bh[1:] != bh[:-1])) + 1
    starts = np.concatenate([[0], change])
    sizes = np.diff(np.concatenate([starts, [n]]))
    out_a, out_b = [], []
    for s in np.unique(sizes):
        s = int(s)
        if s < 2:
            continue
        sel = starts[sizes == s]
        if s <= pair_cap:
            mem = ids[sel[:, None] + np.arange(s)[None, :]]
            ii, jj = np.triu_indices(s, k=1)
            out_a.append(mem[:, ii].ravel())
            out_b.append(mem[:, jj].ravel())
        else:
            for st in sel:  # mega-buckets are rare; per-bucket loop is fine
                b_ids = ids[st:st + s]
                for c0 in range(0, s, pair_cap):
                    chunk = b_ids[c0:c0 + pair_cap]
                    ii, jj = np.triu_indices(chunk.size, k=1)
                    out_a.append(chunk[ii])
                    out_b.append(chunk[jj])
                    if c0 > 0:  # chain edge keeps the bucket connected
                        out_a.append(b_ids[c0 - 1:c0])
                        out_b.append(chunk[:1])
    if not out_a:
        return empty
    ia = np.concatenate(out_a)
    ib = np.concatenate(out_b)
    # partition-local dedupe shrinks the downstream distinct's input
    u = np.unique(np.stack([ia, ib], axis=1), axis=0)
    return pa.table({"id_a": pa.array(u[:, 0], pa.int64()),
                     "id_b": pa.array(u[:, 1], pa.int64())})


def minhash_candidate_pairs(ds, id_col: str, *, pair_cap: int = 256,
                            num_parts: int | None = None, **kw):
    """LSH candidate pairs (id_a < id_b), distinct. The wide step is ONE
    hash-partitioned shuffle of fixed-width (band_id, band_hash, id)
    triples at cluster-native parallelism (no fixed repartition); each
    partition's buckets are paired vectorized (see _bucket_pairs_partition;
    mega-buckets are salted, never silently dropped). Runs the pairing when
    called; the pair distinct merges up to relational.TREE_MAX_BYTES of
    per-block survivors in one task, more through the hash exchange."""
    from gdal_ray.ops.relational import hash_partition_reduce

    banded = minhash_bands(ds, id_col, **kw)
    cand = hash_partition_reduce(
        banded, ["band_id", "band_hash"],
        lambda t: _bucket_pairs_partition(t, id_col, pair_cap),
        num_parts=num_parts,
    )
    return distinct(cand, ["id_a", "id_b"])


_EMPTY_PAIRS = pa.table({"id_a": pa.array([], pa.int64()),
                         "id_b": pa.array([], pa.int64()),
                         "jaccard": pa.array([], pa.float64())})


def _unique_shingle_lists(texts, w: int):
    """Per-doc UNIQUE shingle-hash sets for a list of texts, vectorized
    across the whole batch (one lexsort + adjacent-dedupe instead of a
    per-doc np.unique loop). Returns (values uint64, offsets int64[nd+1]);
    bit-identical sets to _shingle_hashes per doc."""
    nd = len(texts)
    if nd == 0:
        return np.empty(0, np.uint64), np.zeros(1, np.int64)
    sh, starts = _batch_shingles(texts, w)
    counts = np.diff(np.concatenate([starts, [sh.size]]))
    doc_idx = np.repeat(np.arange(nd, dtype=np.int64), counts)
    order = np.lexsort((sh, doc_idx))
    dv, sv = doc_idx[order], sh[order]
    keep = np.concatenate([[True], (dv[1:] != dv[:-1]) | (sv[1:] != sv[:-1])])
    dv, sv = dv[keep], sv[keep]
    offs = np.zeros(nd + 1, dtype=np.int64)
    offs[1:] = np.cumsum(np.bincount(dv, minlength=nd))
    return sv, offs


def _join_emit_partition(t: pa.Table, shingle_w: int) -> pa.Table:
    """One hash partition holding BOTH doc rows (__side=-1, __text set) and
    need rows (__side 0/1, pair key set) for the same __doc hash range:
    match needs to docs with a sorted searchsorted join, compute unique
    shingle sets ONLY for matched docs (vectorized), and emit one
    (id_a, id_b, side, sh) row per need."""
    empty = pa.table({
        "id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
        "side": pa.array([], pa.int8()), "sh": pa.array([], pa.list_(pa.uint64())),
    })
    side_all = t["__side"].to_numpy(zero_copy_only=False)
    is_doc = side_all < 0
    if not is_doc.any() or is_doc.all():
        return empty
    docs_t = t.filter(pa.array(is_doc))
    needs_t = t.filter(pa.array(~is_doc))
    doc_ids = docs_t["__doc"].to_numpy(zero_copy_only=False)
    need_doc = needs_t["__doc"].to_numpy(zero_copy_only=False)
    no = np.argsort(need_doc, kind="mergesort")
    need_doc_s = need_doc[no]
    na = needs_t["id_a"].to_numpy(zero_copy_only=False)[no]
    nb = needs_t["id_b"].to_numpy(zero_copy_only=False)[no]
    nside = needs_t["__side"].to_numpy(zero_copy_only=False)[no]
    left = np.searchsorted(need_doc_s, doc_ids, "left")
    counts = np.searchsorted(need_doc_s, doc_ids, "right") - left
    midx = np.flatnonzero(counts > 0)
    if midx.size == 0:
        return empty
    matched_texts = docs_t["__text"].combine_chunks().take(pa.array(midx))
    values, offs = _unique_shingle_lists(matched_texts, shingle_w)
    c = counts[midx]
    total = int(c.sum())
    rep_sub = np.repeat(np.arange(midx.size, dtype=np.int64), c)
    cum = np.concatenate([[0], np.cumsum(c)[:-1]])
    pos = np.repeat(left[midx], c) + (np.arange(total, dtype=np.int64)
                                      - np.repeat(cum, c))
    sh_list = pa.ListArray.from_arrays(pa.array(offs, pa.int64()),
                                       pa.array(values, pa.uint64()))
    return pa.table({
        "id_a": pa.array(na[pos], pa.int64()),
        "id_b": pa.array(nb[pos], pa.int64()),
        "side": pa.array(nside[pos], pa.int8()),
        "sh": sh_list.take(pa.array(rep_sub)),
    })


def _verify_pairs_partition(t: pa.Table, threshold: float) -> pa.Table:
    """Exact Jaccard for every pair in one hash partition, vectorized: rows
    sorted by pair key, shingle lists flattened with a pair gid, one lexsort
    — a hash appearing twice within a pair (each side's set is unique) is
    exactly one intersection element, counted with a cumsum over adjacent
    duplicates. No per-pair Python."""
    if len(t) == 0:
        return _EMPTY_PAIRS
    t = t.take(pc.sort_indices(t, sort_keys=[
        ("id_a", "ascending"), ("id_b", "ascending"), ("side", "ascending")]))
    ia = t["id_a"].to_numpy(zero_copy_only=False)
    ib = t["id_b"].to_numpy(zero_copy_only=False)
    sh = t["sh"].combine_chunks()
    offs = sh.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    vals = np.asarray(sh.values)[offs[0]:offs[-1]]
    lens = np.diff(offs)
    n = len(ia)
    change = np.flatnonzero((ia[1:] != ia[:-1]) | (ib[1:] != ib[:-1])) + 1
    rstarts = np.concatenate([[0], change])
    rows_per = np.diff(np.concatenate([rstarts, [n]]))
    gid_row = np.repeat(np.arange(rstarts.size, dtype=np.int64), rows_per)
    rep = np.repeat(gid_row, lens)
    order = np.lexsort((vals, rep))
    rv, vv = rep[order], vals[order]
    dup = (rv[1:] == rv[:-1]) & (vv[1:] == vv[:-1])
    cum = np.concatenate([[0], np.cumsum(dup)])
    flat_per_pair = np.add.reduceat(lens, rstarts) if n else np.array([], np.int64)
    fend = np.cumsum(flat_per_pair)
    fstart = fend - flat_per_pair
    with np.errstate(invalid="ignore", divide="ignore"):
        inter = np.where(flat_per_pair > 0,
                         cum[np.maximum(fend - 1, fstart)] - cum[fstart], 0)
        union = flat_per_pair - inter
        j = np.round(np.where(union > 0, inter / np.maximum(union, 1), 0.0), 6)
    mask = (rows_per == 2) & (j >= threshold)
    return pa.table({
        "id_a": pa.array(ia[rstarts][mask], pa.int64()),
        "id_b": pa.array(ib[rstarts][mask], pa.int64()),
        "jaccard": pa.array(j[mask], pa.float64()),
    })


def exact_jaccard_pairs(ds, pairs_ds, id_col: str, *, text_col="text",
                        shingle_w=3, threshold=0.5, num_parts: int | None = None):
    """Verify candidate pairs with exact shingle-set Jaccard — fully
    distributed, no driver-side materialization of pairs, docs or shingle
    sets (the round-2 liability: a 100-TB near-dedup emits 1e8-1e9
    candidates, far past driver memory).

    Plan: pairs flat_map to (doc, id_a, id_b, side) "need" rows; docs and
    needs are UNIONed and hash-partitioned by doc id (ONE corpus-wide
    shuffle — the unavoidable distributed-join cost); each partition joins
    needs to its docs and emits per-need shingle sets (computed only for
    matched docs); a second hash partition by pair key co-locates each
    pair's two sets and verifies vectorized. Returns a Dataset
    (id_a, id_b, jaccard >= threshold)."""
    import ray.data as rd

    from gdal_ray.ops.relational import hash_partition_reduce

    if isinstance(pairs_ds, pa.Table):
        pairs_ds = rd.from_arrow(pairs_ds)

    def to_needs(t: pa.Table) -> pa.Table:
        ia = t["id_a"].to_numpy(zero_copy_only=False)
        ib = t["id_b"].to_numpy(zero_copy_only=False)
        return pa.table({
            "__doc": pa.array(np.concatenate([ia, ib]), pa.int64()),
            "id_a": pa.array(np.concatenate([ia, ia]), pa.int64()),
            "id_b": pa.array(np.concatenate([ib, ib]), pa.int64()),
            "__side": pa.array(np.concatenate([
                np.zeros(ia.size, np.int8), np.ones(ib.size, np.int8)])),
            "__text": pa.nulls(2 * ia.size, pa.string()),
        })

    def to_docrows(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "__doc": pc.cast(t[id_col], pa.int64()),
            "id_a": pa.nulls(n, pa.int64()),
            "id_b": pa.nulls(n, pa.int64()),
            "__side": pa.array(np.full(n, -1, np.int8)),
            "__text": pc.cast(t[text_col], pa.string()),
        })

    needs = pairs_ds.map_batches(to_needs, batch_format="pyarrow", batch_size=None)
    docrows = ds.map_batches(to_docrows, batch_format="pyarrow", batch_size=None)
    emitted = hash_partition_reduce(
        docrows.union(needs), ["__doc"],
        lambda t: _join_emit_partition(t, shingle_w), num_parts=num_parts)
    return hash_partition_reduce(
        emitted, ["id_a", "id_b"],
        lambda t: _verify_pairs_partition(t, threshold), num_parts=num_parts)


class SimHasher:
    """64-bit SimHash over token FNV hashes (sign of per-bit weighted sums)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.bit_masks = np.uint64(1) << np.arange(64, dtype=np.uint64)

    def __call__(self, t: pa.Table) -> pa.Table:
        out = np.zeros(len(t), dtype=np.uint64)
        th, ntok = _tokenize_whitespace(t[self.text_col])
        nonempty = np.nonzero(ntok > 0)[0]
        if nonempty.size:
            # (total_tok, 64) uint8 bit matrix straight from the hash bytes;
            # summing per doc via reduceat(dtype=int32) avoids any wide
            # temporary (an int64 cast of the bit matrix was 50x slower)
            bits = np.unpackbits(th[:, None].view(np.uint8), axis=1, bitorder="little")
            ne_ntok = ntok[nonempty]
            seg_starts = np.concatenate([[0], np.cumsum(ne_ntok)[:-1]])
            sums = np.add.reduceat(bits, seg_starts, axis=0, dtype=np.int32)
            score = sums.astype(np.int64) * 2 - ne_ntok[:, None]  # (+1/-1 sums)
            sig = ((score > 0).astype(np.uint64) * self.bit_masks[None, :]).sum(axis=1)
            out[nonempty] = sig
        return t.append_column("simhash", pa.array(out))


def exact_dedup(ds, id_col: str, text_col: str = "text"):
    """Exact dedup by content hash: md5 fingerprint -> first-per-group
    (min id wins). Returns (fp, doc_id survivors).

    Fingerprints the input when called. Up to relational.TREE_MAX_BYTES of
    per-block winners merge in one task; more (#fingerprints ~ #docs at
    north-star scale) are hash-partitioned by fingerprint."""
    fp_ds = add_fingerprint(ds, text_col=text_col, out="fp")
    fp_ds = fp_ds.select_columns(["fp", id_col])
    return first_by(fp_ds, ["fp"], [id_col])
