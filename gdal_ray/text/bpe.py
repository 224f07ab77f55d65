"""Distributed BPE tokenizer training + encoding over a documents table.

The classic byte-pair-encoding trainer (Sennrich et al. 2016; the GPT-2
tokenizer uses the same merge loop) re-expressed Ray-Data-first:

- The corpus is reduced ONCE to a (word, count) vocabulary table — only
  (word, partial-count) pairs reach the groupby_agg merge, the text never
  moves again. Every subsequent iteration runs over the vocabulary, which
  is orders of magnitude smaller than the corpus (the standard trick real
  tokenizer trainers use).
- Symbols are int32 CODES into a driver-side string table (initial codes
  = sorted distinct codepoints; merge k adds one code), so every
  per-round kernel runs on zero-copy int arrays — no Python strings move
  after vocabulary init. A numpy adjacency kernel emits per-batch
  (l, r, weight) partials, the combiner + tree merge
  (ops.relational.groupby_agg) reduces them, and a two-level top-k ships
  exactly ONE row (the winning pair) to the driver. The winner broadcasts
  back in the next map closure (three ints), and the merge itself is a
  run-length kernel — leftmost non-overlapping occurrences, no Python
  loop over rows.
- Iterative Ray pipelines must sever stats/lineage each round
  (from_arrow_refs(materialize().to_arrow_refs()) — see ops/graph.py), or
  plan metadata compounds per generation.

At 100 TB the corpus pass stays a streaming one-shuffle word count; the
merge loop cost is O(num_merges x vocab) spread over the cluster. Real
pipelines also train on a bounded sample — pass `ds.random_sample(...)`
in; nothing here materializes the corpus.

Reference precedent: GDAL has no tokenizer; this is a training-data
extension op (SURVEY §2.11 tier) alongside text/packing and text/mixing.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["bpe_train", "bpe_encode", "BpeEncoder"]


# ---------------------------------------------------------------------------
# vocabulary extraction
# ---------------------------------------------------------------------------


def _word_counts(ds, text_col: str):
    """(word, cnt) vocabulary Dataset: whitespace split fan-out per batch,
    per-batch partial counts, one groupby_agg merge of (word, count)."""
    from gdal_ray.ops.relational import arrow_group_by, groupby_agg

    def split(t: pa.Table) -> pa.Table:
        la = pc.list_flatten(pc.utf8_split_whitespace(t[text_col]))
        la = la.filter(pc.not_equal(la, ""))
        ones = pa.array(np.ones(len(la), dtype=np.int64))
        part = pa.table({"word": la, "__c": ones})
        return arrow_group_by(part, ["word"], [("__c", "sum")]).rename_columns(
            ["word", "cnt"])

    parts = ds.map_batches(split, batch_format="pyarrow", batch_size=None)
    return groupby_agg(parts, ["word"], [("cnt", "sum", "cnt")])


# ---------------------------------------------------------------------------
# vectorized kernels (symbols are int32 CODES into a driver-side string
# table: initial codes = sorted distinct codepoints, merge k adds code
# alpha_n + k — so the per-round kernels touch only zero-copy int arrays,
# never Python strings)
# ---------------------------------------------------------------------------

_PAIR_SHIFT = 21  # symbol ids < 2^21 (alphabet + merges); key = l<<21 | r


def _alphabet(vocab) -> np.ndarray:
    """Sorted distinct codepoints across the vocabulary (tiny — per-batch
    sets union on the driver)."""
    def f(t: pa.Table) -> pa.Table:
        cps = np.unique(np.frombuffer(
            "".join(t["word"].to_pylist()).encode("utf-32-le"),
            dtype=np.uint32))
        return pa.table({"cp": pa.array(cps.astype(np.int64))})

    parts = vocab.map_batches(f, batch_format="pyarrow",
                              batch_size=None).take_all()
    return np.unique(np.array([r["cp"] for r in parts], dtype=np.int64))


def _syms_init_codes(t: pa.Table, alpha: np.ndarray) -> pa.Table:
    """word -> list<int32> of codepoint codes (vectorized: one utf-32
    decode of the concatenated words + searchsorted)."""
    words = t["word"].to_pylist()
    joined = "".join(words)
    cps = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    codes = np.searchsorted(alpha, cps.astype(np.int64)).astype(np.int32)
    lens = np.fromiter((len(w) for w in words), np.int64, len(words))
    offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
    syms = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                    pa.array(codes))
    return pa.table({"cnt": t["cnt"], "syms": syms})


def _flat_offsets(la: pa.ChunkedArray | pa.ListArray):
    if isinstance(la, pa.ChunkedArray):
        la = la.combine_chunks()
    flat = la.flatten().to_numpy(zero_copy_only=False)
    offsets = la.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    return flat, offsets


def _pair_partials(t: pa.Table) -> pa.Table:
    """Per-batch (l, r, w) adjacency-code counts, weighted by word count
    — every adjacent position counts (the classic get_stats convention,
    overlaps included). Pure int numpy: unique on the packed pair key +
    weighted bincount."""
    flat, offsets = _flat_offsets(t["syms"])
    cnt = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(flat)
    if n == 0:
        return pa.table({"l": pa.array([], pa.int64()),
                         "r": pa.array([], pa.int64()),
                         "w": pa.array([], pa.int64())})
    # a position starts a within-word pair unless it is the last symbol of
    # its word
    mask = np.ones(n, dtype=bool)
    mask[offsets[1:] - 1] = False
    idx = np.flatnonzero(mask)
    word_of = np.searchsorted(offsets, idx, side="right") - 1
    key = (flat[idx].astype(np.int64) << _PAIR_SHIFT) | flat[idx + 1]
    uniq, inv = np.unique(key, return_inverse=True)
    w = np.bincount(inv, weights=cnt[word_of]).astype(np.int64)
    return pa.table({"l": pa.array(uniq >> _PAIR_SHIFT),
                     "r": pa.array(uniq & ((1 << _PAIR_SHIFT) - 1)),
                     "w": pa.array(w)})


def _merge_pair_kernel(flat: np.ndarray, offsets: np.ndarray,
                       left: str, right: str, merged: str):
    """Replace leftmost non-overlapping (left, right) adjacencies with the
    merged symbol. Returns (new_flat, new_offsets). Overlap runs (e.g.
    'aaa' with pair (a,a)) keep every other match — the classic scan
    semantics, computed with a run-id trick instead of a loop."""
    n = len(flat)
    if n < 2:
        return flat, offsets
    mask = np.ones(n, dtype=bool)
    mask[offsets[1:] - 1] = False
    mask[-1] = False
    cand = np.flatnonzero(mask)
    cand = cand[(flat[cand] == left) & (flat[cand + 1] == right)]
    if len(cand) == 0:
        return flat, offsets
    # consecutive candidate positions overlap (share the middle symbol and
    # are necessarily in the same word); keep alternate members of each run
    first = np.concatenate([[True], np.diff(cand) > 1])
    run_id = np.cumsum(first) - 1
    run_start = cand[first][run_id]
    kept = cand[(cand - run_start) % 2 == 0]
    delete = np.zeros(n, dtype=bool)
    delete[kept + 1] = True
    new_flat = flat.copy()
    new_flat[kept] = merged
    new_flat = new_flat[~delete]
    removed_before = np.concatenate([[0], np.cumsum(delete)])
    new_offsets = offsets - removed_before[offsets]
    return new_flat, new_offsets


def _rebuild(t: pa.Table, flat: np.ndarray, offsets: np.ndarray) -> pa.Table:
    syms = pa.ListArray.from_arrays(
        pa.array(offsets.astype(np.int32), pa.int32()),
        pa.array(flat.astype(np.int32)))
    return pa.table({"cnt": t["cnt"], "syms": syms})


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def bpe_train(ds, text_col: str = "text", num_merges: int = 50,
              min_count: int = 2) -> pa.Table:
    """Learn `num_merges` BPE merges from the corpus. Returns the ordered
    merge table (rank, left, right, merged, pair_count) — deterministic
    for a fixed corpus (argmax ties break by (left, right) ascending),
    independent of partition layout. Stops early when the best pair's
    count drops below `min_count`."""
    import ray.data as rd

    from gdal_ray.ops.relational import groupby_agg, topk
    from gdal_ray.util import default_num_parts

    # the tree merge returns one block: split it (2x CPUs, no empty block)
    # so every round's pair count and merge kernel run cluster-wide
    words = _word_counts(ds, text_col).materialize()
    words = words.repartition(
        max(1, min(words.count(), default_num_parts(floor=16))))
    words = rd.from_arrow_refs(words.materialize().to_arrow_refs())
    alpha = _alphabet(words)
    if alpha.size >= (1 << _PAIR_SHIFT) - num_merges:
        raise ValueError("alphabet too large for the packed pair key")
    # code -> symbol string; merge k appends code alpha.size + k
    sym_strs: list[str] = [chr(int(c)) for c in alpha]
    vocab = words.map_batches(
        lambda t, a=alpha: _syms_init_codes(t, a),
        batch_format="pyarrow", batch_size=None)
    vocab = rd.from_arrow_refs(vocab.materialize().to_arrow_refs())

    merges: list[tuple[str, str, str, int]] = []
    for rank in range(num_merges):
        pairs = vocab.map_batches(_pair_partials, batch_format="pyarrow",
                                  batch_size=None)
        agg = groupby_agg(pairs, ["l", "r"], [("cnt", "sum", "w")])
        # argmax tie-break is on the symbol STRINGS (reference semantics),
        # so label the bounded aggregated pair table before the top-1
        strs = np.asarray(sym_strs, dtype=object)

        def label(t: pa.Table, strs=strs) -> pa.Table:
            li = t["l"].to_numpy(zero_copy_only=False)
            ri = t["r"].to_numpy(zero_copy_only=False)
            t = t.append_column("ls", pa.array(strs[li].tolist(),
                                               pa.string()))
            return t.append_column("rs", pa.array(strs[ri].tolist(),
                                                  pa.string()))

        best = topk(agg.map_batches(label, batch_format="pyarrow",
                                    batch_size=None),
                    [("cnt", True), ("ls", False), ("rs", False)], 1)
        rows = best.take_all()
        if not rows:
            break
        b = rows[0]
        lc, rc, cnt = int(b["l"]), int(b["r"]), int(b["cnt"])
        if cnt < min_count:
            break
        merged_code = len(sym_strs)
        merges.append((b["ls"], b["rs"], b["ls"] + b["rs"], cnt))
        sym_strs.append(b["ls"] + b["rs"])

        def apply(t: pa.Table, lc=lc, rc=rc, mc=merged_code) -> pa.Table:
            flat, offsets = _flat_offsets(t["syms"])
            flat, offsets = _merge_pair_kernel(flat, offsets, lc, rc, mc)
            return _rebuild(t, flat, offsets)

        vocab = vocab.map_batches(apply, batch_format="pyarrow",
                                  batch_size=None)
        # sever lineage each round or plan metadata compounds (graph.py)
        vocab = rd.from_arrow_refs(vocab.materialize().to_arrow_refs())

    return pa.table({
        "rank": pa.array(np.arange(len(merges), dtype=np.int64)),
        "left": pa.array([m[0] for m in merges], pa.string()),
        "right": pa.array([m[1] for m in merges], pa.string()),
        "merged": pa.array([m[2] for m in merges], pa.string()),
        "pair_count": pa.array([m[3] for m in merges], pa.int64()),
    })


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def _encode_word(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    """Classic min-rank merge loop for ONE word (GPT-2 bpe())."""
    syms = list(word)
    while len(syms) > 1:
        best = None
        best_rank = None
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best, best_rank = i, r
        if best is None:
            break
        pair = (syms[best], syms[best + 1])
        out = []
        i = 0
        while i < len(syms):
            if (i < len(syms) - 1 and (syms[i], syms[i + 1]) == pair):
                out.append(syms[i] + syms[i + 1])
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
    return syms


class BpeEncoder:
    """Actor-pool encode stage: the merge-rank dict builds ONCE per actor
    (model-load-once pattern) and a word->tokens cache persists across
    batches, so each UNIQUE word is encoded once per actor — the per-word
    merge loop never touches the corpus-scale row stream."""

    def __init__(self, merges: pa.Table, text_col: str = "text",
                 out: str = "bpe_tokens"):
        self.ranks = {(l, r): i for i, (l, r) in enumerate(
            zip(merges["left"].to_pylist(), merges["right"].to_pylist()))}
        self.text_col = text_col
        self.out = out
        self.cache: dict[str, list[str]] = {}

    def __call__(self, t: pa.Table) -> pa.Table:
        words_la = pc.utf8_split_whitespace(t[self.text_col])
        if isinstance(words_la, pa.ChunkedArray):
            words_la = words_la.combine_chunks()
        flat = words_la.flatten().to_pylist()
        offsets = words_la.offsets.to_numpy(zero_copy_only=False)
        tok_lists: list[list[str]] = []
        lens = np.empty(len(flat), dtype=np.int64)
        for i, w in enumerate(flat):
            if not w:
                tok_lists.append([])
                lens[i] = 0
                continue
            toks = self.cache.get(w)
            if toks is None:
                toks = _encode_word(w, self.ranks)
                self.cache[w] = toks
            tok_lists.append(toks)
            lens[i] = len(toks)
        # per-doc token list: flatten word token lists, regroup by the doc
        # word offsets — token offset of doc k = cumulative token count up
        # to its first word
        all_toks = [tok for lst in tok_lists for tok in lst]
        starts = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
        doc_offsets = starts[offsets]
        la = pa.ListArray.from_arrays(
            pa.array(doc_offsets, pa.int32()),
            pa.array(all_toks, pa.string()))
        t = t.append_column(self.out, la)
        return t.append_column(
            f"{self.out}_n", pa.array(np.diff(doc_offsets)))


def bpe_encode(ds, merges: pa.Table, text_col: str = "text",
               out: str = "bpe_tokens", concurrency=(1, 8)):
    """Encode the corpus with a learned merge table (broadcast once via
    Ray's closure serialization — it is a small table of strings)."""
    return ds.map_batches(
        BpeEncoder, fn_constructor_args=(merges, text_col, out),
        batch_format="pyarrow", batch_size=None, concurrency=concurrency)
