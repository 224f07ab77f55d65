"""Text analysis stages for the documents table — the training-data-pipeline
extensions (language-ID, quality scoring, token counting, fingerprinting).

GDAL's per-feature string machinery (swq string ops, ogr/swq_op_general.cpp)
is the reference precedent for per-row string functions; these stages extend
it to corpus-analysis ops, all vectorized (Arrow RE2 kernels / numpy) inside
map_batches over zero-copy Arrow batches.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Token = maximal run of non-whitespace. Matches the DuckDB oracle
# length(regexp_extract_all(text, '\S+')); both engines use RE2.
_TOKEN_RE = r"\S+"

# GPT-2-style pre-tokenizer pattern (the public BPE split regex restated in
# RE2 syntax — RE2 has no lookahead, so the trailing-space variants reduce
# to the plain classes; counts approximate BPE token counts closely).
# Both our pc kernel and DuckDB run RE2, so this is oracle-checkable.
_BPE_RE = r"'(?:[sdmt]|ll|ve|re)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"

_TOKEN_PATTERNS = {"whitespace": _TOKEN_RE, "bpe": _BPE_RE}

# tiny per-language stopword profiles for the n-gram/stopword heuristic
# language-ID (deterministic; tie broken by profile order)
LANG_PROFILES: list[tuple[str, list[str]]] = [
    ("en", ["the", "and", "of", "to", "a", "in", "is", "that"]),
    ("de", ["der", "die", "und", "das", "nicht", "ist", "ein"]),
    ("fr", ["le", "la", "et", "les", "des", "est", "une"]),
    ("es", ["el", "la", "los", "que", "es", "una", "por"]),
    ("pt", ["o", "de", "que", "um", "uma", "com", "para"]),
]


def add_token_count(ds, text_col: str = "text", out: str = "n_tokens",
                    pattern: str = "whitespace"):
    """pattern: 'whitespace' (plain \\S+ runs) or 'bpe' (GPT-2-style
    pre-tokenizer split — approximates BPE token counts, RE2-vectorized)."""
    regex = _TOKEN_PATTERNS[pattern]

    def f(t: pa.Table) -> pa.Table:
        n = pc.cast(pc.count_substring_regex(t[text_col], regex), pa.int64())
        return t.append_column(out, n)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def add_quality_metrics(ds, text_col: str = "text"):
    """n_chars (codepoints), n_tokens, n_alpha, alpha_ratio, mean_token_len —
    simple length/character-class quality signals, all RE2-kernel vectorized
    and reproducible in ANSI SQL."""

    def f(t: pa.Table) -> pa.Table:
        text = t[text_col]
        n_chars = pc.cast(pc.utf8_length(text), pa.int64())
        n_tokens = pc.cast(pc.count_substring_regex(text, _TOKEN_RE), pa.int64())
        n_alpha = pc.cast(pc.count_substring_regex(text, "[a-zA-Z]"), pa.int64())
        nt = pc.cast(n_tokens, pa.float64())
        safe_nt = pc.max_element_wise(nt, pa.scalar(1.0))
        # round_mode matches DuckDB's round() (half away from zero), so exact
        # ratio ties like 0.8203125 -> 0.820313 agree with the SQL oracle
        alpha_ratio = pc.round(
            pc.divide(pc.cast(n_alpha, pa.float64()), pc.cast(pc.max_element_wise(n_chars, pa.scalar(1)), pa.float64())),
            ndigits=6,
            round_mode="half_towards_infinity",
        )
        mean_tok = pc.round(
            pc.divide(pc.cast(n_alpha, pa.float64()), safe_nt),
            ndigits=6,
            round_mode="half_towards_infinity",
        )
        out = t
        for name, col in [
            ("n_chars_calc", n_chars),
            ("n_tokens", n_tokens),
            ("n_alpha", n_alpha),
            ("alpha_ratio", alpha_ratio),
            ("mean_token_len", mean_tok),
        ]:
            if name in out.column_names:  # idempotent when chained after add_token_count
                out = out.drop_columns([name])
            out = out.append_column(name, col)
        return out

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


class LangId:
    """Stopword-profile language-ID — an actor-pool stage: the compiled
    per-language regexes are built ONCE per actor in __init__ (the
    model-load-once pattern), scoring is vectorized per batch."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        # one whole-word alternation regex per language (RE2, compiled server-side)
        self.patterns = [
            (lang, r"\b(?:" + "|".join(words) + r")\b") for lang, words in LANG_PROFILES
        ]

    def __call__(self, t: pa.Table) -> pa.Table:
        text = pc.utf8_lower(t[self.text_col])
        scores = np.stack(
            [
                pc.count_substring_regex(text, pat)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
                for _, pat in self.patterns
            ]
        )  # (n_lang, n_rows)
        best = np.argmax(scores, axis=0)  # first max wins (deterministic)
        langs = np.array([lang for lang, _ in self.patterns])
        pred = langs[best]
        pred = np.where(scores.max(axis=0) == 0, "und", pred)
        return t.append_column("lang_pred", pa.array(pred.tolist(), type=pa.string()))


def add_fingerprint(ds, text_col: str = "text", out: str = "fp"):
    """MD5 content fingerprint (hex) — matches the DuckDB md5() oracle.
    Hashing is inherently per-row; done with hashlib over the utf-8 buffer
    (cheap vs the I/O), everything around it stays Arrow."""

    def f(t: pa.Table) -> pa.Table:
        vals = t[text_col].to_pylist()
        fps = [hashlib.md5(v.encode("utf-8")).hexdigest() if v is not None else None for v in vals]
        return t.append_column(out, pa.array(fps, type=pa.string()))

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def rolling_fingerprint(ds, text_col: str = "text", out: str = "rfp", window: int = 64):
    """Document fingerprint via polynomial rolling hash over codepoints —
    a cheap locality-sensitive-ish signature (min of rolling window hashes),
    fully vectorized."""
    B = np.uint64(1000003)

    def f(t: pa.Table) -> pa.Table:
        outv = np.zeros(len(t), dtype=np.uint64)
        texts = t[text_col].to_pylist()
        for i, s in enumerate(texts):
            if not s:
                continue
            cp = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
            if cp.size < window:
                h = np.uint64(0)
                for c in cp:
                    h = h * B + c
                outv[i] = h
                continue
            # window hash h(i) = sum_j cp[i+j] * B^(w-1-j)  (mod 2^64 wraparound)
            pw = np.ones(window, dtype=np.uint64)
            np.multiply.accumulate(np.full(window - 1, B, dtype=np.uint64), out=pw[1:])
            windows = np.lib.stride_tricks.sliding_window_view(cp, window)
            with np.errstate(over="ignore"):
                h = (windows * pw[::-1]).sum(axis=1, dtype=np.uint64)
            outv[i] = h.min()
        return t.append_column(out, pa.array(outv))

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def normalize_text(ds, text_col: str = "text", out: str = "text_norm", *,
                   lowercase: bool = True, collapse_whitespace: bool = True,
                   strip_punct: bool = False):
    """Text normalization for dedup preprocessing (the standard pipeline
    before shingling: lowercase + whitespace collapse [+ punctuation
    strip]) — all RE2-kernel vectorized, reproducible in ANSI SQL
    (lower / regexp_replace / trim), so oracle-checkable."""

    def f(t: pa.Table) -> pa.Table:
        v = pc.cast(t[text_col], pa.string())
        if lowercase:
            v = pc.utf8_lower(v)
        if strip_punct:
            v = pc.replace_substring_regex(v, r"[^\w\s]", "")
        if collapse_whitespace:
            v = pc.replace_substring_regex(v, r"\s+", " ")
            v = pc.utf8_trim_whitespace(v)
        return t.append_column(out, v)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def gopher_quality(ds, text_col: str = "text"):
    """Gopher-rule quality signals (Rae et al. 2021, public): duplicate-
    line fraction, mean word length, symbol-to-word ratio ('#'), bullet-
    line fraction, line count. All vectorized (Arrow RE2 kernels + one
    lexsort pass for per-doc distinct lines) and reproducible in ANSI SQL
    (str_split/list_distinct/regexp) for oracle checking."""
    import numpy as np

    def f(t: pa.Table) -> pa.Table:
        text = pc.cast(t[text_col], pa.string())
        n = len(t)
        lines = pc.split_pattern(text, "\n").combine_chunks()
        offs = lines.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.diff(offs)
        flat = lines.values
        # per-doc distinct lines: dictionary-encode flattened lines, then
        # one lexsort + adjacent-dedupe (the _unique_shingle_lists trick)
        enc = pc.dictionary_encode(flat)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
        order = np.lexsort((codes, doc_idx))
        dv, cv = doc_idx[order], codes[order]
        keep = np.concatenate([[True], (dv[1:] != dv[:-1]) | (cv[1:] != cv[:-1])])
        ndist = np.bincount(dv[keep], minlength=n)
        with np.errstate(invalid="ignore", divide="ignore"):
            dup_frac = np.where(counts > 0, 1.0 - ndist / np.maximum(counts, 1), 0.0)
        # bullet lines
        bullet = pc.match_substring_regex(flat, r"^\s*[-*]") \
            .to_numpy(zero_copy_only=False)
        nbul = np.bincount(doc_idx[bullet], minlength=n) if bullet.any() \
            else np.zeros(n, np.int64)
        bullet_frac = np.where(counts > 0, nbul / np.maximum(counts, 1), 0.0)
        # word stats
        n_tokens = pc.cast(pc.count_substring_regex(text, r"\S+"), pa.float64()) \
            .to_numpy(zero_copy_only=False)
        n_nonspace = pc.cast(pc.count_substring_regex(text, r"\S"), pa.float64()) \
            .to_numpy(zero_copy_only=False)
        n_hash = pc.cast(pc.count_substring(text, "#"), pa.float64()) \
            .to_numpy(zero_copy_only=False)
        safe_t = np.maximum(n_tokens, 1.0)
        out = {c: t[c] for c in t.column_names if c != text_col}
        rnd = lambda v: np.round(v, 6)
        out["n_lines"] = pa.array(counts.astype(np.int64))
        out["dup_line_frac"] = pa.array(rnd(dup_frac))
        out["mean_word_len"] = pa.array(rnd(n_nonspace / safe_t))
        out["symbol_word_ratio"] = pa.array(rnd(n_hash / safe_t))
        out["bullet_line_frac"] = pa.array(rnd(bullet_frac))
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def repetition_signals(ds, text_col: str = "text",
                       top_ns=(2, 3, 4), dup_ns=(5, 6, 7, 8, 9, 10)):
    """Gopher repetition filters (Rae et al. 2021 §A1.1, public): per-doc
    word-n-gram repetition coverage.

    - top_{n}gram_char_frac: max over distinct n-grams of
      occurrences x gram_char_len, / doc char length (capped at 1).
      gram_char_len = sum of token codepoint lengths + (n-1) separators —
      equals length(gram) for single-space-joined text, so the DuckDB
      oracle can rebuild it with string_split + unnest(generate_series).
    - dup_{n}gram_char_frac: same coverage summed over n-grams occurring
      MORE than once (all occurrences counted), capped at 1.

    Exact (collision-free): per-doc n-gram grouping is one np.lexsort over
    the n dictionary-code columns + doc id — no hashing. Everything is
    flat-array vectorized; no per-row Python."""

    all_ns = sorted(set(top_ns) | set(dup_ns))

    def rnd6(v):
        # DuckDB round() is half-AWAY-from-zero; np.round is half-to-even.
        # Exact ties (e.g. 13/128 = 0.1015625) diverge — match DuckDB.
        return np.floor(v * 1e6 + 0.5) / 1e6

    def f(t: pa.Table) -> pa.Table:
        text = pc.cast(t[text_col], pa.string())
        nd = len(t)
        nc = pc.cast(pc.utf8_length(text), pa.int64()) \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        toks = pc.utf8_split_whitespace(text).combine_chunks()
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.diff(offs)
        flat = toks.values
        enc = pc.dictionary_encode(flat)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        tlen = pc.cast(pc.utf8_length(flat), pa.int64()) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        doc_of = np.repeat(np.arange(nd, dtype=np.int64), counts)
        cs = np.concatenate([[0], np.cumsum(tlen)])
        ntok = codes.size
        denom = np.maximum(nc, 1.0)
        out = {c: t[c] for c in t.column_names}
        for n in all_ns:
            if ntok >= n:
                same = doc_of[: ntok - n + 1] == doc_of[n - 1:]
                idx = np.nonzero(same)[0]
            else:
                idx = np.zeros(0, np.int64)
            gdoc = doc_of[idx]
            glen = cs[idx + n] - cs[idx] + (n - 1)
            keys = [codes[idx + k] for k in range(n)]
            order = np.lexsort(tuple(reversed(keys)) + (gdoc,))
            dd = gdoc[order]
            new = np.ones(dd.size, bool)
            if dd.size > 1:
                diff = dd[1:] != dd[:-1]
                for k in keys:
                    ks = k[order]
                    diff = diff | (ks[1:] != ks[:-1])
                new[1:] = diff
            gid = np.cumsum(new) - 1
            freq = np.bincount(gid) if gid.size else np.zeros(0, np.int64)
            first_len = glen[order][new] if dd.size else np.zeros(0, np.int64)
            cov = freq * first_len
            gdocs = dd[new] if dd.size else np.zeros(0, np.int64)
            if n in top_ns:
                top = np.zeros(nd)
                np.maximum.at(top, gdocs, cov)
                out[f"top_{n}gram_char_frac"] = pa.array(
                    rnd6(np.minimum(top / denom, 1.0)))
            if n in dup_ns:
                dupcov = np.zeros(nd)
                m = freq > 1
                np.add.at(dupcov, gdocs[m], cov[m])
                out[f"dup_{n}gram_char_frac"] = pa.array(
                    rnd6(np.minimum(dupcov / denom, 1.0)))
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def top_ngrams(ds, text_col: str = "text", *, n: int = 2, k: int = 50,
               sep: str = " "):
    """Corpus-wide top-k word n-grams by occurrence count (vocabulary /
    phrase mining over a training corpus). Per batch: Arrow whitespace
    split, windowed gram build with binary_join_element_wise, and a LOCAL
    value_counts partial — so the shuffle moves one row per DISTINCT gram
    per batch, not one per occurrence. Then a tree-merge groupby sum and
    the two-level top-k (count desc, gram asc for a deterministic tie
    cut). No per-row Python anywhere."""
    from gdal_ray.ops.relational import groupby_agg, topk

    def partial(t: pa.Table) -> pa.Table:
        text = pc.cast(t[text_col], pa.string())
        toks = pc.utf8_split_whitespace(text).combine_chunks()
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.diff(offs)
        flat = toks.values
        nd = len(t)
        doc_of = np.repeat(np.arange(nd, dtype=np.int64), counts)
        ntok = len(flat)
        if ntok >= n:
            same = doc_of[: ntok - n + 1] == doc_of[n - 1:]
            idx = np.nonzero(same)[0]
        else:
            idx = np.zeros(0, np.int64)
        if idx.size == 0:
            return pa.table({"gram": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        parts = [flat.take(pa.array(idx + j)) for j in range(n)]
        gram = parts[0] if n == 1 else \
            pc.binary_join_element_wise(*parts, sep)
        vc = pc.value_counts(gram)
        return pa.table({"gram": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=None)
    agg = groupby_agg(partials, ["gram"], [("n", "sum", "n")])
    return topk(agg, [("n", True), ("gram", False)], k)


def quantile_buckets(ds, col: str, *, edges=(1.0 / 3.0, 2.0 / 3.0),
                     labels=("head", "middle", "tail"),
                     out: str = "bucket"):
    """CCNet-style percentile bucketing (Wenzek et al. 2019 §4.3, public):
    split a corpus into head/middle/tail by a signal column's quantiles.
    Thresholds come from the distributed exact quantile (quantile_disc
    convention — integer-valued signals give bit-identical thresholds on
    any engine); row i gets labels[k] where k = #thresholds < value
    (values equal to a threshold fall LEFT, matching `value <= thr`).
    Two passes: one quantile reduce, one streaming label map."""
    from gdal_ray.ops.sketch import exact_quantiles_int

    thr = exact_quantiles_int(ds, col, list(edges))

    def f(t: pa.Table) -> pa.Table:
        v = pc.cast(t[col], pa.float64()).to_numpy(zero_copy_only=False)
        k = np.zeros(len(t), np.int64)
        for b in thr:
            k += (v > b).astype(np.int64)
        lab = np.asarray(labels, dtype=object)[k]
        return t.append_column(out, pa.array(lab.tolist(), pa.string()))

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def dedup_within_doc(ds, text_col: str = "text",
                     out: str = "deduped_text",
                     delimiter: str = " "):
    """WITHIN-document repetition removal (the C4/RefinedWeb 'drop
    repeated lines/paragraphs inside a page' step, applied to
    delimiter-separated units): keep each unit's FIRST occurrence in its
    document, preserve order, rejoin with the delimiter. Adds `out` and
    `{out}_n_kept`.

    Zero-shuffle: one vectorized kernel per batch — split fan-out,
    dictionary codes of the unit strings (exact, no hash collisions),
    np.unique over (doc, code) pairs for first-occurrence indices, and a
    ListArray rebuild + binary_join. The corpus never leaves its block."""

    def f(t: pa.Table) -> pa.Table:
        la = pc.split_pattern(t[text_col], delimiter)
        if isinstance(la, pa.ChunkedArray):
            la = la.combine_chunks()
        offsets = la.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = la.flatten()
        n_docs = len(la)
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int64),
                           np.diff(offsets))
        codes = pc.dictionary_encode(flat).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        key = doc_of * (codes.max() + 1 if len(codes) else 1) + codes
        _, first_idx = np.unique(key, return_index=True)
        first_idx.sort()
        kept_doc = doc_of[first_idx]
        kept_per_doc = np.bincount(kept_doc, minlength=n_docs)
        new_offsets = np.concatenate(
            [[0], np.cumsum(kept_per_doc)]).astype(np.int64)
        kept = pa.ListArray.from_arrays(
            pa.array(new_offsets, pa.int32()), flat.take(pa.array(first_idx)))
        joined = pc.binary_join(kept, delimiter)
        t = t.append_column(out, joined)
        return t.append_column(f"{out}_n_kept", pa.array(kept_per_doc))

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)
