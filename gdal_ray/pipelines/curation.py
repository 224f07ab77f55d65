"""End-to-end web-corpus curation: the composed LLM-training-data chain a
user of this engine would actually run over raw crawled text —

    quality metrics -> language ID -> Gopher repetition signals ->
    rule filter -> PII redaction -> exact dedup (content hash) ->
    test-set decontamination -> per-domain token budget

Every stage is one of this repo's streaming operators (the public methods
of C4 / Gopher / GPT-3 appendix C), so the pipeline is a single lazy
Dataset plan: the per-doc stages fuse into one map chain, and the only
wide ops are the dedup winner reduce and the optional budget shuffle —
nothing corpus-sized ever reaches the driver.

Scale notes (100 TB): dedup runs over the full rows in ONE first_by
(winner-per-content-hash, no broadcast, merged as `curate` states);
decontamination broadcasts only the benchmark gram set (test sets are
small by contract); PII/quality/repetition are shuffle-free Arrow kernel
maps."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from gdal_ray.ops.relational import budget_take, first_by
from gdal_ray.text.analysis import (LangId, add_fingerprint,
                                    add_quality_metrics,
                                    repetition_signals)
from gdal_ray.text.decontam import contamination_flags
from gdal_ray.text.pii import redact_pii


def curate(ds, *, id_col: str = "doc_id", text_col: str = "text",
           min_tokens: int = 5, min_alpha_ratio: float = 0.25,
           max_dup5: float = 0.5, bench=None, decontam_n: int = 5,
           char_budget: float | None = None, budget_by: str = "source"):
    """Returns the curated Dataset (surviving docs with scrubbed text and
    the per-doc signal columns). `bench` (optional) is the benchmark
    corpus for decontamination; `char_budget` (optional) caps each
    `budget_by` key's running char total. The dedup's per-block winners
    are computed when called; up to relational.TREE_MAX_BYTES of them merge
    in one task, more through the hash exchange."""
    d = add_quality_metrics(ds, text_col=text_col)
    d = d.map_batches(LangId(text_col), batch_format="pyarrow",
                      batch_size=None)
    d = repetition_signals(d, text_col=text_col, top_ns=(2,), dup_ns=(5,))

    def rule_filter(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(pc.greater_equal(t["n_tokens"], min_tokens),
                    pc.greater_equal(t["alpha_ratio"], min_alpha_ratio)),
            pc.less_equal(t["dup_5gram_char_frac"], max_dup5))
        return t.filter(pc.fill_null(keep, False))

    d = d.map_batches(rule_filter, batch_format="pyarrow", batch_size=None)
    d = redact_pii(d, text_col=text_col, counts=False)

    # dedup the FULL rows in one first_by: fingerprint inline, then the
    # winner reduce keeps each content hash's min-id row with all signal
    # columns attached. (exact_dedup + a semi-join back would
    # shuffle the full rows twice — measured 4.6s + 18s vs ~8s at 10^6
    # docs / 32 cpus.)
    d = add_fingerprint(d, text_col=text_col, out="__fp")
    d = first_by(d, ["__fp"], [id_col])
    d = d.map_batches(lambda t: t.drop_columns(["__fp"]),
                      batch_format="pyarrow", batch_size=None)

    if bench is not None:
        d = contamination_flags(d, bench, n=decontam_n, text_col=text_col,
                                out="__contam")
        d = d.map_batches(
            lambda t: t.filter(pc.invert(t["__contam"]))
                       .drop_columns(["__contam"]),
            batch_format="pyarrow", batch_size=None)
    if char_budget is not None:
        d = budget_take(d, by=[budget_by], order_col=id_col,
                        weight_col="n_chars_calc", budget=char_budget)
    return d


def prepare_training_data(ds, *, weights: dict, chunk_tokens: int = 256,
                          overlap: int = 0, max_tokens: int = 1024,
                          id_col: str = "doc_id", text_col: str = "text",
                          mix_key: str = "lang_pred",
                          num_parts: int | None = None,
                          seed: int = 0, **curate_kw):
    """The full training-data prep chain, composed end-to-end:

        curate (quality + langid + repetition + PII + exact dedup)
          -> resample_to_mixture (target language mixture, hash-accept)
          -> chunk_documents (token windows)
          -> pack_sequences (next-fit into <= max_tokens sequences)

    Returns the sequence-assignment Dataset (chunk_id, n_tokens, seq_id,
    seq_pos) with chunk_id = doc_id * 2^20 + chunk_idx (collision-free
    while chunk_idx < 2^20 and doc_id < 2^43 — a 100-TB corpus at
    256-token chunks stays far inside both). Shuffle ledger: curate's one
    full-row dedup shuffle, mixing's tiny count aggregate, chunking is
    shuffle-free, packing ships only (chunk_id, token-count) pairs."""
    from gdal_ray.text.mixing import resample_to_mixture
    from gdal_ray.text.packing import chunk_documents, pack_sequences

    d = curate(ds, id_col=id_col, text_col=text_col, **curate_kw)
    d = resample_to_mixture(d, key_col=mix_key, id_col=id_col,
                            weights=weights, seed=seed)
    ch = chunk_documents(d, id_col=id_col, text_col=text_col,
                         chunk_tokens=chunk_tokens, overlap=overlap)

    def add_cid(t: pa.Table) -> pa.Table:
        import numpy as np

        did = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cix = t["chunk_idx"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "chunk_id", pa.array(did * (1 << 20) + cix, pa.int64()))

    ch = ch.map_batches(add_cid, batch_format="pyarrow", batch_size=None)
    return pack_sequences(ch, id_col="chunk_id", text_col="chunk",
                          token_col="n_tokens", max_tokens=max_tokens,
                          num_parts=num_parts)
