"""BPE trainer/encoder vs a straightforward single-machine reference.

The distributed trainer (text/bpe.py) must produce the EXACT merge
sequence the classic in-memory algorithm produces (same counting
convention: every adjacency counts; same merge convention: leftmost
non-overlapping; ties by (count DESC, left, right)), independent of
partition layout.
"""

from collections import Counter

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from gdal_ray.ops import relational as R
from gdal_ray.text.bpe import (BpeEncoder, _encode_word, _merge_pair_kernel,
                               bpe_encode, bpe_train)
from gdal_ray.util import to_arrow


def ref_bpe_train(word_counts: dict, num_merges: int, min_count: int):
    vocab = {w: list(w) for w in word_counts}
    merges = []
    for _ in range(num_merges):
        pairs = Counter()
        for w, c in word_counts.items():
            syms = vocab[w]
            for i in range(len(syms) - 1):
                pairs[(syms[i], syms[i + 1])] += c
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        (l, r), cnt = best
        if cnt < min_count:
            break
        merges.append((l, r, l + r, cnt))
        for w in vocab:
            syms = vocab[w]
            out = []
            i = 0
            while i < len(syms):
                if i < len(syms) - 1 and syms[i] == l and syms[i + 1] == r:
                    out.append(l + r)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            vocab[w] = out
    return merges, vocab


CORPUS = [
    "the cat sat on the mat",
    "the cats sat on the mats",
    "low lower lowest low low",
    "newer newest new new newer",
    "aaaa aaa aa aaaa",
    "banana bandana ban banana",
]


def _word_counts(texts):
    c = Counter()
    for t in texts:
        c.update(t.split())
    return dict(c)


@pytest.mark.parametrize("num_parts", [1, 4])
def test_bpe_train_matches_reference(ray_session, num_parts, monkeypatch):
    # the word count merges through the hash exchange (a merge bound of 0
    # bytes) into num_parts partitions
    monkeypatch.setattr(R, "TREE_MAX_BYTES", 0)
    monkeypatch.setattr(R, "default_num_parts", lambda **_: num_parts)
    ds = rd.from_arrow(pa.table({"text": CORPUS})).repartition(3)
    got = bpe_train(ds, num_merges=12, min_count=2)
    exp, _ = ref_bpe_train(_word_counts(CORPUS), 12, 2)
    assert len(got) == len(exp)
    for i, (l, r, m, cnt) in enumerate(exp):
        assert got["left"][i].as_py() == l, (i, got.to_pydict())
        assert got["right"][i].as_py() == r
        assert got["merged"][i].as_py() == m
        assert got["pair_count"][i].as_py() == cnt


def test_merge_kernel_overlap_runs():
    # 'aaaa' with pair (a,a): leftmost non-overlap -> [aa, aa];
    # 'aaa' -> [aa, a]
    flat = np.array(list("aaaa") + list("aaa"), dtype=object)
    offsets = np.array([0, 4, 7], dtype=np.int64)
    nf, no = _merge_pair_kernel(flat, offsets, "a", "a", "aa")
    assert nf.tolist() == ["aa", "aa", "aa", "a"]
    assert no.tolist() == [0, 2, 4]


def test_merge_kernel_no_cross_word():
    # pair (b, c) split across word boundary must NOT merge
    flat = np.array(["a", "b", "c", "d"], dtype=object)
    offsets = np.array([0, 2, 4], dtype=np.int64)
    nf, no = _merge_pair_kernel(flat, offsets, "b", "c", "bc")
    assert nf.tolist() == ["a", "b", "c", "d"]
    assert no.tolist() == [0, 2, 4]


def test_encode_word_matches_sequential_merges():
    merges, vocab = ref_bpe_train(_word_counts(CORPUS), 12, 2)
    ranks = {(l, r): i for i, (l, r, _, _) in enumerate(merges)}
    # encoding with the min-rank loop must equal the trainer's final
    # symbol table for every trained word
    for w, syms in vocab.items():
        assert _encode_word(w, ranks) == syms, w


def test_bpe_encode_stage(ray_session):
    ds = rd.from_arrow(pa.table({"doc_id": list(range(len(CORPUS))),
                                 "text": CORPUS})).repartition(2)
    merges = bpe_train(ds, num_merges=12, min_count=2)
    out = to_arrow(bpe_encode(ds, merges, concurrency=(1, 2)))
    out = out.take(pa.compute.sort_indices(out["doc_id"]))
    _, vocab = ref_bpe_train(_word_counts(CORPUS), 12, 2)
    for i, text in enumerate(CORPUS):
        expect = [tok for w in text.split() for tok in vocab[w]]
        assert out["bpe_tokens"][i].as_py() == expect, text
        assert out["bpe_tokens_n"][i].as_py() == len(expect)
    # concat of tokens reconstructs the original words
    joined = ["".join(toks.as_py()) for toks in out["bpe_tokens"]]
    assert joined == ["".join(t.split()) for t in CORPUS]
