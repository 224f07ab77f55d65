"""Distributed Bloom filter: compact mergeable membership over a huge key
column (classic Bloom 1970; double hashing per Kirsch & Mitzenmacher 2006,
both public).

Why it earns its place next to the exact broadcast probes (decontam's
sorted-hash set) and the hash-partitioned semi joins: at 100-TB scale the
right-side key set of a semi/anti join can be billions of keys — too big to
broadcast raw (8 B/key) but fine as a Bloom bitset (~10 bits/key at 1%
FPR). The filter has NO false negatives, so it is a safe PREFILTER: rows
the bloom rejects are definitely non-members; only the bloom-POSITIVE
fraction enters the exact hash-partitioned join. The wide shuffle then
carries fpr·N + |matches| rows instead of N.

Build is mergeable: per-batch sparse (word_idx, word) pairs, OR-merged by
a tree reduce; only nonzero words travel. At extreme filter sizes shard
the bitset by word range with hash_partition_reduce — documented, not
needed below ~2^30 bits (128 MiB broadcast).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from gdal_ray.util import hash_column


def _positions(h: np.ndarray, num_bits: int, k: int) -> np.ndarray:
    """k bit positions per key via double hashing: g_i = h1 + i*h2."""
    h1 = h
    h2 = (h >> np.uint64(17)) | np.uint64(1)  # odd -> full-period stride
    i = np.arange(k, dtype=np.uint64)[:, None]
    with np.errstate(over="ignore"):
        g = h1[None, :] + i * h2[None, :]
    return (g % np.uint64(num_bits)).astype(np.int64).ravel()


def _set_bits(pos: np.ndarray, num_words: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse (word_idx, word) pairs for the given bit positions."""
    wi = pos >> 6
    bit = np.uint64(1) << (pos & 63).astype(np.uint64)
    order = np.argsort(wi, kind="mergesort")
    wi, bit = wi[order], bit[order]
    new = np.ones(wi.size, bool)
    new[1:] = wi[1:] != wi[:-1]
    starts = np.nonzero(new)[0]
    words = np.bitwise_or.reduceat(bit, starts) if wi.size else \
        np.empty(0, np.uint64)
    return wi[new], words


def bloom_build(ds, col: str, *, num_bits: int = 1 << 23, k: int = 6) -> np.ndarray:
    """Build the uint64-word bitset from a Dataset column. Per batch only
    the nonzero (word_idx, word) pairs are emitted (at most num_bits/64,
    typically far sparser); tree_reduce ORs them down to one table of
    words, scattered here into the returned bitset. An empty Dataset gives
    an all-zero bitset."""
    num_words = (num_bits + 63) >> 6

    def partial(t: pa.Table) -> pa.Table:
        h = hash_column(t[col])
        wi, w = _set_bits(_positions(h, num_bits, k), num_words)
        return pa.table({"wi": pa.array(wi, pa.int64()),
                         "w": pa.array(w, pa.uint64())})

    def or_merge(t: pa.Table) -> pa.Table:
        wi = t["wi"].to_numpy(zero_copy_only=False)
        w = t["w"].to_numpy(zero_copy_only=False)
        order = np.argsort(wi, kind="mergesort")
        wi, w = wi[order], w[order]
        new = np.ones(wi.size, bool)
        new[1:] = wi[1:] != wi[:-1]
        starts = np.nonzero(new)[0]
        words = np.bitwise_or.reduceat(w, starts) if wi.size else \
            np.empty(0, np.uint64)
        return pa.table({"wi": pa.array(wi[new], pa.int64()),
                         "w": pa.array(words, pa.uint64())})

    from gdal_ray.ops.relational import tree_reduce
    from gdal_ray.util import to_arrow

    final = to_arrow(tree_reduce(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None),
        or_merge))
    bits = np.zeros(num_words, np.uint64)
    if final.num_rows:  # an empty input leaves no partial, so no columns
        bits[final["wi"].to_numpy(zero_copy_only=False)] = \
            final["w"].to_numpy(zero_copy_only=False)
    return bits


def bloom_contains(bits: np.ndarray, h: np.ndarray, k: int) -> np.ndarray:
    """Vectorized membership probe of hashed keys against the bitset."""
    num_bits = bits.size << 6
    pos = _positions(h, num_bits, k).reshape(k, -1)
    ok = np.ones(h.size, bool)
    for row in pos:  # k is tiny; each row fully vectorized
        ok &= (bits[row >> 6] >> (row & 63).astype(np.uint64)) \
            & np.uint64(1) != 0
    return ok


def bloom_flag(ds, col: str, bits: np.ndarray, *, k: int = 6,
               out: str = "bloom_hit"):
    """Add a boolean maybe-member column; the bitset is ray.put once and
    read zero-copy per task, never re-shipped per batch."""
    import ray

    ref = ray.put(bits)

    def f(t: pa.Table) -> pa.Table:
        b = ray.get(ref)
        return t.append_column(out, pa.array(
            bloom_contains(b, hash_column(t[col]), k)))

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def bloom_semi_join(ds, right_ds, keys, *, anti: bool = False,
                    num_bits: int = 1 << 23, k: int = 6,
                    num_parts: int | None = None):
    """EXACT semi/anti join with a Bloom prefilter: bloom-negative rows
    are resolved locally with zero shuffle (definite non-members — dropped
    for semi, kept for anti); only the bloom-positive fraction enters the
    exact hash-partitioned semi/anti join. Output == semi_join_hash, but
    the wide shuffle carries ~fpr·N + |matches| rows instead of N.
    Single-key only (the bitset hashes one column)."""
    from gdal_ray.ops.relational import semi_join_hash, union_all

    (key,) = list(keys)
    bits = bloom_build(right_ds, key, num_bits=num_bits, k=k)
    import ray

    ref = ray.put(bits)

    def split(t: pa.Table, keep_hit: bool) -> pa.Table:
        b = ray.get(ref)
        hit = bloom_contains(b, hash_column(t[key]), k)
        return t.filter(pa.array(hit if keep_hit else ~hit))

    maybe = ds.map_batches(lambda t: split(t, True),
                           batch_format="pyarrow", batch_size=None)
    resolved = semi_join_hash(maybe, right_ds, [key], anti=anti,
                              num_parts=num_parts)
    if not anti:
        return resolved
    definite = ds.map_batches(lambda t: split(t, False),
                              batch_format="pyarrow", batch_size=None)
    return union_all(definite, resolved)
