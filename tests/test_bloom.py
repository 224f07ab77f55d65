"""Bloom filter: no false negatives, bounded FPR, exact hybrid joins."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from gdal_ray.ops.bloom import (bloom_build, bloom_contains, bloom_flag,
                                bloom_semi_join)
from gdal_ray.util import hash_column, sf_path, to_arrow


def test_bloom_no_false_negatives_and_fpr(ray_session):
    rng = np.random.RandomState(3)
    members = np.unique(rng.randint(0, 1 << 40, 20000))
    ds = rd.from_arrow(pa.table({"key": members})).repartition(7)
    bits = bloom_build(ds, "key", num_bits=1 << 18, k=6)
    t_mem = pa.table({"key": members})
    assert bloom_contains(bits, hash_column(t_mem["key"]), 6).all()
    # disjoint probe set -> every hit is a false positive
    probe = np.unique(rng.randint(1 << 41, 1 << 42, 30000))
    t_pr = pa.table({"key": probe})
    fpr = bloom_contains(bits, hash_column(t_pr["key"]), 6).mean()
    # theoretical ~ (1-exp(-kn/m))^k ~= 0.0075 at n=20k m=262144 k=6
    assert fpr < 0.03, fpr


def _fnv1a_loop(values) -> np.ndarray:
    """Scalar FNV-1a 64 per value (bytes as-is, anything else via str)."""
    out = np.empty(len(values), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i, v in enumerate(values):
            h = np.uint64(0xCBF29CE484222325)
            for b in (v if isinstance(v, bytes) else str(v).encode()):
                h = (h ^ np.uint64(b)) * np.uint64(0x100000001B3)
            out[i] = h
    return out


@pytest.mark.parametrize("arr", [
    pa.array(["a", "", None, "h\u00e9llo w\u00f6rld", "x" * 300]),
    pa.array(["", ""]),
    pa.array([None, None], pa.string()),
    pa.array(["skip", "ab", None], pa.large_string()).slice(1),
    pa.array([b"\x00\xff", None, b""], pa.binary()),
    pa.array([1.5, None, 1e20]),
    pa.array(["a", "b", None]).dictionary_encode(),
    pa.chunked_array([pa.array(["a", None]), pa.array(["bc"])]),
], ids=["str", "empty_strs", "all_null", "large_sliced", "binary", "float",
        "dict", "chunked"])
def test_hash_col_matches_scalar_fnv(arr):
    t = pa.table({"c": arr})
    assert np.array_equal(hash_column(t["c"]), _fnv1a_loop(t["c"].to_pylist()))


def test_bloom_flag_strings(ray_session, sf_dir):
    ds = rd.read_parquet(sf_path(sf_dir, "customer"),
                         columns=["c_mktsegment"])
    bits = bloom_build(ds, "c_mktsegment", num_bits=1 << 12, k=4)
    out = to_arrow(bloom_flag(ds, "c_mktsegment", bits, k=4))
    assert out["bloom_hit"].to_pandas().all()  # self-membership


@pytest.mark.parametrize("anti", [False, True])
def test_bloom_semi_join_exact(ray_session, sf_dir, anti):
    """Bloom-prefiltered semi/anti join == the plain hash-partitioned one."""
    from gdal_ray.ops.relational import semi_join_hash

    L = rd.read_parquet(sf_path(sf_dir, "orders"),
                        columns=["o_orderkey", "o_custkey"])
    R = rd.read_parquet(sf_path(sf_dir, "customer"),
                        columns=["c_custkey", "c_acctbal"]).map_batches(
        lambda t: t.filter(t["c_acctbal"].to_pandas().gt(5000).to_numpy())
        .select(["c_custkey"]).rename_columns(["o_custkey"]),
        batch_format="pyarrow", batch_size=None)
    got = to_arrow(bloom_semi_join(L, R, ["o_custkey"], anti=anti,
                                   num_bits=1 << 14)).to_pandas() \
        .sort_values(["o_orderkey"]).reset_index(drop=True)
    want = to_arrow(semi_join_hash(L, R, ["o_custkey"], anti=anti)) \
        .to_pandas().sort_values(["o_orderkey"]).reset_index(drop=True)
    assert got.equals(want)
