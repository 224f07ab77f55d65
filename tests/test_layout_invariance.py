"""Results must not change with block layout or partition count.

Every hash-partitioned operator runs under two block layouts of the same
rows — two int64 key blocks, and the same two blocks where the second also
holds one null key — and two num_parts, and must agree with DuckDB. Equal
keys meet only if the partition id depends on the key value alone, not on
a block's dtype or null mix. Every output block must also carry one
schema: an int64 key stays int64 in the partition that holds the null
key.
"""

import math
import os

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from gdal_ray.ops import relational as R
from gdal_ray.util import to_arrow

LAYOUTS = ["plain", "null_block"]
PARTS = [3, 16]


def _left_blocks(layout: str, keys: np.ndarray) -> list[pa.Table]:
    """keys split over two blocks; 'null_block' adds one null-key row to
    the second block."""
    lv = np.arange(len(keys), dtype=np.int64)
    half = len(keys) // 2
    b1 = pa.table({"k": pa.array(keys[:half], pa.int64()), "lv": lv[:half]})
    b2 = pa.table({"k": pa.array(keys[half:], pa.int64()), "lv": lv[half:]})
    if layout == "null_block":
        b2 = pa.concat_tables([b2, pa.table({
            "k": pa.array([None], pa.int64()),
            "lv": pa.array([len(keys)], pa.int64())})])
    return [b1, b2]


def _collect(ds) -> pa.Table:
    """The output rows, after checking that every output block carries one
    schema and that the key `k` is still int64. Ray's map operator turns
    an empty input block (an empty sort range of a groupby) into a
    zero-column block without calling the UDF; such blocks carry no schema
    at all and are the only ones skipped."""
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    schemas = [t.schema for t in tables]
    assert all(sc.equals(schemas[0]) for sc in schemas), schemas
    if "k" in schemas[0].names:
        assert schemas[0].field("k").type == pa.int64(), schemas[0]
    return pa.concat_tables(tables)


def _rows(t) -> list[tuple]:
    """Order-free, dtype-free row set: numbers as floats, null/NaN as None."""
    if not isinstance(t, pa.Table):
        t = pa.Table.from_pandas(t, preserve_index=False)
    cols = sorted(t.column_names)

    def norm(v):
        if v is None or (isinstance(v, float) and math.isnan(v)):
            return None
        return float(v) if isinstance(v, (int, float)) else v

    rows = [tuple(norm(r[c]) for c in cols) for r in t.to_pylist()]
    return sorted(rows, key=lambda r: [(x is None, x if x is not None else 0)
                                       for x in r])


def _duck(sql: str, **tables) -> list[tuple]:
    con = duckdb.connect()
    for name, t in tables.items():
        con.register(name, t)
    return _rows(con.execute(sql).arrow())


@pytest.mark.parametrize("num_parts", PARTS)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("how", ["inner", "left"])
def test_join_hash_layout_invariant(ray_session, layout, num_parts, how):
    blocks = _left_blocks(layout, np.arange(100))
    right = pa.table({"k": np.arange(100, dtype=np.int64),
                      "rv": np.arange(100, dtype=np.int64) * 10})
    got = _collect(R.join_hash(rd.from_arrow(blocks), rd.from_arrow(right),
                               ["k"], how=how, num_parts=num_parts))
    exp = _duck(f"SELECT l.k, l.lv, r.rv FROM l {how.upper()} JOIN r "
                "ON l.k = r.k", l=pa.concat_tables(blocks), r=right)
    assert len(got) == len(exp)
    assert _rows(got) == exp


@pytest.mark.parametrize("num_parts", PARTS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_anti_join_hash_layout_invariant(ray_session, layout, num_parts):
    blocks = _left_blocks(layout, np.arange(100))
    right = pa.table({"k": np.arange(0, 100, 2, dtype=np.int64)})
    got = _collect(R.semi_join_hash(rd.from_arrow(blocks),
                                    rd.from_arrow(right), ["k"], anti=True,
                                    num_parts=num_parts))
    exp = _duck("SELECT * FROM l WHERE NOT EXISTS "
                "(SELECT 1 FROM r WHERE r.k = l.k)",
                l=pa.concat_tables(blocks), r=right)
    assert _rows(got) == exp


@pytest.mark.parametrize("num_parts", PARTS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_first_by_and_distinct_hash_layout_invariant(ray_session, layout,
                                                     num_parts, monkeypatch):
    # every key appears in both blocks; a bound of 0 sends the partials
    # through the hash exchange, cut into num_parts partitions
    monkeypatch.setattr(R, "TREE_MAX_BYTES", 0)
    monkeypatch.setattr(R, "default_num_parts", lambda **_: num_parts)
    blocks = _left_blocks(layout, np.arange(100) % 50)
    ds = rd.from_arrow(blocks)
    whole = pa.concat_tables(blocks)
    got = _collect(R.first_by(ds, ["k"], ["lv"]))
    exp = _duck("SELECT k, min(lv) AS lv FROM l GROUP BY k", l=whole)
    assert _rows(got) == exp
    got = _collect(R.distinct(ds, ["k"]))
    assert _rows(got) == _duck("SELECT DISTINCT k FROM l", l=whole)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_sql_partition_by_layout_invariant(ray_session, layout):
    from gdal_ray.ops.sql import execute, register_table, unregister_table

    blocks = _left_blocks(layout, np.arange(100) % 50)
    sql = ("SELECT k, lv, ROW_NUMBER() OVER (PARTITION BY k ORDER BY lv) "
           "AS rn FROM li")
    register_table("li", rd.from_arrow(blocks))
    try:
        got = _collect(execute(sql, "."))
    finally:
        unregister_table("li")
    assert _rows(got) == _duck(sql, li=pa.concat_tables(blocks))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("op", ["rank_within", "rolling_agg", "budget_take"])
def test_window_reducers_layout_invariant(ray_session, layout, op):
    """The per-key window reducers, each against its SQL restatement."""
    blocks = _left_blocks(layout, np.arange(100) % 10)
    ds = rd.from_arrow(blocks)
    if op == "rank_within":
        got = R.rank_within(ds, by=["k"], order_by=[("lv", False)])
        sql = ("SELECT k, lv, ROW_NUMBER() OVER (PARTITION BY k ORDER BY lv)"
               " AS rn FROM l")
    elif op == "rolling_agg":
        got = R.rolling_agg(ds, by=["k"], on="lv", value="lv", window_us=25)
        w = "(PARTITION BY k ORDER BY lv RANGE BETWEEN 25 PRECEDING AND CURRENT ROW)"
        sql = (f"SELECT k, lv, SUM(lv) OVER {w} AS roll_sum, "
               f"COUNT(lv) OVER {w} AS roll_count FROM l")
    else:
        got = R.budget_take(ds, by=["k"], order_col="lv", weight_col="lv",
                            budget=120, cum_col="cum")
        sql = ("SELECT * FROM (SELECT k, lv, SUM(lv) OVER (PARTITION BY k "
               "ORDER BY lv ROWS UNBOUNDED PRECEDING) AS cum FROM l) "
               "WHERE cum <= 120")
    assert _rows(_collect(got)) == _duck(sql, l=pa.concat_tables(blocks))


def test_distinct_string_key_beside_null_key(ray_session):
    """A string key next to a key holding nulls, in one 1,000-row block:
    pyarrow 16.1's group_by returns duplicate groups for it past 32 rows."""
    i = np.arange(1000)
    t = pa.table({"s": pa.array(np.where(i % 2 == 0, "mid", "low")),
                  "k": pa.array(np.where(i % 5 == 0, None, i % 4)
                                .tolist(), pa.int64())})
    got = _collect(R.distinct(rd.from_arrow(t), ["s", "k"]))
    exp = _duck("SELECT DISTINCT s, k FROM t", t=t)
    assert len(exp) == 6
    assert _rows(got) == exp


def test_q160_values_join_with_hash_merge(ray_session, sf_dir, monkeypatch):
    """The oracle query q160 (a string key beside an int key, both with
    nulls) at sf0.01 with every keyed merge sent through the hash exchange
    (a merge bound of 0 bytes)."""
    from gdal_ray.pipelines.queries import registry

    sf_dir = os.path.join(os.path.dirname(sf_dir), "sf0.01")
    monkeypatch.setattr(R, "TREE_MAX_BYTES", 0)
    qs, sqls = registry()
    got = to_arrow(qs["q160_values_join"](sf_dir))
    con = duckdb.connect()
    con.execute("CREATE VIEW customer AS SELECT * FROM "
                f"read_parquet('{sf_dir}/customer.parquet')")
    exp = _rows(con.execute(sqls["q160_values_join"]).arrow())
    assert len(exp) == 8
    assert _rows(got) == exp
