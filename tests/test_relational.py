"""Relational operator layer vs DuckDB on the same parquet (sf0.001)."""

import duckdb
import pyarrow.compute as pc
import pytest

from gdal_ray.ops import relational as R
from gdal_ray.util import read_table, sf_path, to_arrow


@pytest.fixture(scope="module")
def con(sf_dir):
    con = duckdb.connect()
    for t in ["lineitem", "orders", "customer", "nation", "part", "events"]:
        con.execute(
            f"create view {t} as select * from read_parquet('{sf_path(sf_dir, t)}')"
        )
    return con


def _sorted_df(t, by):
    return t.to_pandas().sort_values(by).reset_index(drop=True)


def test_groupby_agg(sf_dir, con):
    ds = read_table(sf_dir, "lineitem", columns=["l_returnflag", "l_quantity", "l_extendedprice"])
    out = R.groupby_agg(
        ds,
        ["l_returnflag"],
        [
            ("sum_qty", "sum", "l_quantity"),
            ("n", "count_star", None),
            ("avg_price", "mean", "l_extendedprice"),
            ("min_qty", "min", "l_quantity"),
            ("max_qty", "max", "l_quantity"),
            ("std_qty", "std", "l_quantity"),
        ],
        round_to={"sum_qty": 4, "avg_price": 4, "std_qty": 4},
    )
    got = _sorted_df(to_arrow(out), "l_returnflag")
    exp = con.execute(
        """select l_returnflag, round(sum(l_quantity),4) sum_qty,
                  count(*) n, round(avg(l_extendedprice),4) avg_price,
                  min(l_quantity) min_qty, max(l_quantity) max_qty,
                  round(stddev_samp(l_quantity),4) std_qty
           from lineitem group by 1 order by 1"""
    ).df()
    assert got["sum_qty"].tolist() == exp["sum_qty"].tolist()
    assert got["n"].tolist() == exp["n"].tolist()
    assert got["avg_price"].tolist() == exp["avg_price"].tolist()
    assert got["std_qty"].tolist() == exp["std_qty"].tolist()


def test_global_agg(sf_dir, con):
    ds = read_table(sf_dir, "lineitem", columns=["l_quantity"])
    out = R.groupby_agg(
        ds,
        [],
        [("s", "sum", "l_quantity"), ("n", "count_star", None), ("m", "mean", "l_quantity")],
        round_to={"s": 4, "m": 6},
    )
    got = to_arrow(out).to_pandas()
    exp = con.execute(
        "select round(sum(l_quantity),4) s, count(*) n, round(avg(l_quantity),6) m from lineitem"
    ).df()
    assert len(got) == 1
    assert got["s"][0] == exp["s"][0]
    assert int(got["n"][0]) == int(exp["n"][0])
    assert got["m"][0] == exp["m"][0]


def test_topk(sf_dir, con):
    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    out = R.topk(ds, [("o_totalprice", True), ("o_orderkey", False)], 15)
    got = to_arrow(out).to_pandas()
    exp = con.execute(
        "select o_orderkey, o_totalprice from orders order by o_totalprice desc, o_orderkey limit 15"
    ).df()
    assert got["o_orderkey"].tolist() == exp["o_orderkey"].tolist()


def test_distinct_and_count_distinct(sf_dir, con):
    ds = read_table(sf_dir, "customer", columns=["c_mktsegment"])
    got = sorted(to_arrow(R.distinct(ds, ["c_mktsegment"]))["c_mktsegment"].to_pylist())
    exp = sorted(
        x[0] for x in con.execute("select distinct c_mktsegment from customer").fetchall()
    )
    assert got == exp
    ds2 = read_table(sf_dir, "lineitem", columns=["l_partkey"])
    n = R.count_distinct(ds2, "l_partkey")
    assert n == con.execute("select count(distinct l_partkey) from lineitem").fetchone()[0]


@pytest.mark.parametrize("layout", ["one_block", "two_blocks"])
def test_signed_zero_float_keys_group_as_one(layout):
    """-0.0 and 0.0 are one group, as in DuckDB's GROUP BY / DISTINCT."""
    import pyarrow as pa
    import ray.data as rd

    blocks = [pa.table({"x": pa.array([0.0, 1.0, None, -0.0], pa.float64()),
                        "y": pa.array([-0.0, 2.5, 0.0, 0.0], pa.float32()),
                        "s": ["a", "b", "a", "a"]}),
              pa.table({"x": pa.array([-0.0, 1.0, 0.0], pa.float64()),
                        "y": pa.array([0.0, 2.5, -0.0], pa.float32()),
                        "s": ["a", "b", "a"]})]
    whole = pa.concat_tables(blocks)
    ds = rd.from_arrow(blocks if layout == "two_blocks" else [whole])
    con = duckdb.connect()
    con.register("t", whole)

    def rows(tbl, cols):  # sorted with -0.0 == 0.0 and nulls last
        return sorted(zip(*(tbl[c].to_pylist() for c in cols)),
                      key=lambda r: tuple((v is None, v) for v in r))

    def expect(sql, cols):
        got = con.execute(sql).fetch_arrow_table()
        return rows(got.rename_columns(cols), cols)

    for keys in (["x"], ["y"], ["x", "s"], ["x", "y", "s"]):
        k = ", ".join(keys)
        exp = expect(f"SELECT {k}, COUNT(*) AS n FROM t GROUP BY {k}", keys + ["n"])
        for merge in ("tree", "hash"):
            got = to_arrow(R.groupby_agg(ds, keys, [("n", "count_star", None)], merge=merge))
            assert rows(got, keys + ["n"]) == exp, (keys, merge)
        exp = expect(f"SELECT DISTINCT {k} FROM t", keys)
        for merge in ("tree", "hash"):
            assert rows(to_arrow(R.distinct(ds, keys, merge=merge)), keys) == exp, (keys, merge)


def test_signed_zero_and_nan_float_keys_match_as_in_sql():
    """Key matches (is_in, semi/anti joins, SQL IN / NOT EXISTS, a
    first-match broadcast join) treat -0.0 as 0.0 and every NaN as one
    value on both sides, as DuckDB does; pyarrow compares by bits."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from gdal_ray.ops.sql import execute, register_table, unregister_table

    nan2 = float(np.array([0x7FF8000000000001], np.uint64).view(np.float64)[0])
    left = pa.table({"x": pa.array([0.0, -0.0, 1.0, 2.0, float("nan"), nan2,
                                    None, -0.0], pa.float64()),
                     "s": ["a", "a", "b", "a", "a", "a", "a", "b"],
                     "lv": list(range(8))})
    rights = {"pos": [0.0], "neg": [-0.0], "both": [-0.0, 0.0, 1.0],
              "nan": [nan2, 2.0]}
    con = duckdb.connect()
    con.register("l", left)

    def lvs(tbl):
        return sorted(tbl["lv"].to_pylist())

    for name, xs in rights.items():
        right = pa.table({"x": pa.array(xs, pa.float64()), "s": ["a"] * len(xs),
                          "rv": list(range(len(xs)))})
        con.register("r", right)
        for anti in (False, True):
            neg = "NOT " if anti else ""
            for keys in (["x"], ["x", "s"]):
                on = " AND ".join(f"r.{k} = l.{k}" for k in keys)
                exp = sorted(r[0] for r in con.execute(
                    f"SELECT lv FROM l WHERE {neg}EXISTS "
                    f"(SELECT 1 FROM r WHERE {on})").fetchall())
                got = R.semi_join_hash(rd.from_arrow(left), rd.from_arrow(right),
                                       keys, anti=anti, num_parts=3)
                assert lvs(to_arrow(got)) == exp, (name, anti, keys, "hash")
                got = R.semi_anti_join(rd.from_arrow(left), keys,
                                       right.select(keys), anti=anti)
                assert lvs(to_arrow(got)) == exp, (name, anti, keys, "broadcast")
        register_table("l", rd.from_arrow(left))
        register_table("r", rd.from_arrow(right))
        try:
            for sql in ("SELECT lv FROM l WHERE x IN (SELECT x FROM r)",
                        "SELECT lv FROM l WHERE x NOT IN (SELECT x FROM r)"):
                exp = sorted(r[0] for r in con.execute(sql).fetchall())
                assert lvs(to_arrow(execute(sql, "."))) == exp, (name, sql)
        finally:
            unregister_table("l")
            unregister_table("r")
        exp = sorted(con.execute(
            "SELECT l.lv, r.rv FROM l LEFT JOIN (SELECT x, min(rv) AS rv "
            "FROM r GROUP BY x) r ON l.x = r.x").fetchall())
        got = to_arrow(R.broadcast_join(rd.from_arrow(left), right.select(["x", "rv"]),
                                        ["x"], how="left", first_match_order=["rv"]))
        assert sorted(zip(got["lv"].to_pylist(), got["rv"].to_pylist())) == exp, name


def test_cross_join_rejects_colliding_columns():
    import pyarrow as pa
    import ray.data as rd

    left = rd.from_arrow(pa.table({"a": [1, 2], "x": [10, 20]}))
    # raised inside the map task, so Ray re-raises it wrapped
    with pytest.raises(Exception, match=r"column names on both sides: \['x'\]"):
        to_arrow(R.cross_join(left, pa.table({"x": [7], "b": [8]})))
    out = to_arrow(R.cross_join(left, pa.table({"b": [7, 8]})))
    assert out.column_names == ["a", "x", "b"]
    assert sorted(zip(out["a"].to_pylist(), out["b"].to_pylist())) == [
        (1, 7), (1, 8), (2, 7), (2, 8)]


def test_broadcast_join(sf_dir, con):
    import pyarrow.parquet as pq

    ds = read_table(sf_dir, "customer", columns=["c_custkey", "c_name", "c_nationkey"])
    nation = pq.read_table(sf_path(sf_dir, "nation"))
    out = R.broadcast_join(ds, nation, keys=["c_nationkey"], right_keys=["n_nationkey"], how="left")
    got = _sorted_df(to_arrow(out), "c_custkey")
    exp = con.execute(
        """select c_custkey, c_name, c_nationkey, n_nationkey, n_name, n_regionkey
           from customer left join nation on c_nationkey=n_nationkey order by c_custkey"""
    ).df()
    assert got["n_name"].tolist() == exp["n_name"].tolist()


def test_explode_list(sf_dir):
    import ray.data as rd

    ds = rd.read_parquet(sf_path(sf_dir, "embeddings"))
    ds = ds.map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], 3)), batch_format="pyarrow"
    )
    out = to_arrow(
        R.explode_list(ds, "embedding", value_name="val", pos_name="pos", keep=["vec_id"])
    )
    assert out.num_rows == 3 * 64
    df = out.to_pandas()
    assert df[df.vec_id == 0]["pos"].tolist() == list(range(1, 65))


def test_first_by(sf_dir, con):
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    out = R.first_by(ds, ["user_id"], ["ts", "event_id"])
    got = _sorted_df(to_arrow(out), "user_id")
    exp = con.execute(
        """select event_id, user_id, ts from
             (select *, row_number() over (partition by user_id order by ts, event_id) rn
              from events) where rn=1 order by user_id"""
    ).df()
    assert got["event_id"].tolist() == exp["event_id"].tolist()


def test_first_by_hash_merge_matches_tree(sf_dir):
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    tree = _sorted_df(to_arrow(R.first_by(ds, ["user_id"], ["ts", "event_id"])), "user_id")
    hashed = _sorted_df(
        to_arrow(R.first_by(ds, ["user_id"], ["ts", "event_id"], merge="hash", num_parts=7)),
        "user_id",
    )
    assert tree["event_id"].tolist() == hashed["event_id"].tolist()
    assert tree["user_id"].tolist() == hashed["user_id"].tolist()


def test_distinct_hash_merge_matches_tree(sf_dir):
    ds = read_table(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus"])
    tree = to_arrow(R.distinct(ds, ["l_returnflag", "l_linestatus"])).to_pandas()
    hashed = to_arrow(
        R.distinct(ds, ["l_returnflag", "l_linestatus"], merge="hash", num_parts=5)
    ).to_pandas()
    key = lambda df: sorted(map(tuple, df.to_numpy().tolist()))
    assert key(tree) == key(hashed)


def test_groupby_agg_hash_merge(sf_dir, con):
    ds = read_table(sf_dir, "lineitem", columns=["l_returnflag", "l_quantity"])
    out = R.groupby_agg(
        ds, ["l_returnflag"],
        [("sum_qty", "sum", "l_quantity"), ("n", "count_star", None)],
        round_to={"sum_qty": 4}, merge="hash",
    )
    got = _sorted_df(to_arrow(out), "l_returnflag")
    exp = con.execute(
        "select l_returnflag, round(sum(l_quantity),4) sum_qty, count(*) n "
        "from lineitem group by 1 order by 1"
    ).df()
    assert got["l_returnflag"].tolist() == exp["l_returnflag"].tolist()
    assert got["sum_qty"].tolist() == exp["sum_qty"].tolist()
    assert got["n"].tolist() == exp["n"].tolist()


def test_groupby_agg_unknown_merge_raises():
    # the merge mode is checked before the input is touched
    with pytest.raises(ValueError, match="merge"):
        R.groupby_agg(None, ["k"], [("n", "count_star", None)], merge="shuffle")


def test_std_large_mean_welford():
    """mean ~ 1e9, std ~ 1: the naive E[x^2]-E[x]^2 formula cancels
    catastrophically (double has ~1e-16 relative precision; x^2 ~ 1e18
    swallows a variance of 1). The Welford partial merge must hold <1e-6
    relative error across multi-block merges (both tree and hash)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    rng = np.random.RandomState(7)
    n = 40_000
    base = 1e9
    x = base + rng.standard_normal(n)
    grp = rng.randint(0, 3, size=n)
    # many small blocks -> many partials per key -> exercises the merge
    tables = [
        pa.table({"g": pa.array(grp[i:i + 1000]), "x": pa.array(x[i:i + 1000])})
        for i in range(0, n, 1000)
    ]
    ds = rd.from_arrow(tables)
    for merge in ("tree", "hash"):
        out = to_arrow(R.groupby_agg(
            ds, ["g"], [("sd", "std", "x"), ("mu", "mean", "x")], merge=merge,
        )).to_pandas().sort_values("g").reset_index(drop=True)
        for g in range(3):
            ref_sd = np.std(x[grp == g], ddof=1)
            ref_mu = np.mean(x[grp == g])
            got_sd = out.loc[out["g"] == g, "sd"].iloc[0]
            got_mu = out.loc[out["g"] == g, "mu"].iloc[0]
            assert abs(got_sd - ref_sd) / ref_sd < 1e-6, (merge, g, got_sd, ref_sd)
            assert abs(got_mu - ref_mu) < 1e-3, (merge, g, got_mu, ref_mu)


def test_std_with_nulls_and_single_row_groups(sf_dir, con):
    """STDDEV over a column with NULLs + groups of size 1 (NULL stddev)."""
    import pyarrow as pa
    import ray.data as rd

    t = pa.table({
        "g": pa.array(["a", "a", "a", "b", "c", "c"]),
        "x": pa.array([1.0, None, 3.0, 5.0, None, None], pa.float64()),
    })
    out = to_arrow(R.groupby_agg(
        rd.from_arrow([t.slice(0, 3), t.slice(3)]), ["g"],
        [("sd", "std", "x"), ("n", "count", "x")],
    )).to_pandas().sort_values("g").reset_index(drop=True)
    exp = duckdb.sql(
        "select g, stddev_samp(x) sd, count(x) n from t group by g order by g"
    ).df()
    assert out["n"].tolist() == exp["n"].tolist()
    import numpy as np
    for a, b in zip(out["sd"], exp["sd"]):
        assert (np.isnan(a) and (b is None or np.isnan(b))) or abs(a - b) < 1e-12


def test_asof_join_directions_and_misses():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    left = pa.table({
        "k": pa.array([1, 1, 1, 2, 3], pa.int64()),
        "t": pa.array([5.0, 15.0, 25.0, 8.0, 1.0]),
    })
    right = pa.table({
        "k": pa.array([1, 1, 2], pa.int64()),
        "t": pa.array([10.0, 20.0, 8.0]),
        "v": pa.array([100.0, 200.0, 300.0]),
    })
    lds = rd.from_arrow([left.slice(0, 3), left.slice(3)])
    rds = rd.from_arrow(right)
    back = to_arrow(R.asof_join(lds, rds, on="t", by=["k"], num_parts=8)) \
        .to_pandas().sort_values(["k", "t"]).reset_index(drop=True)
    # k=1: t=5 -> no match; t=15 -> 100; t=25 -> 200; k=2 t=8 -> 300 (<=)
    assert np.isnan(back.loc[0, "v"])
    assert back.loc[1, "v"] == 100.0 and back.loc[2, "v"] == 200.0
    assert back.loc[3, "v"] == 300.0
    assert np.isnan(back.loc[4, "v"])  # k=3: no right rows
    fwd = to_arrow(R.asof_join(lds, rds, on="t", by=["k"],
                               direction="forward", num_parts=8)) \
        .to_pandas().sort_values(["k", "t"]).reset_index(drop=True)
    assert fwd.loc[0, "v"] == 100.0   # t=5 -> next is 10
    assert np.isnan(fwd.loc[2, "v"])  # t=25 -> nothing after


def test_rolling_agg_window_edges_and_minmax():
    """Closed-interval window semantics (a row exactly window earlier is
    included, matching SQL RANGE PRECEDING) + min/max fallback path."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    us = 1_000_000
    t = pa.table({
        "k": pa.array([1, 1, 1, 1], pa.int64()),
        "ts": pa.array([0, 5 * us, 10 * us, 16 * us], pa.timestamp("us")),
        "v": pa.array([10.0, 20.0, 40.0, 5.0]),
    })
    out = to_arrow(R.rolling_agg(
        rd.from_arrow(t), by=["k"], on="ts", value="v",
        window_us=5 * us, aggs=("sum", "count", "min", "max"), num_parts=8,
    )).to_pandas().sort_values("ts").reset_index(drop=True)
    # ts=5s window [0s, 5s] INCLUDES the 0s row (closed interval)
    assert out.loc[1, "roll_sum"] == 30.0 and out.loc[1, "roll_count"] == 2
    assert out.loc[2, "roll_sum"] == 60.0   # [5s,10s]: 20+40
    assert out.loc[3, "roll_sum"] == 5.0    # [11s,16s]: alone
    assert out.loc[2, "roll_min"] == 20.0 and out.loc[2, "roll_max"] == 40.0


def test_hash_sample_deterministic_and_rate():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    t = pa.table({"id": pa.array(np.arange(20_000), pa.int64())})
    ds = rd.from_arrow([t.slice(0, 10_000), t.slice(10_000)])
    a = to_arrow(R.hash_sample(ds, "id", 10)).to_pandas()["id"]
    b = to_arrow(R.hash_sample(ds, "id", 10)).to_pandas()["id"]
    assert sorted(a) == sorted(b)                # deterministic
    assert 0.08 < len(a) / 20_000 < 0.12         # ~10%
    # monotone: the 10% sample is a subset of the 20% sample
    c = to_arrow(R.hash_sample(ds, "id", 20)).to_pandas()["id"]
    assert set(a) <= set(c)


def test_stratified_sample_k_per_key():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    rng = np.random.RandomState(2)
    t = pa.table({"k": pa.array(rng.randint(0, 7, 500), pa.int64()),
                  "v": pa.array(np.arange(500), pa.int64())})
    out = to_arrow(R.stratified_sample(
        rd.from_arrow(t), by=["k"], k=4, order_col="v", num_parts=8)).to_pandas()
    g = out.groupby("k")["v"].agg(["count", "min"])
    assert (g["count"] <= 4).all()
    # keeps the SMALLEST order values per key
    df = t.to_pandas()
    for k, row in g.iterrows():
        expect = sorted(df[df["k"] == k]["v"])[:4]
        got = sorted(out[out["k"] == k]["v"])
        assert got == expect


def test_asof_join_preserves_types_and_strings():
    """ADVICE r3: string/int payload columns on either side must keep their
    Arrow types (no float64 coercion, no crash)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    left = pa.table({
        "k": pa.array([1, 1, 2], pa.int64()),
        "t": pa.array([15, 25, 8], pa.int64()),
        "tag": pa.array(["a", "b", "c"]),           # left string payload
    })
    right = pa.table({
        "k": pa.array([1, 1, 2], pa.int64()),
        "t": pa.array([10, 20, 8], pa.int64()),
        "name": pa.array(["x", "y", "z"]),          # right string payload
        "big": pa.array([2**60 + 1, 2**60 + 2, 7], pa.int64()),
    })
    out = to_arrow(R.asof_join(rd.from_arrow(left), rd.from_arrow(right),
                               on="t", by=["k"], num_parts=4))
    assert out.schema.field("tag").type == pa.string()
    assert out.schema.field("name").type == pa.string()
    assert out.schema.field("big").type == pa.int64()
    df = out.to_pandas().sort_values(["k", "t"]).reset_index(drop=True)
    assert df.loc[0, "name"] == "x" and df.loc[0, "big"] == 2**60 + 1
    assert df.loc[1, "name"] == "y" and df.loc[1, "big"] == 2**60 + 2
    assert df.loc[2, "name"] == "z"
    assert df["tag"].tolist() == ["a", "b", "c"]
    # no-match row -> typed nulls, not NaN-coerced values
    left2 = pa.table({"k": pa.array([9], pa.int64()),
                      "t": pa.array([1], pa.int64()),
                      "tag": pa.array(["q"])})
    out2 = to_arrow(R.asof_join(rd.from_arrow(left2), rd.from_arrow(right),
                                on="t", by=["k"], num_parts=4))
    assert out2["name"][0].as_py() is None
    assert out2["big"][0].as_py() is None
    assert out2.schema.field("big").type == pa.int64()


def test_rolling_agg_null_values_skipped():
    """ADVICE r3: NULL values must not poison later windows; count counts
    non-null values (SQL COUNT(value) semantics)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    us = 1_000_000
    t = pa.table({
        "k": pa.array([1] * 5, pa.int64()),
        "ts": pa.array([0, 1 * us, 2 * us, 3 * us, 4 * us], pa.timestamp("us")),
        "v": pa.array([10.0, None, 40.0, None, 2.0], pa.float64()),
    })
    out = to_arrow(R.rolling_agg(
        rd.from_arrow(t), by=["k"], on="ts", value="v",
        window_us=2 * us, aggs=("sum", "count", "mean", "min", "max"),
        num_parts=4,
    )).to_pandas().sort_values("ts").reset_index(drop=True)
    # window [0,2]: 10,NULL,40 -> sum 50, count 2, min 10, max 40
    assert out.loc[2, "roll_sum"] == 50.0 and out.loc[2, "roll_count"] == 2
    assert out.loc[2, "roll_min"] == 10.0 and out.loc[2, "roll_max"] == 40.0
    # window [2,4]: 40,NULL,2 -> NULL at ts=3 did NOT poison this window
    assert out.loc[4, "roll_sum"] == 42.0 and out.loc[4, "roll_count"] == 2
    # window [1,3]: NULL,40,NULL -> sum 40 (not NaN), count 1
    assert out.loc[3, "roll_sum"] == 40.0 and out.loc[3, "roll_count"] == 1


def test_rolling_minmax_matches_bruteforce():
    """Sparse-table range-min/max vs per-row brute force on random data."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    rng = np.random.RandomState(11)
    n = 800
    ts = np.sort(rng.randint(0, 3000, n)).astype("int64") * 1_000_000
    v = rng.uniform(-50, 50, n)
    k = rng.randint(0, 3, n)
    t = pa.table({"k": pa.array(k, pa.int64()),
                  "ts": pa.array(ts, pa.timestamp("us")),
                  "v": pa.array(v)})
    w = 40 * 1_000_000
    out = to_arrow(R.rolling_agg(
        rd.from_arrow([t.slice(0, 400), t.slice(400)]), by=["k"], on="ts",
        value="v", window_us=w, aggs=("min", "max", "sum"), num_parts=8,
    )).to_pandas().sort_values(["k", "ts"], kind="mergesort").reset_index(drop=True)
    df = pd.DataFrame({"k": k, "ts": ts, "v": v}).sort_values(
        ["k", "ts"], kind="mergesort").reset_index(drop=True)
    for i in range(len(df)):
        m = (df["k"] == df.loc[i, "k"]) & (df["ts"] >= df.loc[i, "ts"] - w) \
            & (df["ts"] <= df.loc[i, "ts"])
        assert abs(out.loc[i, "roll_min"] - df.loc[m, "v"].min()) < 1e-12
        assert abs(out.loc[i, "roll_max"] - df.loc[m, "v"].max()) < 1e-12
        assert abs(out.loc[i, "roll_sum"] - df.loc[m, "v"].sum()) < 1e-9


def test_budget_take_vs_pandas(ray_session):
    """Per-key running-total truncation == pandas groupby cumsum filter,
    including the boundary row that exactly hits the budget."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.ops.relational import budget_take
    from gdal_ray.util import to_arrow

    rng = np.random.RandomState(7)
    n = 500
    df = pd.DataFrame({
        "k": rng.randint(0, 9, n).astype(str),
        "o": rng.permutation(n),
        "w": rng.randint(1, 50, n),
    })
    ds = rd.from_arrow(pa.Table.from_pandas(df)).repartition(7)
    got = to_arrow(budget_take(ds, by=["k"], order_col="o", weight_col="w",
                               budget=100, cum_col="cum")) \
        .to_pandas().sort_values(["k", "o"]).reset_index(drop=True)

    want = df.sort_values(["k", "o"]).copy()
    want["cum"] = want.groupby("k")["w"].cumsum()
    want = want[want["cum"] <= 100].reset_index(drop=True)
    assert len(got) == len(want)
    assert (got["o"].to_numpy() == want["o"].to_numpy()).all()
    assert (got["cum"].to_numpy() == want["cum"].to_numpy()).all()
    # at least one key actually truncated
    assert len(want) < n


def test_semi_join_hash_vs_broadcast(ray_session):
    """Big-big co-partitioned semi/anti join == the broadcast variant."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.ops.relational import semi_anti_join, semi_join_hash
    from gdal_ray.util import to_arrow

    rng = np.random.RandomState(5)
    left = pa.table({"k": rng.randint(0, 200, 1000),
                     "v": rng.standard_normal(1000)})
    right_keys = np.unique(rng.randint(0, 200, 80))
    lds = rd.from_arrow(left).repartition(6)
    rds = rd.from_arrow(pa.table({"k": right_keys})).repartition(3)

    for anti in (False, True):
        got = to_arrow(semi_join_hash(lds, rds, ["k"], anti=anti)) \
            .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        want = to_arrow(semi_anti_join(lds, ["k"], right_keys.tolist(),
                                       anti=anti)) \
            .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        assert len(got) == len(want)
        assert (got["k"].to_numpy() == want["k"].to_numpy()).all()
        assert np.allclose(got["v"].to_numpy(), want["v"].to_numpy())


def test_groupby_string_agg_vs_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.ops.relational import groupby_string_agg
    from gdal_ray.util import to_arrow

    rng = np.random.RandomState(2)
    n = 300
    df = pd.DataFrame({"k": rng.randint(0, 5, n).astype(str),
                       "v": [f"x{i}" for i in range(n)],
                       "o": rng.permutation(n)})
    ds = rd.from_arrow(pa.Table.from_pandas(df)).repartition(4)
    got = to_arrow(groupby_string_agg(ds, ["k"], "v", "o", sep=";",
                                      out="agg")).to_pandas() \
        .set_index("k")["agg"].to_dict()
    want = df.sort_values(["k", "o"]).groupby("k")["v"] \
        .agg(lambda s: ";".join(s)).to_dict()
    assert got == want


def test_session_windows_vs_pandas(ray_session):
    """Vectorized sessionizer == per-user pandas brute force (gap
    boundary, per-key 0-based session ids, sums)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.ops.relational import session_windows
    from gdal_ray.util import to_arrow

    rng = np.random.RandomState(8)
    n = 600
    df = pd.DataFrame({
        "u": rng.randint(0, 12, n),
        "e": np.arange(n),
        "ts": pd.Timestamp("2026-01-01")
        + pd.to_timedelta(rng.randint(0, 3 * 24 * 3600, n), unit="s"),
        "v": rng.standard_normal(n),
    })
    ds = rd.from_arrow(pa.Table.from_pandas(df)).repartition(5)
    got = to_arrow(session_windows(ds, by="u", ts_col="ts", gap="1h",
                                   order_cols=["e"], sum_col="v")) \
        .to_pandas().sort_values(["u", "session_id"]).reset_index(drop=True)

    rows = []
    for u, g in df.sort_values(["ts", "e"]).groupby("u"):
        sid = (g["ts"].diff() > pd.Timedelta("1h")).cumsum()
        for s, gg in g.groupby(sid):
            rows.append((u, int(s), len(gg), gg["ts"].min(),
                         gg["ts"].max(), gg["v"].sum()))
    want = pd.DataFrame(rows, columns=["u", "session_id", "n_events",
                                       "t_start", "t_end", "sum_v"]) \
        .sort_values(["u", "session_id"]).reset_index(drop=True)
    assert len(got) == len(want)
    for c in ("u", "session_id", "n_events"):
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c
    assert (got["t_start"].to_numpy() == want["t_start"].to_numpy()).all()
    assert (got["t_end"].to_numpy() == want["t_end"].to_numpy()).all()
    assert np.allclose(got["sum_v"].to_numpy(), want["sum_v"].to_numpy())


def test_funnel_steps_vs_bruteforce(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.ops.relational import funnel_steps
    from gdal_ray.util import to_arrow

    rng = np.random.RandomState(12)
    n = 500
    df = pd.DataFrame({
        "u": rng.randint(0, 30, n),
        "ts": pd.Timestamp("2026-01-01")
        + pd.to_timedelta(rng.randint(0, 10**6, n), unit="s"),
        "ev": rng.choice(["a", "b", "c", "x"], n),
    })
    ds = rd.from_arrow(pa.Table.from_pandas(df)).repartition(4)
    got = to_arrow(funnel_steps(ds, by="u", ts_col="ts", event_col="ev",
                                steps=["a", "b", "c"])) \
        .to_pandas().set_index("u").sort_index()

    for u, g in df.groupby("u"):
        prev = pd.Timestamp.min
        times, depth = [], 0
        alive = True
        for s in ("a", "b", "c"):
            cand = g[(g.ev == s) & (g.ts >= prev)] if alive else g.iloc[0:0]
            if len(cand):
                tt = cand.ts.min()
                times.append(tt)
                prev = tt
                depth += 1
            else:
                times.append(pd.NaT)
                alive = False
        row = got.loc[u]
        assert row["depth"] == depth, u
        for i, tt in enumerate(times):
            gv = row[f"t_{i + 1}"]
            assert (pd.isna(gv) and pd.isna(tt)) or gv == tt, (u, i)
    assert len(got) == df.u.nunique()


def test_join_hash_all_types_vs_pandas(ray_session):
    """Big-big co-partitioned equi join == a driver-side pandas merge for
    every join type; covers null keys (never match, survive outer sides),
    colliding payload names (suffix), and key coalescing."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.ops.relational import join_hash
    from gdal_ray.util import to_arrow

    rng = np.random.RandomState(11)
    lk = rng.randint(0, 60, 400).astype(np.float64)
    lk[rng.rand(400) < 0.05] = np.nan
    rk = rng.randint(30, 90, 120).astype(np.float64)
    rk[rng.rand(120) < 0.05] = np.nan
    left = pa.table({"k": lk, "v": rng.standard_normal(400)})
    right = pa.table({"rk": rk, "v": rng.standard_normal(120)})
    lds = rd.from_arrow(left).repartition(5)
    rds = rd.from_arrow(right).repartition(3)

    ldf, rdf = left.to_pandas(), right.to_pandas()
    for how in ("inner", "left", "right", "full"):
        got = to_arrow(join_hash(lds, rds, ["k"], right_keys=["rk"],
                                 how=how, num_parts=16)).to_pandas()
        assert list(got.columns) == ["k", "v", "v_r"]
        phow = {"full": "outer"}.get(how, how)
        want = ldf.merge(rdf.rename(columns={"v": "v_r"}),
                         left_on="k", right_on="rk", how=phow)
        want["k"] = want["k"].fillna(want["rk"])  # coalesced key
        want = want.drop(columns=["rk"])
        key = ["k", "v", "v_r"]
        g = got.sort_values(key, na_position="last").reset_index(drop=True)
        w = want.sort_values(key, na_position="last").reset_index(drop=True)
        assert len(g) == len(w), how
        for c in key:
            a, b = g[c].to_numpy(), w[c].to_numpy()
            both = ~(np.isnan(a) | np.isnan(b))
            assert (np.isnan(a) == np.isnan(b)).all(), (how, c)
            assert np.allclose(a[both], b[both]), (how, c)


def test_pivot_matches_duckdb(ray_session, sf_dir):
    """Long->wide pivot == DuckDB CASE-aggregates for sum/count/mean,
    including empty cells (null, not 0)."""
    import duckdb
    import numpy as np
    import ray.data as rd

    from gdal_ray.ops.relational import pivot
    from gdal_ray.util import sf_path, to_arrow

    con = duckdb.connect()
    con.execute(f"create view orders as select * from read_parquet('{sf_path(sf_dir, 'orders')}')")
    vals = [r[0] for r in con.execute(
        "select distinct o_orderstatus from orders order by 1").fetchall()]
    ds = rd.read_parquet(sf_path(sf_dir, "orders"),
                         columns=["o_orderpriority", "o_orderstatus",
                                  "o_totalprice"]).repartition(5)
    for agg, sqlagg in [("sum", "SUM"), ("count", "COUNT"), ("mean", "AVG")]:
        got = to_arrow(pivot(ds, index=["o_orderpriority"],
                             column="o_orderstatus", value="o_totalprice",
                             agg=agg)).to_pandas() \
            .sort_values("o_orderpriority").reset_index(drop=True)
        sel = ", ".join(
            f"{sqlagg}(CASE WHEN o_orderstatus = '{v}' THEN o_totalprice END) AS \"{v}\""
            for v in vals)
        want = con.execute(
            f"SELECT o_orderpriority, {sel} FROM orders "
            "GROUP BY o_orderpriority ORDER BY o_orderpriority").fetchdf()
        assert list(got.columns) == list(want.columns)
        for v in vals:
            a = got[v].to_numpy(dtype=np.float64, na_value=np.nan)
            b = want[v].to_numpy(dtype=np.float64, na_value=np.nan)
            assert (np.isnan(a) == np.isnan(b)).all(), (agg, v)
            m = ~np.isnan(a)
            assert np.allclose(a[m], b[m]), (agg, v)


def test_table_profile_matches_duckdb(ray_session, sf_dir):
    import duckdb
    import numpy as np
    import ray.data as rd

    from gdal_ray.pipelines.info import table_profile
    from gdal_ray.util import sf_path

    got = table_profile(rd.read_parquet(sf_path(sf_dir, "customer"))
                        .repartition(4)).to_pandas()
    con = duckdb.connect()
    con.execute(f"create view customer as select * from read_parquet('{sf_path(sf_dir, 'customer')}')")
    for _, r in got.iterrows():
        c = r["column"]
        n, nn, ndist = con.execute(
            f"SELECT COUNT(*), COUNT(*) - COUNT({c}), COUNT(DISTINCT {c}) "
            "FROM customer").fetchone()
        assert (r["n"], r["n_null"], r["n_distinct"]) == (n, nn, ndist), c
        if not np.isnan(r["mean_num"]):
            lo, hi, mu = con.execute(
                f"SELECT CAST(MIN({c}) AS DOUBLE), CAST(MAX({c}) AS DOUBLE), "
                f"ROUND(AVG(CAST({c} AS DOUBLE)), 6) FROM customer").fetchone()
            assert (r["min_num"], r["max_num"]) == (lo, hi), c
            assert abs(r["mean_num"] - mu) < 2e-6, c


def test_asof_join_keyless_range_partitioned():
    """by=() as-of joins RANGE-partition by `on` quantiles with boundary
    candidates instead of funneling into one task — parity vs
    pandas.merge_asof at 100k x 100k rows, both directions, including
    left rows that must reach back across many empty ranges."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    rng = np.random.RandomState(7)
    n = 100_000
    lt = np.sort(rng.uniform(0, 1e6, n))
    # right side clustered low so many upper ranges have NO right rows:
    # their matches must come from boundary candidates
    rt = np.sort(rng.uniform(0, 4e5, n))
    rv = np.arange(n, dtype=np.int64)
    left = pa.table({"t": pa.array(lt)})
    right = pa.table({"t": pa.array(rt), "v": pa.array(rv)})
    lds = rd.from_arrow([left.slice(i, 25_000) for i in range(0, n, 25_000)])
    rds = rd.from_arrow([right.slice(i, 25_000) for i in range(0, n, 25_000)])
    for direction in ("backward", "forward"):
        got = (to_arrow(R.asof_join(lds, rds, on="t", direction=direction))
               .to_pandas().sort_values("t").reset_index(drop=True))
        exp = pd.merge_asof(pd.DataFrame({"t": lt}),
                            pd.DataFrame({"t": rt, "v": rv}),
                            on="t", direction=direction)
        assert len(got) == n
        gv, ev = got["v"].to_numpy(), exp["v"].to_numpy()
        miss = np.isnan(gv.astype(np.float64)) if gv.dtype.kind == "f" \
            else pd.isna(got["v"]).to_numpy()
        emiss = pd.isna(exp["v"]).to_numpy()
        assert (miss == emiss).all()
        assert (gv[~miss].astype(np.int64) == ev[~emiss].astype(np.int64)).all()


def test_moment_product_any_aggs_vs_duckdb(sf_dir, con):
    """skew/kurt/kurt_pop/product/any on the shift-stable central-moment
    partials: exact 4-digit parity with DuckDB on both merge modes (our
    grouped merge is ulp-accurate; DuckDB's raw power sums only drift on
    mean>>std data, which these columns avoid)."""
    ds = read_table(sf_dir, "lineitem",
                    columns=["l_returnflag", "l_quantity", "l_discount"])
    exp = con.execute(
        """select l_returnflag, round(skewness(l_quantity),4) sk,
                  round(kurtosis(l_quantity),4) ku,
                  round(kurtosis_pop(l_quantity),4) kp,
                  round(product(1 + l_discount / 100),4) pr,
                  any_value(l_returnflag) av
           from lineitem group by 1 order by 1"""
    ).df()
    for merge in ("tree", "hash"):
        import pyarrow as pa

        def add_disc(t: pa.Table) -> pa.Table:
            return t.append_column(
                "__disc1", pc.add(pc.divide(pc.cast(
                    t["l_discount"], pa.float64()), 100.0), 1.0))

        out = R.groupby_agg(
            ds.map_batches(add_disc, batch_format="pyarrow",
                           batch_size=None),
            ["l_returnflag"],
            [("sk", "skew", "l_quantity"),
             ("ku", "kurt", "l_quantity"),
             ("kp", "kurt_pop", "l_quantity"),
             ("pr", "product", "__disc1"),
             ("av", "any", "l_returnflag")],
            round_to={"sk": 4, "ku": 4, "kp": 4, "pr": 4},
            merge=merge,
        )
        got = _sorted_df(to_arrow(out), "l_returnflag")
        for c in ("sk", "ku", "kp", "pr"):
            assert got[c].tolist() == exp[c].tolist(), (merge, c)
        assert got["av"].notna().all()


def test_moment_aggs_small_group_nulls():
    """DuckDB NULL rules: skew NULL for n<3 or var=0; kurt NULL for n<4;
    kurt_pop NULL for n<2; product skips NULLs (all-null -> NULL)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    df = pd.DataFrame({
        "k": [1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 6],
        "v": [5.0, 1.0, 2.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 4.0,
              2.0, 2.0, 2.0, 2.0, np.nan],
    })
    out = R.groupby_agg(
        rd.from_pandas(df).repartition(4), ["k"],
        [("sk", "skew", "v"), ("ku", "kurt", "v"),
         ("kp", "kurt_pop", "v"), ("pr", "product", "v")],
    ).to_pandas().sort_values("k").reset_index(drop=True)
    import duckdb

    exp = duckdb.connect().execute(
        """select k, skewness(v) sk, kurtosis(v) ku, kurtosis_pop(v) kp,
                  product(v) pr from df group by k order by k"""
    ).df()
    for c in ("sk", "ku", "kp", "pr"):
        a, b = out[c].to_numpy(), exp[c].to_numpy()
        both_null = np.isnan(a) & np.isnan(b)
        assert (both_null | np.isclose(a, b, rtol=1e-12, equal_nan=False)).all(), c


def test_cov_kinds_vs_duckdb_edges(ray_session):
    """cov_samp/cov_pop/cov_sum (pairwise-null masked co-moments):
    DuckDB edge parity — single pair (samp NULL, pop 0.0), empty after
    mask (all NULL), constant columns (0.0)."""
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    tt = pd.DataFrame({
        "k": [1, 1, 1, 2, 2, 2, 3, 4, 4, 5, 5],
        "x": [1., 1., 1., 1., 2., 3., 1., 1., 2., np.nan, 2.],
        "y": [2., 4., 8., 5., 5., 5., 2., 1., np.nan, 3., np.nan],
    })
    for merge in ("tree", "hash"):
        out = R.groupby_agg(
            rd.from_pandas(tt).repartition(3), ["k"],
            [("cs", "cov_samp", ("y", "x")),
             ("cp", "cov_pop", ("y", "x")),
             ("c2", "cov_sum", ("y", "x"))],
            merge=merge,
        ).to_pandas().sort_values("k").reset_index(drop=True)
        exp = duckdb.connect().execute(
            """select k, covar_samp(y,x) cs, covar_pop(y,x) cp,
                      regr_sxy(y,x) c2 from tt group by k order by k"""
        ).df()
        for c in ("cs", "cp", "c2"):
            a, b = out[c].to_numpy(), exp[c].to_numpy()
            both_null = np.isnan(a) & np.isnan(b)
            assert (both_null | np.isclose(a, b, rtol=1e-12)).all(), (merge, c)


def test_cov_merge_accuracy_large_mean(ray_session):
    """Co-moment merge must not cancel at mean >> cov: 4 partitions of
    mean-1e9 data, covariance O(1) — result matches numpy to 5e-9 rel
    (a naive E[xy]-E[x]E[y] at x*y ~ 1e18 would be off by ~1e2)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    rng = np.random.default_rng(11)
    n = 40_000
    x = 1e9 + rng.normal(0, 1.0, n)
    y = 1e9 + 0.5 * (x - 1e9) + rng.normal(0, 1.0, n)
    g = rng.integers(0, 7, n)
    df = pd.DataFrame({"k": g, "x": x, "y": y})
    out = R.groupby_agg(
        rd.from_pandas(df).repartition(8), ["k"],
        [("cs", "cov_samp", ("y", "x"))],
    ).to_pandas().sort_values("k").reset_index(drop=True)
    for i, kk in enumerate(out.k):
        m = g == kk
        ref = np.cov(y[m], x[m], ddof=1)[0, 1]
        assert abs(out.cs[i] - ref) < 5e-9 * abs(ref), (kk, out.cs[i], ref)


def test_groupby_entropy_vs_duckdb(sf_dir, con):
    """ENTROPY: distribution entropy per key, base 2; all-null group ->
    0.0; both merge modes."""
    import numpy as np

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])
    exp = con.execute(
        """select user_id % 4 ug, entropy(event_type) e
           from events group by 1 order by 1"""
    ).df()
    import pyarrow as pa

    def add_ug(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc_
        return t.append_column(
            "ug", pc_.cast(pc_.bit_wise_and(t["user_id"], 3), pa.int64()))

    dsu = ds.map_batches(add_ug, batch_format="pyarrow", batch_size=None)
    for merge in ("tree", "hash"):
        got = (R.groupby_entropy(dsu, ["ug"], "event_type", out="e",
                                 merge=merge)
               .to_pandas().sort_values("ug").reset_index(drop=True))
        assert np.allclose(got.e.to_numpy(), exp.e.to_numpy(), rtol=1e-12), merge


def test_joins_carry_nested_payload_columns(ray_session):
    """Acero rejects list-typed non-key fields; join_tables re-attaches
    them via surrogate-index takes — broadcast, big-big and semi paths
    all carry an embedding column through (outer-join misses -> NULL)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    lt = pa.table({"k": [1, 2, 3, 4],
                   "emb": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]})
    rt = pa.table({"k": [2, 3, 5], "tag": ["b", "c", "e"],
                   "remb": [[9.0], [8.0], [7.0]]})

    out = R.join_tables(lt, rt, keys=["k"], join_type="inner")
    out = out.take(pc.sort_indices(out["k"]))
    assert out.column_names == ["k", "emb", "tag", "remb"]
    assert out["k"].to_pylist() == [2, 3]
    assert out["emb"].to_pylist() == [[3.0, 4.0], [5.0, 6.0]]
    assert out["remb"].to_pylist() == [[9.0], [8.0]]

    lo = R.join_tables(lt, rt, keys=["k"], join_type="left outer")
    lo = lo.take(pc.sort_indices(lo["k"]))
    assert lo["emb"].to_pylist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0],
                                     [7.0, 8.0]]
    assert lo["remb"].to_pylist() == [None, [9.0], [8.0], None]

    # broadcast_join over a Dataset with a list payload on the LEFT
    ds = rd.from_arrow(lt).repartition(2)
    bj = to_arrow(R.broadcast_join(ds, rt, ["k"], how="left"))
    bj = bj.take(pc.sort_indices(bj["k"]))
    assert bj["emb"].to_pylist() == lo["emb"].to_pylist()
    assert bj["remb"].to_pylist() == lo["remb"].to_pylist()

    # big-big co-partitioned join with nested payloads on both sides
    jh = to_arrow(R.join_hash(rd.from_arrow(lt).repartition(2),
                              rd.from_arrow(rt).repartition(2), ["k"],
                              how="full"))
    jh = jh.take(pc.sort_indices(jh["k"]))
    assert jh["k"].to_pylist() == [1, 2, 3, 4, 5]
    assert jh["emb"].to_pylist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0],
                                     [7.0, 8.0], None]
    assert jh["remb"].to_pylist() == [None, [9.0], [8.0], None, [7.0]]

    # semi/anti keep their nested left payloads too
    semi = to_arrow(R.semi_join_hash(
        rd.from_arrow(lt).repartition(2),
        rd.from_arrow(rt).repartition(2), ["k"]))
    semi = semi.take(pc.sort_indices(semi["k"]))
    assert semi["emb"].to_pylist() == [[3.0, 4.0], [5.0, 6.0]]
