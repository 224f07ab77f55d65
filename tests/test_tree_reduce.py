"""ops.relational.tree_reduce: one merge rule for partials.

Keyed partials past TREE_MAX_BYTES go through the hash exchange; every other
merge is a tree that coalesces or skips, never splits. More partial blocks
than TREE_WIDTH are first merged in TREE_WIDTH runs of adjacent blocks;
fewer go straight to the one final merge. Every branch must give DuckDB's
answer, and a small partial set must not be fanned out into Ray's
zero-column padding blocks.
"""

import logging
import math

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from gdal_ray.ops import relational as R
from gdal_ray.util import to_arrow

# "many" has more blocks than TREE_WIDTH (the coalescing level runs),
# "few" has fewer (the final merge alone)
LAYOUTS = {"many": 40, "few": 3}


def _blocks(n_blocks: int, n_rows: int = 400, seed: int = 5) -> list[pa.Table]:
    """n_rows seeded rows cut into n_blocks tables; every block holds rows of
    most keys, so partials overlap across blocks."""
    rng = np.random.RandomState(seed)
    t = pa.table({"k": rng.randint(0, 7, n_rows).astype(np.int64),
                  "id": np.arange(n_rows, dtype=np.int64),
                  "v": rng.randint(-50, 50, n_rows).astype(np.float64),
                  "x": rng.uniform(0, 1, n_rows), "y": rng.uniform(0, 1, n_rows)})
    cuts = np.linspace(0, n_rows, n_blocks + 1).astype(int)
    return [t.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])]


def _duck(sql: str, **tables) -> list[dict]:
    con = duckdb.connect()
    for name, t in tables.items():
        con.register(name, t)
    return con.execute(sql).arrow().to_pylist()


def _same(got: list[dict], exp: list[dict]):
    assert len(got) == len(exp)
    for g, e in zip(got, exp):
        assert g.keys() == e.keys()
        for c in g:
            if isinstance(e[c], float):
                assert math.isclose(g[c], e[c], rel_tol=1e-12, abs_tol=1e-12), (c, g, e)
            else:
                assert g[c] == e[c], (c, g, e)


def _levels(ds) -> int:
    """Repartition operators in the tree's plan (the partials are
    materialized, so only the tree's own levels show)."""
    return repr(ds).count("Repartition")


@pytest.mark.parametrize("layout", LAYOUTS)
def test_groupby_agg_tree_both_branches(ray_session, layout):
    blocks = _blocks(LAYOUTS[layout])
    specs = [("s", "sum", "v"), ("c", "count", "v"), ("mu", "mean", "v"),
             ("sd", "std", "v")]  # std takes the merge_welford path
    out = R.groupby_agg(rd.from_arrow(blocks), ["k"], specs)
    assert _levels(out) == (2 if layout == "many" else 1)
    got = to_arrow(out).sort_by("k").to_pylist()
    exp = _duck("SELECT k, sum(v) AS s, count(v) AS c, avg(v) AS mu, "
                "stddev_samp(v) AS sd FROM t GROUP BY k ORDER BY k",
                t=pa.concat_tables(blocks))
    _same(got, exp)
    # the global aggregate takes the same tree
    got = to_arrow(R.groupby_agg(rd.from_arrow(blocks), [], specs)).to_pylist()
    exp = _duck("SELECT sum(v) AS s, count(v) AS c, avg(v) AS mu, "
                "stddev_samp(v) AS sd FROM t", t=pa.concat_tables(blocks))
    _same(got, exp)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_topk_tree_both_branches(ray_session, layout):
    blocks = _blocks(LAYOUTS[layout])
    out = R.topk(rd.from_arrow(blocks), [("v", True), ("id", False)], 25)
    assert _levels(out) == (2 if layout == "many" else 1)
    got = to_arrow(out).select(["id", "v"]).to_pylist()
    exp = _duck("SELECT id, v FROM t ORDER BY v DESC, id LIMIT 25",
                t=pa.concat_tables(blocks))
    assert got == exp


@pytest.mark.parametrize("layout", LAYOUTS)
def test_knn_head_k_tree_both_branches(ray_session, layout):
    from gdal_ray.stages.geo import knn_points

    blocks = _blocks(LAYOUTS[layout])
    pts = pa.concat_tables(blocks).select(["id", "x", "y"])
    queries = pts.take([0, 17, 123, 399])
    out = knn_points(rd.from_arrow([b.select(["id", "x", "y"]) for b in blocks]),
                     queries, 4, lon_col="x", lat_col="y")
    got = to_arrow(out).sort_by([("query_id", "ascending"),
                                 ("rank", "ascending")]).to_pylist()
    exp = _duck("""
        SELECT query_id, neighbor_id, dist, rank FROM (
          SELECT q.id AS query_id, p.id AS neighbor_id,
                 sqrt((p.x - q.x) * (p.x - q.x) + (p.y - q.y) * (p.y - q.y)) AS dist,
                 row_number() OVER (PARTITION BY q.id ORDER BY
                   (p.x - q.x) * (p.x - q.x) + (p.y - q.y) * (p.y - q.y), p.id) AS rank
          FROM q, p WHERE p.id <> q.id)
        WHERE rank <= 4 ORDER BY query_id, rank""", q=queries, p=pts)
    _same(got, exp)


class _Lines(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.lines: list[str] = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def test_small_partial_set_is_not_padded(ray_session):
    """A keyed groupby_agg and a topk(k=1) over a 3-row dataset: the merge
    must not fan three partial rows out to more blocks than rows, which
    Ray pads with zero-column blocks and reports as a RefBundle with a
    different (empty) schema."""
    logger = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state")
    handler = _Lines()
    logger.addHandler(handler)
    try:
        ds = rd.from_arrow(pa.table({"k": [1, 2, 1], "v": [3.0, 4.0, 5.0]}))
        agg = to_arrow(R.groupby_agg(ds, ["k"], [("s", "sum", "v")]))
        top = to_arrow(R.topk(ds, [("v", True)], 1))
    finally:
        logger.removeHandler(handler)
    assert agg.sort_by("k").to_pylist() == [{"k": 1, "s": 8.0}, {"k": 2, "s": 4.0}]
    assert top.to_pylist() == [{"k": 1, "v": 5.0}]
    assert not [ln for ln in handler.lines if "different schema" in ln], handler.lines


def _spy_hash(monkeypatch) -> list:
    """Record every call tree_reduce makes to hash_partition_reduce (the
    keys it passed); the call itself still runs."""
    calls, real = [], R.hash_partition_reduce

    def spy(ds, keys, fn, **kw):
        calls.append(list(keys))
        return real(ds, keys, fn, **kw)

    monkeypatch.setattr(R, "hash_partition_reduce", spy)
    return calls


def test_merge_rule_tree_at_the_bound_hash_above(ray_session, monkeypatch):
    """Keyed partials of exactly TREE_MAX_BYTES take the tree; one byte
    more takes the hash exchange. An unkeyed merge always takes the tree."""
    hashed = _spy_hash(monkeypatch)
    blocks = _blocks(3)
    ds = rd.from_arrow(blocks)
    size = ds.materialize().size_bytes()
    merge = R.head_k(["k"], [("id", "ascending")], 2)
    exp = _duck("SELECT k, id FROM (SELECT k, id, row_number() OVER "
                "(PARTITION BY k ORDER BY id) AS rn FROM t) WHERE rn <= 2 "
                "ORDER BY k, id", t=pa.concat_tables(blocks))
    for bound, calls in ((size, []), (size - 1, [["k"]])):
        monkeypatch.setattr(R, "TREE_MAX_BYTES", bound)
        hashed.clear()
        out = R.tree_reduce(ds, merge, ["k"])
        assert hashed == calls, bound
        assert _levels(out) == (0 if calls else 1), bound
        got = to_arrow(out).select(["k", "id"]).sort_by(
            [("k", "ascending"), ("id", "ascending")]).to_pylist()
        assert got == exp, bound
    monkeypatch.setattr(R, "TREE_MAX_BYTES", 0)
    hashed.clear()
    top = R.topk(ds, [("v", True), ("id", False)], 5)
    assert not hashed and _levels(top) == 1


@pytest.mark.parametrize("layout", LAYOUTS)
def test_distinct_and_first_by_tree(ray_session, layout, monkeypatch):
    """distinct and first_by merge through tree_reduce: a coalescing level
    over 40 partial blocks, the final merge alone over 3; never a bare
    repartition(1) over every partial block."""
    hashed = _spy_hash(monkeypatch)
    blocks = _blocks(LAYOUTS[layout])
    whole = pa.concat_tables(blocks)
    levels = 2 if layout == "many" else 1
    out = R.distinct(rd.from_arrow(blocks), ["k"])
    assert _levels(out) == levels and not hashed
    assert to_arrow(out).sort_by("k").to_pylist() == _duck(
        "SELECT DISTINCT k FROM t ORDER BY k", t=whole)
    out = R.first_by(rd.from_arrow(blocks), ["k"], ["v", "id"],
                     ascending=[False, True])
    assert _levels(out) == levels and not hashed
    got = to_arrow(out).select(["k", "id", "v"]).sort_by("k").to_pylist()
    exp = _duck("SELECT k, id, v FROM (SELECT k, id, v, row_number() OVER "
                "(PARTITION BY k ORDER BY v DESC, id) AS rn FROM t) "
                "WHERE rn = 1 ORDER BY k", t=whole)
    _same(got, exp)


def test_global_aggregate_over_no_rows_is_one_row(ray_session, sf_dir):
    """keys=[] over an empty input gives SQL's one identity row: counts 0,
    every other aggregate NULL (float64). The SQL path gives the same row."""
    from gdal_ray.ops.sql import execute
    from gdal_ray.util import sf_path

    t = pa.table({"key": np.arange(10, dtype=np.int64),
                  "v": np.arange(10, dtype=np.float64)})
    empty = rd.from_arrow(t).filter(expr="key > 100")
    got = to_arrow(R.groupby_agg(
        empty, [], [("n", "count_star", None), ("s", "sum", "v")]))
    exp = _duck("SELECT count(*) AS n, sum(v) AS s FROM t WHERE key > 100", t=t)
    assert got.to_pylist() == exp == [{"n": 0, "s": None}]
    assert got.schema.types == [pa.int64(), pa.float64()]

    sql = ("SELECT COUNT(*) AS n, SUM(o_totalprice) AS s FROM orders "
           "WHERE o_orderkey < 0")
    got = to_arrow(execute(sql, sf_dir))
    con = duckdb.connect()
    con.execute("CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{sf_path(sf_dir, 'orders')}')")
    assert got.to_pylist() == con.execute(sql).arrow().to_pylist() \
        == [{"n": 0, "s": None}]
    assert got.schema.types == [pa.int64(), pa.float64()]


_DISTINCT_ORDERS = {
    # the order key is a function of the output: DuckDB's order exactly
    "expr": ("SELECT DISTINCT o_orderpriority, o_orderstatus FROM orders "
             "ORDER BY lower(o_orderpriority) DESC, o_orderstatus", None),
    # the order key is a source column the output drops: each distinct row
    # sits at its first source row, once (DuckDB leaves which row open)
    "source": ("SELECT DISTINCT o_orderpriority FROM orders "
               "ORDER BY o_orderkey",
               "SELECT o_orderpriority FROM orders GROUP BY 1 "
               "ORDER BY min(o_orderkey)"),
}


@pytest.mark.parametrize("tail", ["", "LIMIT 100 OFFSET 2", "LIMIT 4 OFFSET 3"])
@pytest.mark.parametrize("order", list(_DISTINCT_ORDERS))
def test_sql_distinct_order_by_source_on_hash_side(
        ray_session, sf_dir, monkeypatch, order, tail):
    """SELECT DISTINCT ... ORDER BY a key sorted on the source rows keeps
    the row order and OFFSET/LIMIT rows of DuckDB when the DISTINCT merge
    is the hash exchange, which does not keep row order."""
    from gdal_ray.ops.sql import execute
    from gdal_ray.util import sf_path

    hashed = _spy_hash(monkeypatch)
    monkeypatch.setattr(R, "TREE_MAX_BYTES", 0)
    sql, ref = _DISTINCT_ORDERS[order]
    got = to_arrow(execute(f"{sql} {tail}", sf_dir)).to_pylist()
    assert hashed
    con = duckdb.connect()
    con.execute("CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{sf_path(sf_dir, 'orders')}')")
    assert got == con.execute(f"{ref or sql} {tail}").arrow().to_pylist()
