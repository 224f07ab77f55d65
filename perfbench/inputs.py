"""Seeded input generators for the benchmark workloads.

Every table is a pure function of its seed (numpy PCG64), so the same
``--seed`` gives byte-identical inputs. Shapes mirror the project's
TPC-H-like test tables (same column names, types and value ranges) so the
registry queries and their DuckDB oracles run unchanged.

The one fixed (seed-independent) input is ``q05_lineitem``: it reproduces
the q05_global_agg rounding fault on every run (see README.md).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = (
    "a the data table row column key value batch stream spark query scan "
    "filter sort hash join group agg merge order part line window vector "
    "small big fast slow customer"
).split()
LANGS = np.array(["en", "zh", "es", "fr", "de"])
LANG_P = np.array([0.41, 0.15, 0.15, 0.15, 0.14])


def _write(table: pa.Table, path: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(table, path)
    return path


# --------------------------------------------------------------------------
# flagship / tiles_write: the documents table the pages are synthesized from
# --------------------------------------------------------------------------


def documents(seed: int, n_docs: int) -> pa.Table:
    """doc_id is a seeded sample of distinct ids, so page ids (and with them
    the page coordinates) change with the seed; text is 8-100 vocabulary
    words, one line, no markup."""
    rng = np.random.default_rng([seed, 1])
    doc_id = np.sort(rng.choice(10_000_000, size=n_docs, replace=False)).astype(np.int64)
    n_words = rng.integers(8, 101, size=n_docs)
    words = np.array(VOCAB)[rng.integers(0, len(VOCAB), size=int(n_words.sum()))]
    bounds = np.concatenate([[0], np.cumsum(n_words)])
    text = [" ".join(words[bounds[i]:bounds[i + 1]]) for i in range(n_docs)]
    lang = LANGS[rng.choice(len(LANGS), size=n_docs, p=LANG_P)]
    return pa.table({
        "doc_id": pa.array(doc_id),
        "text": pa.array(text, pa.string()),
        "lang": pa.array(lang, pa.string()),
    })


def write_documents(seed: int, n_docs: int, sf_dir: str) -> pa.Table:
    t = documents(seed, n_docs)
    _write(t, os.path.join(sf_dir, "documents.parquet"))
    return t


# --------------------------------------------------------------------------
# pip_dense: skewed points and a displaced-edge admin partition
# --------------------------------------------------------------------------

GRID_NX, GRID_NY = 24, 16          # 384 admin cells
GRID_X0, GRID_X1 = -180.0, 180.0
GRID_Y0, GRID_Y1 = -80.0, 80.0


def _displaced(n_levels: int, rng: np.random.Generator, r0: float = 0.12) -> np.ndarray:
    """Midpoint displacement of the unit segment [0, 1]: offsets at the
    2**n_levels + 1 evenly spaced abscissae, 0 at both ends. The offset at
    level l is at most r0 * 0.5**l of that level's segment length, so the
    profile's slope stays below 4 * r0 < 1: a displaced edge is the graph of
    a function over its own axis (never self-intersecting) and stays inside
    a cone around each end, so edges meeting at a corner cannot cross."""
    f = np.zeros(2)
    for lvl in range(n_levels):
        seg = 1.0 / (len(f) - 1)
        mid = (f[:-1] + f[1:]) / 2.0 + rng.uniform(-1, 1, len(f) - 1) * r0 * 0.5 ** lvl * seg
        out = np.empty(2 * len(f) - 1)
        out[0::2], out[1::2] = f, mid
        f = out
    return f


def admin_partition(seed: int, n_levels: int):
    """A GRID_NX x GRID_NY grid of admin cells over the world box whose
    interior edges are midpoint-displaced polylines. Each shared edge is
    generated once and used by both neighbours (reversed for one), so the
    cells stay an exact partition of the box. Returns (admin_id, rings),
    one closed (V + 1, 2) float64 ring per cell with V = 4 * 2**n_levels."""
    rng = np.random.default_rng([seed, 2])
    dx = (GRID_X1 - GRID_X0) / GRID_NX
    dy = (GRID_Y1 - GRID_Y0) / GRID_NY
    s = np.linspace(0.0, 1.0, 2 ** n_levels + 1)
    # horizontal edges h[j][i]: along y = y_j from x_i to x_{i+1}
    hedge = {}
    for j in range(GRID_NY + 1):
        for i in range(GRID_NX):
            off = np.zeros_like(s) if j in (0, GRID_NY) else _displaced(n_levels, rng) * dx
            hedge[i, j] = np.column_stack([GRID_X0 + (i + s) * dx, GRID_Y0 + j * dy + off])
    vedge = {}
    for i in range(GRID_NX + 1):
        for j in range(GRID_NY):
            off = np.zeros_like(s) if i in (0, GRID_NX) else _displaced(n_levels, rng) * dy
            vedge[i, j] = np.column_stack([GRID_X0 + i * dx + off, GRID_Y0 + (j + s) * dy])
    ids, rings = [], []
    for i in range(GRID_NX):
        for j in range(GRID_NY):
            ring = np.vstack([
                hedge[i, j][:-1],              # bottom, west -> east
                vedge[i + 1, j][:-1],          # east, south -> north
                hedge[i, j + 1][::-1][:-1],    # top, east -> west
                vedge[i, j][::-1],             # west, north -> south (closes)
            ])
            ids.append(i * 1000 + j)
            rings.append(ring)
    return np.array(ids, dtype=np.int64), rings


def admin_table(ids: np.ndarray, rings) -> pa.Table:
    """The admin polygons as the engine takes them: (admin_id, WKB)."""
    from gdal_ray.geo import wkb as W

    return pa.table({
        "admin_id": pa.array(ids),
        "geometry": pa.array([W.encode_polygon([r]) for r in rings], pa.binary()),
    })


def dense_points(seed: int, n_points: int, n_hot: int = 8, sigma: float = 0.05):
    """80% of points gaussian around seeded hot centers (the flagship's
    skew: sigma 0.05 degrees), 20% uniform over the partition's box."""
    rng = np.random.default_rng([seed, 3])
    centers = np.column_stack([
        rng.uniform(GRID_X0 + 5, GRID_X1 - 5, n_hot), rng.uniform(GRID_Y0 + 5, GRID_Y1 - 5, n_hot)
    ])
    hot = rng.random(n_points) < 0.8
    c = centers[rng.integers(0, n_hot, n_points)]
    lon = np.where(hot, c[:, 0] + rng.normal(0, sigma, n_points), rng.uniform(GRID_X0, GRID_X1, n_points))
    lat = np.where(hot, c[:, 1] + rng.normal(0, sigma, n_points), rng.uniform(GRID_Y0, GRID_Y1, n_points))
    eps = 1e-6
    lon = np.clip(lon, GRID_X0 + eps, GRID_X1 - eps)
    lat = np.clip(lat, GRID_Y0 + eps, GRID_Y1 - eps)
    return pa.table({
        "point_id": pa.array(np.arange(n_points, dtype=np.int64)),
        "lon": pa.array(lon),
        "lat": pa.array(lat),
    })


# --------------------------------------------------------------------------
# query_mix: TPC-H-like tables plus the events stream
# --------------------------------------------------------------------------

N_LINEITEM, N_ORDERS, N_CUSTOMER, N_SUPPLIER, N_PART = 60_000, 15_000, 1_500, 100, 2_000
N_EVENTS = 10_000
REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
SEGMENTS = np.array(["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"])
PRIORITIES = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"])
EVENT_TYPES = np.array(["click", "view", "signup", "purchase", "error"])
_DAY_US = 86_400 * 1_000_000
_EPOCH_1995 = np.datetime64("1995-01-01", "us").astype(np.int64)
_EPOCH_2024 = np.datetime64("2024-01-01", "us").astype(np.int64)


def _ts(us: np.ndarray) -> pa.Array:
    return pa.array(us.astype(np.int64), pa.int64()).cast(pa.timestamp("us"))


def _cents(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def lineitem_table(rng: np.random.Generator, n: int = N_LINEITEM) -> pa.Table:
    orderdate = rng.integers(0, 2400, n)
    return pa.table({
        "l_orderkey": pa.array(rng.integers(0, N_ORDERS, n).astype(np.int64)),
        "l_partkey": pa.array(rng.integers(0, N_PART, n).astype(np.int64)),
        "l_suppkey": pa.array(rng.integers(0, N_SUPPLIER, n).astype(np.int64)),
        "l_linenumber": pa.array(rng.integers(1, 8, n).astype(np.int32)),
        "l_quantity": pa.array(rng.integers(1, 51, n).astype(np.float64)),
        "l_extendedprice": pa.array(_cents(rng, 900.0, 105_000.0, n)),
        "l_discount": pa.array(np.round(rng.uniform(0.0, 0.1, n), 2)),
        "l_tax": pa.array(np.round(rng.uniform(0.0, 0.08, n), 2)),
        "l_returnflag": pa.array(np.array(["R", "A", "N"])[rng.integers(0, 3, n)]),
        "l_linestatus": pa.array(np.array(["O", "F"])[rng.integers(0, 2, n)]),
        "l_shipdate": _ts(_EPOCH_1995 + (orderdate + rng.integers(1, 122, n)) * _DAY_US),
    })


def write_tpch(seed: int, sf_dir: str) -> None:
    """region, nation, supplier, customer, orders, lineitem and events."""
    rng = np.random.default_rng([seed, 4])
    _write(pa.table({
        "r_regionkey": pa.array(np.arange(5, dtype=np.int32)),
        "r_name": pa.array(REGIONS),
    }), os.path.join(sf_dir, "region.parquet"))
    _write(pa.table({
        "n_nationkey": pa.array(np.arange(25, dtype=np.int32)),
        "n_name": pa.array([f"NATION_{k}" for k in range(25)]),
        "n_regionkey": pa.array(np.arange(25, dtype=np.int32) % 5),
    }), os.path.join(sf_dir, "nation.parquet"))
    _write(pa.table({
        "s_suppkey": pa.array(np.arange(N_SUPPLIER, dtype=np.int64)),
        "s_name": pa.array([f"Supplier#{k:09d}" for k in range(N_SUPPLIER)]),
        "s_nationkey": pa.array(rng.integers(0, 25, N_SUPPLIER).astype(np.int32)),
        "s_acctbal": pa.array(_cents(rng, -999.99, 9999.99, N_SUPPLIER)),
    }), os.path.join(sf_dir, "supplier.parquet"))
    _write(pa.table({
        "c_custkey": pa.array(np.arange(N_CUSTOMER, dtype=np.int64)),
        "c_name": pa.array([f"Customer#{k:09d}" for k in range(N_CUSTOMER)]),
        "c_nationkey": pa.array(rng.integers(0, 25, N_CUSTOMER).astype(np.int32)),
        "c_acctbal": pa.array(_cents(rng, -999.99, 9999.99, N_CUSTOMER)),
        "c_mktsegment": pa.array(SEGMENTS[rng.integers(0, 5, N_CUSTOMER)]),
    }), os.path.join(sf_dir, "customer.parquet"))
    _write(pa.table({
        "o_orderkey": pa.array(np.arange(N_ORDERS, dtype=np.int64)),
        "o_custkey": pa.array(rng.integers(0, N_CUSTOMER, N_ORDERS).astype(np.int64)),
        "o_orderstatus": pa.array(np.array(["O", "F", "P"])[rng.integers(0, 3, N_ORDERS)]),
        "o_totalprice": pa.array(_cents(rng, 1000.0, 500_000.0, N_ORDERS)),
        "o_orderdate": _ts(_EPOCH_1995 + rng.integers(0, 2400, N_ORDERS) * _DAY_US),
        "o_orderpriority": pa.array(PRIORITIES[rng.integers(0, 5, N_ORDERS)]),
    }), os.path.join(sf_dir, "orders.parquet"))
    _write(lineitem_table(rng), os.path.join(sf_dir, "lineitem.parquet"))
    # event ids are a seeded sample, so the points the geo queries derive
    # from them change with the seed
    event_id = np.sort(rng.choice(1_000_000, N_EVENTS, replace=False)).astype(np.int64)
    _write(pa.table({
        "event_id": pa.array(event_id),
        "ts": _ts(_EPOCH_2024 + rng.integers(0, 30 * _DAY_US, N_EVENTS)),
        "user_id": pa.array(rng.integers(0, 150, N_EVENTS).astype(np.int64)),
        "event_type": pa.array(EVENT_TYPES[rng.integers(0, 5, N_EVENTS)]),
        "value": pa.array(np.round(rng.exponential(50.0, N_EVENTS), 2) + 0.01),
        "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, N_EVENTS)]),
    }), os.path.join(sf_dir, "events.parquet"))


#: fixed seed of the q05 table; see q05_lineitem
Q05_FIXED_SEED = 5


def q05_lineitem(sf_dir: str) -> None:
    """A lineitem table that does not depend on --seed, on which
    q05_global_agg's avg_disc lands on a rounding tie at 6 decimals, as it
    does on the project's sf0.01 test table: 60,000 discounts whose exact
    sum is k / 100 with k = 6 m + 3, so the exact mean is m / 1e6 + 5e-7."""
    rng = np.random.default_rng(Q05_FIXED_SEED)
    t = lineitem_table(rng)
    cents = np.round(t["l_discount"].to_numpy() * 100).astype(np.int64)
    # move the total onto the tie by nudging a few discounts by one cent
    need = (3 - cents.sum()) % 6
    idx = np.nonzero(cents < 10)[0][:need]
    cents[idx] += 1
    t = t.set_column(t.schema.get_field_index("l_discount"), "l_discount",
                     pa.array(cents / 100.0))
    _write(t, os.path.join(sf_dir, "lineitem.parquet"))
