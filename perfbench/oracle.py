"""Expected outputs computed apart from the engine, and the checks that
compare the engine's outputs with them.

Nothing here calls into ``gdal_ray``'s geometry, tiling or aggregation
code: page coordinates and the WebMercator tile formula are restated in
numpy, point-in-polygon is a crossing-number test written here, fragments
are read back with pyarrow, and the registry queries are checked against
DuckDB running each query's oracle SQL.

Every ``check_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ZOOM, MIN_ZOOM = 9, 5

# --------------------------------------------------------------------------
# flagship / tiles_write: per-tile page counts
# --------------------------------------------------------------------------

_URBAN = np.array([
    (-74.0, 40.7), (2.35, 48.85), (139.7, 35.7), (-0.13, 51.5),
    (116.4, 39.9), (77.2, 28.6), (-46.6, -23.5), (31.2, 30.0),
])
_MAX_LAT = 85.05112877980659


def _mix64(x: np.ndarray) -> np.ndarray:
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _unit(h: np.ndarray) -> np.ndarray:
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def page_lonlat(page_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The page's (lon, lat) as the engine's html carries them: the
    documented page-coordinate rule (80% gaussian around eight urban
    centers, 20% uniform; splitmix64 draws), written out as 6-decimal text
    and read back."""
    h1 = _mix64(page_id)
    h2 = _mix64(h1)
    h3 = _mix64(h2)
    u1, u2, u3 = _unit(h1), _unit(h2), _unit(h3)
    center = _URBAN[(h1 & np.uint64(0xFFFF)).astype(np.int64) % len(_URBAN)]
    radius = np.sqrt(-2.0 * np.log(np.maximum(u2, 1e-300))) * 0.05
    theta = 2.0 * np.pi * u3
    urban = u1 < 0.8
    lon = np.where(urban, center[:, 0] + radius * np.cos(theta), u2 * 360.0 - 180.0)
    lat = np.where(urban, center[:, 1] + radius * np.sin(theta), u3 * 160.0 - 80.0)
    lon = ((lon + 180.0) % 360.0) - 180.0
    lat = np.clip(lat, -83.99, 83.99)

    def as_text(x):  # "-12.345678" -> float: sign * round(|x| * 1e6) / 1e6
        micro = np.round(np.abs(x) * 1e6).astype(np.int64)
        return np.where(x < 0, -1.0, 1.0) * (micro / 1e6)

    return as_text(lon), as_text(lat)


def tile_xy(lon: np.ndarray, lat: np.ndarray, zoom: int):
    """Slippy-map tile of each point (latitude clamped to WebMercator)."""
    n = float(1 << zoom)
    phi = np.radians(np.clip(lat, -_MAX_LAT, _MAX_LAT))
    x = np.floor((lon + 180.0) / 360.0 * n)
    y = np.floor((1.0 - np.log(np.tan(phi) + 1.0 / np.cos(phi)) / np.pi) / 2.0 * n)
    return (np.clip(x, 0, n - 1).astype(np.int64), np.clip(y, 0, n - 1).astype(np.int64))


def page_ids(doc_id: np.ndarray, repeat: int) -> np.ndarray:
    return (doc_id[:, None] * repeat + np.arange(repeat)[None, :]).ravel()


def expected_tiles(doc_id: np.ndarray, repeat: int) -> dict[tuple[int, int, int], int]:
    """{(zoom, tile_x, tile_y): n_pages} for zooms ZOOM..MIN_ZOOM."""
    lon, lat = page_lonlat(page_ids(doc_id, repeat))
    tx, ty = tile_xy(lon, lat, ZOOM)
    out = {}
    for z in range(ZOOM, MIN_ZOOM - 1, -1):
        sx, sy = tx >> (ZOOM - z), ty >> (ZOOM - z)
        keys, counts = np.unique(np.stack([sx, sy]), axis=1, return_counts=True)
        out.update({(z, int(x), int(y)): int(c) for (x, y), c in zip(keys.T, counts)})
    return out


def check_tiles(t: pa.Table, expected: dict, n_pages: int) -> list[str]:
    """A tile table (zoom, tile_x, tile_y, n_pages, n_admins) against the
    expected counts: every zoom sums to the page count, each coarser tile is
    the sum of its four children, and every page found an admin cell."""
    problems = []
    z = t["zoom"].to_numpy()
    x = t["tile_x"].to_numpy()
    y = t["tile_y"].to_numpy()
    n = t["n_pages"].to_numpy()
    na = t["n_admins"].to_numpy()
    got = {}
    for k in zip(z.tolist(), x.tolist(), y.tolist(), n.tolist()):
        if k[:3] in got:
            problems.append(f"duplicate tile {k[:3]}")
        got[k[:3]] = k[3]
    if got != expected:
        diff = sorted(set(got.items()) ^ set(expected.items()))[:4]
        problems.append(f"{len(set(got.items()) ^ set(expected.items()))} tile counts differ, e.g. {diff}")
    for zz in range(ZOOM, MIN_ZOOM - 1, -1):
        total = int(n[z == zz].sum())
        if total != n_pages:
            problems.append(f"zoom {zz} sums to {total}, not {n_pages}")
    for zz in range(ZOOM, MIN_ZOOM, -1):
        child = z == zz
        kids = {}
        for cx, cy, c in zip((x[child] >> 1).tolist(), (y[child] >> 1).tolist(), n[child].tolist()):
            kids[cx, cy] = kids.get((cx, cy), 0) + c
        parents = {(int(a), int(b)): int(c) for a, b, c in zip(x[z == zz - 1], y[z == zz - 1], n[z == zz - 1])}
        if kids != parents:
            problems.append(f"zoom {zz - 1} tiles are not the sums of their zoom {zz} children")
    if not np.array_equal(na, n):
        problems.append(f"n_admins != n_pages on {int((na != n).sum())} tiles")
    return problems


# --------------------------------------------------------------------------
# pip_dense: crossing-number point-in-polygon
# --------------------------------------------------------------------------

EDGE_EPS = 1e-9


def locate_points(lon: np.ndarray, lat: np.ndarray, rings, chunk: int = 4096):
    """For each point: the index of the one ring that contains it (even-odd
    crossing number), -1 if none. Points within EDGE_EPS degrees of an edge
    of a candidate ring are returned in a separate mask; their assignment is
    not well defined and is not compared. Raises if a point away from every
    edge lies in two rings or in none (the rings must partition the box)."""
    boxes = np.array([[r[:, 0].min(), r[:, 1].min(), r[:, 0].max(), r[:, 1].max()] for r in rings])
    owner = np.full(lon.size, -1, dtype=np.int64)
    hits = np.zeros(lon.size, dtype=np.int64)
    near = np.zeros(lon.size, dtype=bool)
    for s in range(0, lon.size, chunk):
        px, py = lon[s:s + chunk], lat[s:s + chunk]
        cand = ((px[:, None] >= boxes[None, :, 0]) & (px[:, None] <= boxes[None, :, 2])
                & (py[:, None] >= boxes[None, :, 1]) & (py[:, None] <= boxes[None, :, 3]))
        for p in np.nonzero(cand.any(axis=0))[0]:
            sel = np.nonzero(cand[:, p])[0]
            qx, qy = px[sel][:, None], py[sel][:, None]
            r = rings[p]
            x0, y0, x1, y1 = r[:-1, 0], r[:-1, 1], r[1:, 0], r[1:, 1]
            straddle = (y0 > qy) != (y1 > qy)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = x0 + (qy - y0) * (x1 - x0) / (y1 - y0)
            inside = (np.count_nonzero(straddle & (qx < xint), axis=1) % 2) == 1
            # distance from each point to each edge segment
            ex, ey = x1 - x0, y1 - y0
            t = np.clip(((qx - x0) * ex + (qy - y0) * ey) / (ex * ex + ey * ey), 0.0, 1.0)
            d = np.hypot(qx - (x0 + t * ex), qy - (y0 + t * ey)).min(axis=1)
            idx = s + sel
            near[idx] |= d < EDGE_EPS
            owner[idx[inside]] = p
            hits[idx[inside]] += 1
    bad = ~near & (hits != 1)
    if bad.any():
        raise ValueError(f"{int(bad.sum())} points lie in {sorted(set(hits[bad].tolist()))} rings")
    return owner, near


def check_admin_counts(t: pa.Table, ids: np.ndarray, owner: np.ndarray,
                       near: np.ndarray) -> list[str]:
    """Engine counts per admin_id against the crossing-number owners. A
    point within EDGE_EPS of an edge may go to either side, so with n such
    points each count may exceed its expectation by up to n."""
    got = dict(zip(t["admin_id"].to_pylist(), t["n"].to_pylist()))
    want = Counter(ids[owner[~near]].tolist())
    n_near = int(near.sum())
    problems = []
    if None in got:
        problems.append(f"{got.pop(None)} points matched no admin cell")
    if sum(got.values()) != owner.size:
        problems.append(f"{sum(got.values())} matches for {owner.size} points")
    for a in sorted(set(got) | set(want)):
        g, w = got.get(a, 0), want.get(a, 0)
        if not w <= g <= w + n_near:
            problems.append(f"admin {a}: {g} points, expected {w}")
    return problems[:8]


# --------------------------------------------------------------------------
# tiles_write: fragments on disk
# --------------------------------------------------------------------------


def fragment_digests(out_dir: str) -> dict[str, str]:
    """sha256 of every committed fragment, by file name."""
    parts = os.path.join(out_dir, "parts")
    out = {}
    for name in sorted(os.listdir(parts)):
        with open(os.path.join(parts, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def read_fragments(out_dir: str) -> pa.Table:
    parts = os.path.join(out_dir, "parts")
    tables = [pq.read_table(os.path.join(parts, n)) for n in sorted(os.listdir(parts))
              if n.endswith(".parquet")]
    return pa.concat_tables(tables) if tables else pa.table({})


# --------------------------------------------------------------------------
# query_mix: DuckDB on each query's oracle SQL
# --------------------------------------------------------------------------

TABLES = ("region", "nation", "customer", "supplier", "orders", "lineitem", "events")


def duckdb_results(sqls: dict[str, str], dirs: dict[str, str]):
    """{query: DataFrame} from DuckDB, each query over its own data dir."""
    import duckdb

    out = {}
    for name, sql in sqls.items():
        con = duckdb.connect()
        for t in TABLES:
            path = os.path.join(dirs[name], f"{t}.parquet")
            if os.path.exists(path):
                con.execute(f"create view {t} as select * from read_parquet('{path}')")
        out[name] = con.execute(sql).df()
        con.close()
    return out


def table_rows(sf_dir: str, tables) -> int:
    return sum(pq.read_metadata(os.path.join(sf_dir, f"{t}.parquet")).num_rows for t in tables)
