"""Geo kernels: tiles, hilbert, S2, hex cells, WKB, STRtree, PIP."""

import numpy as np
import pytest

from gdal_ray.geo import hexcell, hilbert, pip, s2, webmercator as wm, wkb as W


def test_tile_math_known_values():
    # lon=0,lat=0 at z=1 -> tile (1,0)? (0,0) is the NW corner; (1,1) quadrant SE
    tx, ty = wm.lonlat_to_tile(np.array([0.0]), np.array([0.0]), 1)
    assert (tx[0], ty[0]) == (1, 1)
    tx, ty = wm.lonlat_to_tile(np.array([-180.0, 179.999]), np.array([85.0, -85.0]), 2)
    assert tx.tolist() == [0, 3] and ty.tolist() == [0, 3]
    # round trip through bounds
    lo, la_min, hi, la_max = wm.tile_bounds(2, 1, 2)
    assert lo == 0.0 and hi == 90.0 and la_max > 60 and la_min == 0.0


def test_tile_parent_consistency():
    rng = np.random.RandomState(7)
    lon = rng.uniform(-179, 179, 500)
    lat = rng.uniform(-84, 84, 500)
    x9, y9 = wm.lonlat_to_tile(lon, lat, 9)
    x8, y8 = wm.lonlat_to_tile(lon, lat, 8)
    px, py = wm.parent_tile(x9, y9)
    assert (px == x8).all() and (py == y8).all()


def test_hilbert_locality_and_bijection():
    order = 4
    n = 1 << order
    xs, ys = np.meshgrid(np.arange(n), np.arange(n))
    d = hilbert.hilbert_d(xs.ravel(), ys.ravel(), order)
    assert sorted(d.tolist()) == list(range(n * n))  # bijective
    # consecutive codes are adjacent cells (hilbert property)
    inv = np.empty(n * n, dtype=np.int64)
    inv[d] = np.arange(n * n)
    px, py = xs.ravel()[inv], ys.ravel()[inv]
    steps = np.abs(np.diff(px)) + np.abs(np.diff(py))
    assert (steps == 1).all()


def test_s2_structure():
    rng = np.random.RandomState(3)
    lon = rng.uniform(-180, 180, 2000)
    lat = rng.uniform(-89, 89, 2000)
    leaf = s2.lonlat_to_cell(lon, lat, 30)
    assert (leaf & np.uint64(1)).all()  # leaf ids end in 1
    assert (s2.cell_level(leaf) == 30).all()
    l16 = s2.lonlat_to_cell(lon, lat, 16)
    assert (s2.cell_level(l16) == 16).all()
    # parent of leaf at 16 == direct level-16 cell
    assert (s2.parent(leaf, 16) == l16).all()
    # face bits match longitude/zones: points near lon 0 lat 0 are on face 0
    f = (s2.lonlat_to_cell(np.array([0.0]), np.array([0.0]), 30) >> np.uint64(61))
    assert f[0] == 0
    f = (s2.lonlat_to_cell(np.array([90.0]), np.array([0.0]), 30) >> np.uint64(61))
    assert f[0] == 1
    f = (s2.lonlat_to_cell(np.array([0.0]), np.array([89.9]), 30) >> np.uint64(61))
    assert f[0] == 2


def test_s2_locality():
    # nearby points share coarse ancestors
    base = s2.lonlat_to_cell(np.array([10.0]), np.array([45.0]), 10)
    near = s2.lonlat_to_cell(np.array([10.0001]), np.array([45.0001]), 10)
    assert base[0] == near[0]


def test_hexcell_hierarchy():
    rng = np.random.RandomState(11)
    lon = rng.uniform(-170, 170, 3000)
    lat = rng.uniform(-80, 80, 3000)
    c9 = hexcell.lonlat_to_cell(lon, lat, 9)
    c5 = hexcell.lonlat_to_cell(lon, lat, 5)
    assert (hexcell.cell_res(c9) == 9).all()
    # determinism
    assert (hexcell.lonlat_to_cell(lon, lat, 9) == c9).all()
    # nearest-center property: reconstructed center within circumradius
    cx, cy = hexcell.cell_center(c9)
    R9 = hexcell._GRIDS[9][0]
    assert np.hypot(cx - lon, cy - lat).max() <= R9 * 1.0000001
    # aperture-7 coset property: parent center within one unit child step
    p8 = hexcell.cell_to_parent(c9, 8)
    pcx, pcy = hexcell.cell_center(p8)
    assert np.hypot(pcx - cx, pcy - cy).max() <= np.sqrt(3.0) * R9 * 1.0000001
    # truncated ancestor agrees with the directly computed coarse cell for
    # the vast majority of points (boundary strips excepted — same caveat
    # as H3's geoToH3 vs h3ToParent)
    agree = (hexcell.cell_to_parent(c9, 5) == c5).mean()
    assert agree > 0.9
    # same fine cell => same ancestors (definitional, exercised end-to-end)
    cdup = hexcell.lonlat_to_cell(lon[:1].repeat(5) + 1e-9, lat[:1].repeat(5), 9)
    assert len(set(hexcell.cell_to_parent(cdup, 3).tolist())) == 1


def test_wkb_point_roundtrip():
    lon = np.array([1.5, -77.25, 179.0])
    lat = np.array([-3.25, 40.0, -89.5])
    bufs = W.encode_points(lon, lat)
    lo, la = W.decode_points(bufs)
    assert np.array_equal(lo, lon) and np.array_equal(la, lat)
    kind, pts = W.parse_wkb(bufs[1])
    assert kind == "point" and pts[0][0] == -77.25


def test_wkt_roundtrip():
    cases = [
        "POLYGON ((1 2,1 3,3 3,3 2,1 2))",
        "LINESTRING (0 0,1 1)",
        "POINT (0.5 0.5)",
        "MULTIPOINT ((0.5 0.5))",
        "MULTIPOLYGON (((0 0,0 1,1 1,0 0)),((5 5,5 6,6 6,5 5)))",
        "POLYGON ((0 0,0 10,10 10,10 0,0 0),(4 4,4 6,6 6,6 4,4 4))",
    ]
    for wkt in cases:
        g = W.wkt_to_geom(wkt)
        g2 = W.parse_wkb(W.geom_to_wkb(g))
        assert W.geom_to_wkt(g2) == W.geom_to_wkt(g)


def test_strtree_matches_bruteforce():
    rng = np.random.RandomState(5)
    boxes = np.zeros((300, 4))
    boxes[:, 0] = rng.uniform(0, 90, 300)
    boxes[:, 1] = rng.uniform(0, 90, 300)
    boxes[:, 2] = boxes[:, 0] + rng.uniform(0.5, 8, 300)
    boxes[:, 3] = boxes[:, 1] + rng.uniform(0.5, 8, 300)
    tree = pip.STRtree(boxes)
    px = rng.uniform(-5, 100, 500)
    py = rng.uniform(-5, 100, 500)
    qi, bi = tree.query_points(px, py)
    got = set(zip(qi.tolist(), bi.tolist()))
    exp = set()
    for q in range(500):
        inside = (
            (px[q] >= boxes[:, 0]) & (px[q] <= boxes[:, 2])
            & (py[q] >= boxes[:, 1]) & (py[q] <= boxes[:, 3])
        )
        for b in np.nonzero(inside)[0]:
            exp.add((q, int(b)))
    assert got == exp


def test_pip_with_holes():
    donut = W.wkt_to_geom("POLYGON ((0 0,0 10,10 10,10 0,0 0),(4 4,4 6,6 6,6 4,4 4))")
    px = np.array([5.0, 2.0, 11.0, 4.5])
    py = np.array([5.0, 2.0, 5.0, 4.5])
    inside = pip.point_in_polygon(px, py, donut[1])
    assert inside.tolist() == [False, True, False, False]


def test_polygonset_locate():
    polys = [
        W.geom_to_wkb(W.wkt_to_geom("POLYGON ((0 0,0 10,10 10,10 0,0 0))")),
        W.geom_to_wkb(W.wkt_to_geom("POLYGON ((5 5,5 15,15 15,15 5,5 5))")),
    ]
    ps = pip.PolygonSet(polys)
    qi, bi = ps.locate(np.array([1.0, 7.0, 12.0, 20.0]), np.array([1.0, 7.0, 12.0, 20.0]))
    pairs = sorted(zip(qi.tolist(), bi.tolist()))
    assert pairs == [(0, 0), (1, 0), (1, 1), (2, 1)]


def _partition(rng, n=4, verts=8):
    """n x n cells over [0, n]^2 whose interior edges are displaced
    polylines; each is generated once and shared (reversed) by both
    neighbours, so the cells partition the square exactly. Horizontal lines
    at even y and vertical lines at even x stay straight. Returns (cells,
    interior) where cells[i] is one closed ring and interior lists the (m, 2)
    polylines between two cells."""
    s = np.linspace(0.0, 1.0, verts + 1)
    taper = 0.2 * np.sin(np.pi * s)  # keeps lines apart near the corners

    def line(straight):
        return np.zeros_like(s) if straight else rng.uniform(-1, 1, s.size) * taper

    h = {(i, j): np.column_stack([i + s, j + line(j % 2 == 0)])
         for i in range(n) for j in range(n + 1)}
    v = {(i, j): np.column_stack([i + line(i % 2 == 0), j + s])
         for i in range(n + 1) for j in range(n)}
    cells = [np.vstack([h[i, j][:-1], v[i + 1, j][:-1], h[i, j + 1][::-1][:-1], v[i, j][::-1]])
             for i in range(n) for j in range(n)]
    interior = [h[i, j] for i in range(n) for j in range(1, n)]
    interior += [v[i, j] for i in range(1, n) for j in range(n)]
    return cells, interior


def _ring(cx, cy, r, k, phase=0.0):
    a = np.linspace(0, 2 * np.pi, k + 1) + phase
    ring = np.column_stack([cx + r * np.cos(a), cy + r * np.sin(a)])
    ring[-1] = ring[0]
    return ring


def _away_from_edges(px, py, polys, eps=1e-9):
    """Mask of points farther than eps from every edge of every polygon."""
    segs = np.vstack([np.hstack([r[:-1], r[1:]]) for rings in polys for r in rings])
    x0, y0, x1, y1 = segs.T
    ex, ey = x1 - x0, y1 - y0
    ok = np.ones(px.size, dtype=bool)
    for c in range(0, px.size, 1000):
        qx, qy = px[c:c + 1000, None], py[c:c + 1000, None]
        t = np.clip(((qx - x0) * ex + (qy - y0) * ey) / (ex * ex + ey * ey), 0.0, 1.0)
        ok[c:c + 1000] = np.hypot(qx - (x0 + t * ex), qy - (y0 + t * ey)).min(axis=1) > eps
    return ok


def _reference_locate(px, py, polys):
    """(point, polygon) pairs from the per-ring reference, polygon-major."""
    qi, bi = [], []
    for p, rings in enumerate(polys):
        q = np.flatnonzero(pip.point_in_polygon(px, py, rings))
        qi.append(q)
        bi.append(np.full(q.size, p, dtype=np.int64))
    return np.concatenate(qi), np.concatenate(bi)


def _wkb(polys):
    """WKB of each polygon given as a list of rings, or as a list of ring
    lists (a multipolygon)."""
    out = []
    for g in polys:
        if isinstance(g[0], list):
            out.append(W.encode_multi("multipolygon", [W.encode_polygon(p) for p in g]))
        else:
            out.append(W.encode_polygon(g))
    return out


def test_polygonset_locate_matches_per_ring_reference():
    rng = np.random.default_rng(5)
    cells, _ = _partition(rng)
    donut = [_ring(2.0, 2.0, 1.5, 48), _ring(2.0, 2.0, 0.7, 24, 0.1)[::-1]]
    multi = [[_ring(1.0, 3.0, 0.8, 32)], [_ring(3.2, 1.0, 0.6, 20), _ring(3.2, 1.0, 0.2, 7)]]
    geoms = [[c] for c in cells] + [donut, multi]
    polys = [[c] for c in cells] + [donut, multi[0] + multi[1]]
    pset = pip.PolygonSet(_wkb(geoms))
    px, py = rng.uniform(-0.5, 4.5, 10_000), rng.uniform(-0.5, 4.5, 10_000)
    keep = _away_from_edges(px, py, polys)
    px, py = px[keep], py[keep]
    qi, bi = pset.locate(px, py)
    eqi, ebi = _reference_locate(px, py, polys)
    assert np.array_equal(qi, eqi) and np.array_equal(bi, ebi)
    assert qi.dtype == bi.dtype == np.int64
    # every point of the square lies in exactly one cell
    inside = (px > 0) & (px < 4) & (py > 0) & (py < 4)
    n_cells = np.bincount(qi[bi < len(cells)], minlength=px.size)
    assert (n_cells[inside] == 1).all() and (n_cells[~inside] == 0).all()


def test_polygonset_band_boundaries_and_vertex_heights():
    # 64 non-horizontal edges -> 16 bands (nb = n_edges // 4); probe every
    # band boundary and every vertex height across the whole width
    star = _ring(0.0, 0.0, 1.0, 64)
    star[1:-1:2] *= 0.6
    star[-1] = star[0]
    square = np.array([[2, -1], [4, -1], [4, 1], [2, 1], [2, -1]], dtype=float)
    polys = [[star], [square]]
    pset = pip.PolygonSet(_wkb(polys))
    ymin, ymax = star[:, 1].min(), star[:, 1].max()
    ys = np.concatenate([ymin + (ymax - ymin) * np.arange(17) / 16, star[:, 1], [-1.0, 1.0]])
    xs = np.linspace(-1.2, 4.2, 301)
    px, py = np.repeat(xs, ys.size), np.tile(ys, xs.size)
    keep = _away_from_edges(px, py, polys)
    qi, bi = pset.locate(px[keep], py[keep])
    eqi, ebi = _reference_locate(px[keep], py[keep], polys)
    assert np.array_equal(qi, eqi) and np.array_equal(bi, ebi)
    assert (bi == 0).sum() > 100 and (bi == 1).sum() > 100


def test_polygonset_locate_in_slices_matches_one_pass(monkeypatch):
    # a multipolygon with a far-off small part: its main ring's 400 edges
    # crowd one or two of its 100 bands, so each point there reads ~200 edges
    main = _ring(0.0, 0.0, 1.0, 400)
    island = _ring(0.0, 50.0, 0.1, 5)
    polys = [[main, island], [_ring(0.5, 0.5, 0.4, 40)]]
    pset = pip.PolygonSet(_wkb([[[main], [island]], polys[1]]))
    rng = np.random.default_rng(3)
    px, py = rng.uniform(-1.1, 1.1, 2_000), rng.uniform(-1.1, 1.1, 2_000)
    qi, bi = pset.locate(px, py)
    monkeypatch.setattr(pip, "EDGE_CHUNK", 997)  # ~200 slices, cut mid-point
    sqi, sbi = pset.locate(px, py)
    assert np.array_equal(qi, sqi) and np.array_equal(bi, sbi)
    keep = _away_from_edges(px, py, polys)
    eqi, ebi = _reference_locate(px[keep], py[keep], polys)
    sqi, sbi = pset.locate(px[keep], py[keep])
    assert np.array_equal(sqi, eqi) and np.array_equal(sbi, ebi)
    assert (sbi == 0).sum() > 1000


def test_polygonset_degenerate_polygons_and_nan_points():
    flat = np.array([[0, 0], [2, 0], [1, 0], [0, 0]], dtype=float)   # zero height
    thin = np.array([[5, 0], [5, 2], [5, 1], [5, 0]], dtype=float)   # zero width
    square = np.array([[0, 1], [2, 1], [2, 3], [0, 3], [0, 1]], dtype=float)
    pset = pip.PolygonSet(_wkb([[flat], [thin], [square]]))
    px = np.array([1.0, 0.5, 5.0, 5.0, 1.0, np.nan, 1.0, np.nan, 4.9])
    py = np.array([0.0, 0.0, 1.0, 0.5, 2.0, 2.0, np.nan, np.nan, 1.0])
    qi, bi = pset.locate(px, py)
    assert qi.tolist() == [4] and bi.tolist() == [2]
    eqi, ebi = _reference_locate(px, py, [[flat], [thin], [square]])
    assert np.array_equal(qi, eqi) and np.array_equal(bi, ebi)
    # a set with no polygon matches nothing
    qi, bi = pip.PolygonSet([]).locate(px, py)
    assert qi.size == 0 and bi.size == 0


def test_polygonset_points_on_shared_edges_have_one_owner():
    """Half-open rule: a point on an interior shared edge or vertex belongs
    to exactly one cell of a partition, whichever way each cell walks it."""
    rng = np.random.default_rng(11)
    cells, interior = _partition(rng, n=6, verts=16)
    pset = pip.PolygonSet(_wkb([[c] for c in cells]))
    pts = []
    for line in interior:
        a, b = line[:-1], line[1:]
        pts += [line, (a + b) / 2]  # vertices (incl. cell corners), midpoints
        for _ in range(20):  # arbitrary points along each segment
            t = rng.random((len(a), 1))
            pts.append(a + t * (b - a))
    pts = np.vstack(pts)
    on_box = (pts[:, 0] <= 0) | (pts[:, 0] >= 6) | (pts[:, 1] <= 0) | (pts[:, 1] >= 6)
    pts = pts[~on_box]
    horizontal = np.isin(pts[:, 1], [2.0, 4.0])
    assert horizontal.sum() > 500  # straight lines at even y: horizontal edges
    qi, _ = pset.locate(pts[:, 0], pts[:, 1])
    owners = np.bincount(qi, minlength=len(pts))
    assert (owners == 1).all(), (np.sum(owners == 0), np.sum(owners > 1))


def test_pip_join_fn_builds_polygon_set_once_per_worker():
    """A map_batches closure is pickled by value with copies of the globals
    it names; the worker's module-level cache must still fill, and hold one
    entry."""
    import pickle

    import pyarrow as pa
    import ray

    from gdal_ray.stages import geo

    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    table = pa.table({"admin_id": [7], "geometry": pa.array(_wkb([[square]]), pa.binary())})
    points = pa.table({"lon": [0.5, 2.0], "lat": [0.5, 0.5]})
    geo._PSET_CACHE.clear()

    def shipped(ref):  # the batch fn as a worker receives it
        return pickle.loads(ray.cloudpickle.dumps(geo.pip_join_fn(ref, how="inner")))

    ref = ray.put(table)
    f = shipped(ref)
    assert f(points).to_pydict() == {"lon": [0.5], "lat": [0.5], "admin_id": [7]}
    assert [k[0] for k in geo._PSET_CACHE] == [ref.hex()]
    built = next(iter(geo._PSET_CACHE.values()))[1]
    shipped(ref)(points)
    assert next(iter(geo._PSET_CACHE.values()))[1] is built  # a hit, no rebuild
    ref2 = ray.put(table)
    assert shipped(ref2)(points).num_rows == 1
    assert [k[0] for k in geo._PSET_CACHE] == [ref2.hex()]  # replaced, not added
    geo._PSET_CACHE.clear()


def test_s2_cell_to_lonlat_roundtrip():
    rng = np.random.RandomState(9)
    lon = rng.uniform(-179, 179, 500)
    lat = rng.uniform(-85, 85, 500)
    leaf = s2.lonlat_to_cell(lon, lat, 30)
    lo, la = s2.cell_to_lonlat(leaf)
    # leaf cells are ~ centimeter scale: centers within ~1e-5 degrees
    assert np.abs(lo - lon).max() < 1e-5
    assert np.abs(la - lat).max() < 1e-5
    # coarser cells decode to a point still inside the cell
    c10 = s2.lonlat_to_cell(lon, lat, 10)
    lo10, la10 = s2.cell_to_lonlat(c10)
    back = s2.lonlat_to_cell(lo10, la10, 10)
    assert (back == c10).all()


def test_hexcell_children_neighbors():
    lon = np.array([12.3, -77.1, 139.9])
    lat = np.array([45.6, 38.2, -35.0])
    c5 = hexcell.lonlat_to_cell(lon, lat, 5)
    kids = hexcell.cell_children(c5)
    assert kids.shape == (3, 7)
    # every child's parent (by truncation) is the original cell
    for col in range(7):
        assert (hexcell.cell_to_parent(kids[:, col], 5) == c5).all()
    # the center child (digit 0) shares the parent's center
    px, py = hexcell.cell_center(c5)
    kx, ky = hexcell.cell_center(kids[:, 0])
    assert np.allclose(px, kx) and np.allclose(py, ky)
    nbrs = hexcell.cell_neighbors(c5)
    assert nbrs.shape == (3, 6)
    # neighbors are distinct, at the same res, one grid-step away
    R5 = hexcell._GRIDS[5][0]
    for col in range(6):
        assert (hexcell.cell_res(nbrs[:, col]) == 5).all()
        nx, ny = hexcell.cell_center(nbrs[:, col])
        d = np.hypot(nx - px, ny - py)
        assert np.allclose(d, np.sqrt(3.0) * R5, rtol=1e-9)
