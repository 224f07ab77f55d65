"""The north-star pages workload (BASELINE.json):

Common-Crawl-style pages table (url, warc_ts, html, text, lang) ->
extract text + geotag from html -> H3-style/S2 cell encode -> PIP join vs
admin boundary polygons -> WebMercator tile pyramid. The pyramid is one
shuffle: each page emits its tile at every zoom level and a single
aggregate keyed by (zoom, tile_x, tile_y) counts them, so the overview
levels come out of the same exchange as the base zoom (the cell-level
pre-aggregate of GeoBlocks, EDBT 2021). Mirrors the reference pipeline
shapes: ogr2ogr's Arrow fast path for the batch chain
(apps/ogr2ogr_lib.cpp:4246), `gdal raster tile` for the tiling + overview
levels (apps/gdalalg_raster_tile.cpp:1576-1696).

Pages are synthesized DETERMINISTICALLY from the driver's documents table
(no external data): text is a pure function of url, and each page carries
exactly one (lat, lon) embedded in both html and text, with 80% of pages
drawn from K urban hot cells to force H3-cell skew (FIXTURES.md §1).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from gdal_ray.geo import wkb as W
from gdal_ray.ops.relational import groupby_agg
from gdal_ray.stages.geo import add_cell_columns
from gdal_ray.util import splitmix64

# deterministic urban hot-cell centers (lon, lat) — big-city-ish spots
URBAN_CENTERS = np.array(
    [
        (-74.0, 40.7), (2.35, 48.85), (139.7, 35.7), (-0.13, 51.5),
        (116.4, 39.9), (77.2, 28.6), (-46.6, -23.5), (31.2, 30.0),
    ]
)
ADMIN_STEP = 20.0  # diamond-grid admin cell size in (u, v) = (lon+lat, lon-lat)


def page_coords(page_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (lon, lat) per page: 80% gaussian around an urban hot
    cell (sigma 0.05 deg — the skew driver), 20% uniform world-ish."""
    h = splitmix64(page_id)
    u01 = (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    h2 = splitmix64(h)
    u02 = (h2 >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    h3 = splitmix64(h2)
    u03 = (h3 >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    urban = u01 < 0.8
    center = URBAN_CENTERS[(h & np.uint64(0xFFFF)).astype(np.int64) % len(URBAN_CENTERS)]
    # Box-Muller from (u02, u03)
    r = np.sqrt(-2.0 * np.log(np.maximum(u02, 1e-300))) * 0.05
    th = 2.0 * np.pi * u03
    lon_u = center[:, 0] + r * np.cos(th)
    lat_u = center[:, 1] + r * np.sin(th)
    lon_r = u02 * 360.0 - 180.0
    lat_r = u03 * 160.0 - 80.0
    lon = np.where(urban, lon_u, lon_r)
    lat = np.where(urban, lat_u, lat_r)
    # wrap (not clamp) longitudes across the dateline — pages land on both
    # sides of +/-180 and downstream cell/tile math handles them; latitude
    # stays clamped to the WebMercator validity band
    lon = ((lon + 180.0) % 360.0) - 180.0
    return lon, np.clip(lat, -83.99, 83.99)


def synthesize_pages(sf_dir: str, repeat: int = 1):
    """documents.parquet -> pages Dataset (url, warc_ts, html, text, lang).

    Deterministic: page_id = doc_id * repeat + j; url embeds page_id; text =
    document text + a "[geo:lat,lon]" token (pure function of url); html
    wraps text and carries the geo hint as a meta tag. `repeat` scales rows
    without external data (bench knob)."""
    import ray.data as rd

    # default read splitting keeps the scan parallel (single-row-group files
    # cannot be split by override_num_blocks); each tiny doc block expands
    # `repeat`-fold inside gen, so downstream stages see full-size batches
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )

    def fmt6(x: np.ndarray) -> pa.Array:
        """Vectorized fixed-6-decimal formatting (Arrow kernels, no Python
        per-row work): sign + int part + '.' + zero-padded micro part."""
        v = np.round(np.abs(x) * 1e6).astype(np.int64)
        ip = pc.cast(pa.array(v // 1_000_000), pa.string())
        fp = pc.utf8_lpad(pc.cast(pa.array(v % 1_000_000), pa.string()), 6, "0")
        sign = pa.array(np.where(x < 0, "-", ""), pa.string())
        return pc.binary_join_element_wise(sign, ip, ".", fp, "")

    def gen(t: pa.Table) -> pa.Table:
        doc_id = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        out_tables = []
        join = pc.binary_join_element_wise
        for j in range(repeat):
            page_id = doc_id * repeat + j
            lon, lat = page_coords(page_id)
            pid_s = pc.cast(pa.array(page_id), pa.string())
            site_s = pc.cast(pa.array(page_id % 997), pa.string())
            urls = join("https://site", site_s, ".example/p/", pid_s, "")
            lat_s, lon_s = fmt6(lat), fmt6(lon)
            geo = join("[geo:", lat_s, ",", lon_s, "]", "")
            texts = join(t["text"], geo, " ")
            htmls = join(
                '<html><head><meta name="geo.position" content="',
                lat_s, ";", lon_s,
                '"></head><body><p>', texts, "</p></body></html>", "",
            )
            ts = pa.array(
                np.int64(1767225600_000000) + page_id * np.int64(1_000_000),
                type=pa.int64(),
            ).cast(pa.timestamp("us"))
            out_tables.append(
                pa.table(
                    {
                        "url": urls,
                        "warc_ts": ts,
                        "html": pc.cast(htmls, pa.binary()),
                        "text": texts,
                        "lang": t["lang"],
                    }
                )
            )
        return pa.concat_tables(out_tables)

    # batch_size=None: one task per input block. A row-count batch_size here
    # makes Ray BUNDLE the small doc blocks into a handful of giant tasks
    # and serializes the whole fused downstream chain (observed: load 4/32).
    return ds.map_batches(gen, batch_format="pyarrow", batch_size=None)


_META_RE = r'<meta name="geo\.position" content="(?P<glat>-?[0-9.]+);(?P<glon>-?[0-9.]+)">'
_TEXT_RE = r"<p>(?P<gtext>.*)</p>"


def p_body(html):
    """The `gtext` group of `_TEXT_RE` for every row of a string Array or
    ChunkedArray, equal to `pc.struct_field(pc.extract_regex(html,
    _TEXT_RE), "gtext")`.

    On a row without a newline the regex's rule is: the body runs from the
    end of the first `<p>` to the start of the last `</p>` at or after it,
    and is null when either tag is missing or every `</p>` starts before the
    first `<p>` ends. Both ends come from Arrow substring searches (the last
    `</p>` is the first `>p/<` of the byte-reversed row), and the bodies are
    cut out of html's own data buffer through an offsets array of
    alternating (body start, body end) bounds, whose even rows are taken.
    Cutting at ASCII tags keeps the UTF-8 valid. RE2's capture pass, which
    costs several times the searches, runs only on rows that hold a `\\n`:
    RE2's `.` stops there, so those rows follow a per-line rule."""
    if isinstance(html, pa.ChunkedArray):
        return pa.chunked_array([p_body(c) for c in html.chunks], pa.string())
    n = len(html)
    if n == 0:
        return pa.array([], pa.string())

    def ints(a: pa.Array) -> np.ndarray:
        return pc.fill_null(a, -1).to_numpy().astype(np.int64)

    first = ints(pc.find_substring(html, "<p>"))
    last_rev = ints(pc.find_substring(
        pc.binary_reverse(html.view(pa.binary())), ">p/<"))
    size = ints(pc.binary_length(html))
    _, offs_buf, data = html.buffers()
    offs = np.frombuffer(offs_buf, np.int32, n + 1, html.offset * 4)
    row0 = offs[:-1].astype(np.int64)
    start = row0 + first + 3
    end = row0 + size - last_rev - 4
    # one byte compare over the whole data range is ~8x cheaper than a
    # per-row substring search, and pages seldom hold a newline
    newline = np.zeros(n, bool)
    if data is not None and (np.frombuffer(
            data, np.uint8, offs[-1] - offs[0], offs[0]) == 10).any():
        newline = pc.fill_null(pc.match_substring(html, "\n"), False
                               ).to_numpy(zero_copy_only=False)
    ok = (first >= 0) & (last_rev >= 0) & (end >= start) & ~newline
    # row k is [bounds[2k], bounds[2k+1]); a row with no fast match gets an
    # empty range at its own start, which keeps the bounds non-decreasing
    bounds = np.empty(2 * n + 1, np.int32)
    bounds[0:-1:2] = np.where(ok, start, row0)
    bounds[1:-1:2] = np.where(ok, end, row0)
    bounds[-1] = offs[-1]
    cuts = pa.Array.from_buffers(
        pa.string(), 2 * n,
        [None, pa.py_buffer(bounds), data or pa.py_buffer(b"")])
    body = cuts.take(pa.array(np.arange(0, 2 * n, 2), mask=~ok))
    if newline.any():
        slow = pc.extract_regex(html.filter(pa.array(newline)), _TEXT_RE)
        body = pc.replace_with_mask(
            body, pa.array(newline), pc.struct_field(slow, "gtext"))
    return body


def extract_stage(ds, *, check: bool = True):
    """html -> (lat, lon) from the geo.position meta tag (an RE2 capture).

    With check=True the `<p>` body of each page (`p_body`: Arrow substring
    searches on rows without a newline, RE2 on the rows that hold one,
    because RE2's `.` stops at `\\n`) must be byte-identical to the shipped
    `text` column (BASELINE.json per-row invariant); a page that breaks it
    raises AssertionError naming its url. With check=False the body is not
    extracted at all. Either way html is dropped before any shuffle."""

    def f(t: pa.Table) -> pa.Table:
        html = pc.cast(t["html"], pa.string())
        meta = pc.extract_regex(html, _META_RE)
        t = t.append_column(
            "lat", pc.cast(pc.struct_field(meta, "glat"), pa.float64()))
        t = t.append_column(
            "lon", pc.cast(pc.struct_field(meta, "glon"), pa.float64()))
        if check:
            ok = pc.equal(p_body(html), t["text"])
            if not pc.all(ok).as_py():
                bad = t.filter(pc.invert(pc.fill_null(ok, False)))
                raise AssertionError(
                    f"text byte-identity violated for {bad.num_rows} urls, "
                    f"e.g. {bad['url'][0].as_py()!r}"
                )
        # project away the heavy payload before any shuffle (SURVEY §7.5.6)
        return t.drop_columns(["html"])

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


@functools.cache
def admin_grid_polygons() -> pa.Table:
    """Deterministic world-covering diamond grid (rotated squares in
    (u, v) = (lon+lat, lon-lat), step ADMIN_STEP). Diamonds are genuinely
    non-axis-aligned in lon/lat — the PIP is a real ray-casting test — while
    membership stays ANSI-SQL-expressible (floor((lon+lat)/step) etc.) for
    the DuckDB oracles. Built once per process: the table is immutable."""
    polys, ids, names = [], [], []
    k = int(np.ceil(270.0 / ADMIN_STEP))
    for i in range(-k, k):
        for j in range(-k, k):
            u0, v0 = i * ADMIN_STEP, j * ADMIN_STEP
            u1, v1 = u0 + ADMIN_STEP, v0 + ADMIN_STEP
            corners_uv = [(u0, v0), (u1, v0), (u1, v1), (u0, v1), (u0, v0)]
            ring = np.array([((u + v) / 2.0, (u - v) / 2.0) for u, v in corners_uv])
            # keep only cells that can intersect the lon/lat world box
            if ring[:, 0].max() < -180 or ring[:, 0].min() > 180:
                continue
            if ring[:, 1].max() < -86 or ring[:, 1].min() > 86:
                continue
            polys.append(W.encode_polygon([ring]))
            ids.append((i + 64) * 1000 + (j + 64))
            names.append(f"adm_{i}_{j}")
    return pa.table(
        {
            "admin_id": pa.array(ids, pa.int64()),
            "admin_name": pa.array(names, pa.string()),
            "geometry": pa.array(polys, pa.binary()),
        }
    )


def flagship(sf_dir: str, *, repeat: int = 1, zoom: int = 9, min_zoom: int = 5):
    """The full north-star pipeline. Returns the tile pyramid Dataset
    (zoom int32, tile_x, tile_y, n_pages int64, n_admins int64): one row per
    occupied tile at every zoom from `min_zoom` to `zoom` (only `zoom` when
    min_zoom > zoom)."""
    import ray

    from gdal_ray.stages.geo import pip_join_fn

    pages = synthesize_pages(sf_dir, repeat=repeat)
    pages = extract_stage(pages, check=True)
    # project early (SetIgnoredFields discipline, SURVEY §7.5.6): after the
    # byte-identity check only the coordinates feed the join/shuffle — the
    # text payload must not ride through every downstream block
    pages = pages.select_columns(["lat", "lon"])
    pages = add_cell_columns(
        pages, hex_res=(5, 9), s2_level=16, tile_zooms=(zoom,), hilbert_order=None
    )
    admin_ref = ray.put(admin_grid_polygons())
    # stateless tasks + per-worker PolygonSet cache: elastic, no actor-spawn
    # latency; the polygon table is broadcast once via the object store
    joined = pages.map_batches(
        pip_join_fn(admin_ref, how="left"), batch_format="pyarrow", batch_size=None)
    return tile_pyramid(joined, zoom=zoom, min_zoom=min_zoom)


def tile_pyramid(ds, *, zoom: int, min_zoom: int):
    """Pages with `tile_x_z{zoom}`, `tile_y_z{zoom}` and `admin_id` -> the
    tile pyramid (zoom, tile_x, tile_y, n_pages, n_admins) at every zoom
    from `min_zoom` to `zoom`."""
    xcol, ycol = f"tile_x_z{zoom}", f"tile_y_z{zoom}"

    def pyramid(t: pa.Table) -> pa.Table:
        # each page's tile at every zoom: the zoom-z parent of a tile is
        # tile >> (zoom - z), so each page counts once per zoom level
        return pa.concat_tables([
            pa.table({
                "zoom": pa.array(np.full(len(t), z, dtype=np.int32)),
                "tile_x": pc.shift_right(t[xcol], zoom - z),
                "tile_y": pc.shift_right(t[ycol], zoom - z),
                "admin_id": t["admin_id"],
            })
            for z in range(zoom, min(min_zoom, zoom) - 1, -1)
        ])

    # the whole pyramid is ONE aggregate keyed by (zoom, tile): every zoom
    # level is a key of the same exchange. The combiner collapses each block
    # to one row per (zoom, tile), so the hot-cell skew never ships raw rows.
    return groupby_agg(
        ds.map_batches(pyramid, batch_format="pyarrow", batch_size=None),
        ["zoom", "tile_x", "tile_y"],
        [("n_pages", "count_star", None), ("n_admins", "count", "admin_id")],
    )


def flagship_to_parquet(sf_dir: str, out_dir: str, *, repeat: int = 1,
                        zoom: int = 9, min_zoom: int = 5):
    """Flagship with RESUMABLE output: the per-zoom tile aggregates are
    written as per-(zoom, coarse-tile-region) partitions with lineage
    manifests; a restart recomputes only missing partitions' rows at the
    write stage (gdal raster tile --resume semantics). Returns the manifest
    Dataset of the run."""
    import pyarrow.compute as pc_

    from gdal_ray.state.manifest import write_partitioned_resumable

    tiles = flagship(sf_dir, repeat=repeat, zoom=zoom, min_zoom=min_zoom)

    def part_key(t: pa.Table) -> pa.Table:
        # partition key = (zoom, tile_x >> 4): bounded region files
        key = pc_.binary_join_element_wise(
            pc_.cast(t["zoom"], pa.string()),
            pc_.cast(pc_.shift_right(t["tile_x"], 4), pa.string()),
            "_",
        )
        return t.append_column("part", key)

    keyed = tiles.map_batches(part_key, batch_format="pyarrow", batch_size=None)
    return write_partitioned_resumable(keyed, out_dir, "part")
