"""The pipeline-step registry — Ray restatement of the `gdal vector
pipeline read ... ! step ... ! write ...` framework (apps/gdalalg_vector_
pipeline.cpp:144-204 step registry; apps/gdalvectorpipelinestepalgorithm.h:
256-287 TranslateFeature flat-map protocol; §2.12 user-extension surface).

A step is a factory: kwargs -> (Dataset -> Dataset). Register with
@step("name"). `run_pipeline([("read", {...}), ("filter", {...}), ...])`
chains them — each step is a lazy Dataset transform; Ray's streaming
executor is the pull loop.

Geometry steps operate on a WKB `geometry` column (ogc.wkb convention).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from gdal_ray.geo import wkb as W
from gdal_ray.vector import geomfuncs as GF

STEPS: dict[str, Callable[..., Callable]] = {}


def step(name: str):
    def deco(factory):
        STEPS[name] = factory
        return factory

    return deco


def run_pipeline(spec: list[tuple[str, dict[str, Any]]], ds=None):
    """spec: ordered [(step_name, kwargs)]. First step usually 'read'."""
    for name, kwargs in spec:
        if name not in STEPS:
            raise KeyError(f"unknown pipeline step {name!r}; known: {sorted(STEPS)}")
        transform = STEPS[name](**kwargs)
        ds = transform(ds)
    return ds


def map_geoms(fn):
    """Lift a geom->geom function to a batch transform over the WKB col."""

    def batch_fn(t: pa.Table) -> pa.Table:
        geoms = [
            None if b is None else W.geom_to_wkb(fn(W.parse_wkb(b)))
            for b in t["geometry"].to_pylist()
        ]
        idx = t.schema.get_field_index("geometry")
        return t.set_column(idx, "geometry", pa.array(geoms, pa.binary()))

    return batch_fn


# ---- sources / sinks -------------------------------------------------------


@step("read")
def _read(path: str, columns=None, filter=None):
    import ray.data as rd

    def run(_):
        kw = {}
        if columns:
            kw["columns"] = list(columns)
        if filter is not None:
            kw["filter"] = filter
        return rd.read_parquet(path, **kw)

    return run


@step("info")
def _info(geometry_col: str = "geometry"):
    """`gdal vector info` analog: prints a JSON summary (fields, feature
    count, extent, geometry-type histogram) and passes the dataset
    through unchanged."""
    import json

    from gdal_ray.pipelines.info import vector_info

    def run(ds):
        print(json.dumps(vector_info(ds, geometry_col=geometry_col)))
        return ds

    return run


@step("open")
def _open(uri: str):
    """Driver-registry open (`scheme://path`) — the Python driver loader
    surface (gcore/gdalpythondriverloader.cpp): built-ins parquet/
    geoparquet/csv/geojson plus gdal_ray.sources.register_driver'd ones."""
    from gdal_ray.sources import open_source

    return lambda _: open_source(uri)


@step("read_csv")
def _read_csv(path: str, geometry: str = "auto", x_col=None, y_col=None,
              wkt_col=None):
    """OGR CSV driver analog (schema inference + X/Y/WKT geometry
    building) — sources.text.read_csv."""
    from gdal_ray.sources.text import read_csv

    return lambda _: read_csv(path, geometry=geometry, x_col=x_col,
                              y_col=y_col, wkt_col=wkt_col)


@step("read_geojson")
def _read_geojson(path: str):
    """OGR GeoJSON driver analog — sources.text.read_geojson."""
    from gdal_ray.sources.text import read_geojson

    return lambda _: read_geojson(path)


@step("write_geojson")
def _write_geojson(path: str, geometry_col: str = "geometry"):
    from gdal_ray.sources.text import write_geojson

    def run(ds):
        write_geojson(ds, path, geometry_col=geometry_col)
        return ds

    return run


@step("read_jsonl")
def _read_jsonl(path: str):
    """Newline-delimited JSON read (Ray-native parallel reader)."""
    import ray.data as rd

    return lambda _: rd.read_json(path)


@step("write_jsonl")
def _write_jsonl(path: str):
    """Newline-delimited JSON write — one .json file per block, the
    LLM-corpus interchange layout (resumable at file granularity)."""

    def run(ds):
        ds.write_json(path)
        return ds

    return run


@step("read_geo")
def _read_geo(path: str, bbox=None, columns=None):
    """GeoParquet read with bbox row-group pruning (sources.geoparquet)."""
    from gdal_ray.sources.geoparquet import read_geoparquet

    return lambda _: read_geoparquet(path, bbox=bbox, columns=columns)


@step("write_geo")
def _write_geo(path: str, geometry_col: str = "geometry"):
    """GeoParquet write: bbox covering column + `geo` metadata."""
    from gdal_ray.sources.geoparquet import write_geoparquet

    def run(ds):
        write_geoparquet(ds, path, geometry_col=geometry_col).count()
        return ds

    return run


@step("write")
def _write(path: str, partition_cols=None, mode: str = "overwrite"):
    def run(ds):
        kw = {}
        if partition_cols:
            kw["partition_cols"] = list(partition_cols)
        ds.write_parquet(path, **kw)
        return ds

    return run


@step("tile_png")
def _tile_png(out: str, zoom: int = 6, lon_col: str = "lon",
              lat_col: str = "lat", mode: str = "gray16"):
    """`gdal raster tile` with ENCODED payloads
    (apps/gdalalg_raster_tile.cpp writes PNG/JPEG/WebP): burn the input
    points into the zoom-level density raster and write a resumable
    {out}/{z}/{x}/{y}.png XYZ tree (raster/png.py codec; existing files
    skip, so re-runs only fill the gaps)."""

    def run(ds):
        from gdal_ray.stages.raster import (points_to_tile_counts,
                                            write_tiles_png)

        tiles = points_to_tile_counts(ds, int(zoom), lon_col=lon_col,
                                      lat_col=lat_col)
        return write_tiles_png(tiles, out, mode=mode)

    return run


# ---- relational steps ------------------------------------------------------


@step("filter")
def _filter(expr=None, bbox=None):
    """expr: callable(pa.Table)->BooleanArray; bbox: (minx,miny,maxx,maxy)
    on point lon/lat columns or WKB envelope."""

    def run(ds):
        def f(t: pa.Table) -> pa.Table:
            mask = None
            if expr is not None:
                mask = expr(t)
            if bbox is not None:
                if "lon" in t.column_names:
                    m2 = pc.and_(
                        pc.and_(pc.greater_equal(t["lon"], bbox[0]), pc.less_equal(t["lon"], bbox[2])),
                        pc.and_(pc.greater_equal(t["lat"], bbox[1]), pc.less_equal(t["lat"], bbox[3])),
                    )
                else:
                    keep = []
                    for b in t["geometry"].to_pylist():
                        x0, y0, x1, y1 = _envelope(W.parse_wkb(b))
                        keep.append(not (x1 < bbox[0] or bbox[2] < x0 or y1 < bbox[1] or bbox[3] < y0))
                    m2 = pa.array(keep)
                mask = m2 if mask is None else pc.and_(mask, m2)
            return t.filter(mask)

        return ds.map_batches(f, batch_format="pyarrow", batch_size=None)

    return run


def _envelope(geom):
    pts = GF._geom_points(geom)
    return pts[:, 0].min(), pts[:, 1].min(), pts[:, 0].max(), pts[:, 1].max()


@step("select")
def _select(fields: list[str], rename: dict[str, str] | None = None):
    def run(ds):
        ds = ds.select_columns(list(fields))
        if rename:
            def f(t: pa.Table) -> pa.Table:
                return t.rename_columns([rename.get(c, c) for c in t.column_names])

            ds = ds.map_batches(f, batch_format="pyarrow", batch_size=None)
        return ds

    return run


@step("limit")
def _limit(n: int):
    return lambda ds: ds.limit(n)


@step("edit")
def _edit(rename: dict | None = None, set_fields: dict | None = None,
          drop: list | None = None, domains: dict | None = None):
    """`gdal vector edit` (apps/gdalalg_vector_edit.cpp): rename / set /
    drop fields, plus field-domain validation (OGRFieldDomain,
    ogr/ogr_feature.h:1779). domains: {col: spec} with spec
    {"kind": "coded", "values": [...]} or {"kind": "range", "min": m,
    "max": M}, optional "policy": "error" (default, raise on violation) |
    "null" (null out offending values, the reference's SetNull coercion)."""

    def run(ds):
        def f(t: pa.Table) -> pa.Table:
            if drop:
                t = t.drop_columns([c for c in drop if c in t.column_names])
            for col, spec in (domains or {}).items():
                v = t[col]
                if spec["kind"] == "coded":
                    ok = pc.is_in(v, value_set=pa.array(spec["values"]))
                elif spec["kind"] == "range":
                    ok = pc.and_(
                        pc.greater_equal(v, spec["min"]),
                        pc.less_equal(v, spec["max"]),
                    )
                else:
                    raise ValueError(f"unknown domain kind {spec['kind']!r}")
                ok = pc.fill_null(ok, False)
                ok = pc.or_(ok, pc.is_null(v))  # nulls always pass domains
                if spec.get("policy", "error") == "null":
                    bad = pc.invert(ok)
                    col_v = pc.if_else(bad, pa.scalar(None, type=v.type), v)
                    t = t.set_column(t.schema.get_field_index(col), col, col_v)
                elif not pc.all(ok).as_py():
                    n_bad = len(t) - pc.sum(pc.cast(ok, pa.int64())).as_py()
                    raise ValueError(
                        f"field domain violation: {n_bad} value(s) of {col!r} "
                        f"outside {spec['kind']} domain"
                    )
            for col, val in (set_fields or {}).items():
                arr = pa.array([val] * len(t))
                if col in t.column_names:
                    t = t.set_column(t.schema.get_field_index(col), col, arr)
                else:
                    t = t.append_column(col, arr)
            if rename:
                t = t.rename_columns([rename.get(c, c) for c in t.column_names])
            return t

        return ds.map_batches(f, batch_format="pyarrow", batch_size=None)

    return run


@step("sql")
def _sql(query: str, sf_dir: str):
    """`gdal vector sql` — compile a SELECT (OGR-dialect subset) to Ray ops
    via gdal_ray.ops.sql; opens its own table like the reference step.
    The incoming dataset is additionally bound as table name `input`
    (FROM input / JOIN input), mirroring ExecuteSQL's implicit layer."""
    from gdal_ray.ops.sql import execute, register_table, unregister_table

    def run(ds):
        if ds is not None:
            register_table("input", ds)
        try:
            return execute(query, sf_dir)
        finally:
            # resolution is eager inside execute(); the binding is only
            # needed while the plan is built
            if ds is not None:
                unregister_table("input")

    return run


@step("sql_like")
def _sql_like(column: str, pattern: str, ignore_case: bool = False):
    def run(ds):
        return ds.map_batches(
            lambda t: t.filter(pc.match_like(t[column], pattern, ignore_case=ignore_case)),
            batch_format="pyarrow", batch_size=None,)

    return run


# ---- geometry steps --------------------------------------------------------


@step("make-point")
def _make_point(x_col: str = "lon", y_col: str = "lat"):
    """Build WKB point geometry from numeric columns (vectorized)."""

    def run(ds):
        def f(t: pa.Table) -> pa.Table:
            lon = np.asarray(t[x_col].to_numpy(zero_copy_only=False), dtype=np.float64)
            lat = np.asarray(t[y_col].to_numpy(zero_copy_only=False), dtype=np.float64)
            wkbs = W.encode_points(lon, lat)
            if "geometry" in t.column_names:
                t = t.drop_columns(["geometry"])
            return t.append_column("geometry", pa.array(wkbs, pa.binary()))

        return ds.map_batches(f, batch_format="pyarrow", batch_size=None)

    return run


@step("lineref")
def _lineref(line: str = "", x_col: str = "lon", y_col: str = "lat",
             measure_col: str = "measure", offset_col: str = "offset"):
    """Linear referencing (ogrlineref -get_pos; apps/ogrlineref.cpp):
    measure along + offset from a reference LINESTRING (WKT) for every
    point row. The line broadcasts once in the task closure."""
    from gdal_ray.vector.lineref import locate_points_along_line

    kind, body = W.wkt_to_geom(line)
    if kind != "linestring":
        raise ValueError("lineref needs a LINESTRING WKT `line=`")

    def run(ds):
        return locate_points_along_line(
            ds, body, x_col=x_col, y_col=y_col,
            measure_col=measure_col, offset_col=offset_col)

    return run


@step("reproject")
def _reproject(dst: str = "webmercator", src: str = "lonlat"):
    """`gdal vector reproject`. dst/src: 'lonlat' (EPSG:4326),
    'webmercator' (EPSG:3857), or any EPSG code in the analytic family
    (UTM EPSG:326xx/327xx, LAEA EPSG:3035 — gdal_ray.geo.crs)."""

    def xform(name: str, forward: bool):
        if name in ("lonlat", "EPSG:4326", "4326"):
            return None
        if name in ("webmercator", "EPSG:3857", "3857"):
            return GF.lonlat_to_webmercator if forward else GF.webmercator_to_lonlat
        from gdal_ray.geo.crs import epsg_transformer

        tr = epsg_transformer(name)
        return tr.forward if forward else tr.inverse

    inv = xform(src, forward=False)
    fwd = xform(dst, forward=True)

    def chain(x, y):
        if inv is not None:
            x, y = inv(x, y)
        if fwd is not None:
            x, y = fwd(x, y)
        return x, y

    def run(ds):
        return ds.map_batches(
            map_geoms(lambda g: GF.transform_geom(g, chain)), batch_format="pyarrow", batch_size=None)

    return run


@step("wrap-dateline")
def _wrap_dateline(offset: float = 10.0):
    """ogr2ogr -wrapdateline (apps/ogr2ogr_lib.cpp:8201; constraint at
    :6167): split geometries crossing the antimeridian into parts with
    longitudes in [-180, 180]; `offset` mirrors -datelineoffset."""
    return lambda ds: ds.map_batches(
        map_geoms(lambda g: GF.wrap_dateline(g, offset)),
        batch_format="pyarrow", batch_size=None)


@step("set-precision")
def _set_precision(gridsize: float):
    """ogr2ogr chain set-precision slot (OGRGeometry::SetPrecision,
    ogr/ogrgeometry.cpp): snap coordinates to the gridsize precision
    model before write."""
    return lambda ds: ds.map_batches(
        map_geoms(lambda g: GF.set_precision(g, gridsize)),
        batch_format="pyarrow", batch_size=None)


@step("swap-xy")
def _swap(
):
    return lambda ds: ds.map_batches(map_geoms(GF.swap_xy), batch_format="pyarrow", batch_size=None)


@step("simplify")
def _simplify(tolerance: float):
    return lambda ds: ds.map_batches(
        map_geoms(lambda g: GF.simplify(g, tolerance)), batch_format="pyarrow", batch_size=None)


@step("segmentize")
def _segmentize(max_length: float):
    return lambda ds: ds.map_batches(
        map_geoms(lambda g: GF.segmentize(g, max_length)), batch_format="pyarrow", batch_size=None)


@step("buffer")
def _buffer(distance: float):
    return lambda ds: ds.map_batches(
        map_geoms(lambda g: GF.buffer(g, distance)), batch_format="pyarrow", batch_size=None)


@step("convex-hull")
def _hull():
    return lambda ds: ds.map_batches(map_geoms(GF.convex_hull), batch_format="pyarrow", batch_size=None)


@step("concave-hull")
def _concave_hull(ratio: float = 0.3):
    """`gdal vector concave-hull` (apps/gdalalg_vector_concave_hull.cpp):
    per-feature chi-shape hull of the geometry's vertices; ratio=1 is the
    convex hull, smaller ratios hug tighter (gdal_ray.geo.delaunay)."""
    from gdal_ray.geo.delaunay import concave_hull

    def geom_hull(g):
        pts = GF._geom_points(g)
        rings = concave_hull(pts, ratio=ratio)
        if not rings:
            return GF.convex_hull(g)
        return ("polygon", [rings[0]]) if len(rings) == 1 else (
            "multipolygon", [("polygon", [r]) for r in rings])

    return lambda ds: ds.map_batches(map_geoms(geom_hull), batch_format="pyarrow", batch_size=None)


@step("simplify-coverage")
def _simplify_coverage(tolerance: float):
    """`gdal vector simplify-coverage`: topology-preserving layer
    simplification — shared boundaries simplify identically on both sides
    (gdal_ray.vector.coverage). Whole-layer op (same as the reference);
    the layer's geometry is gathered, arcs simplified once, features
    rebuilt."""
    from gdal_ray.vector.coverage import simplify_coverage_rings

    def run(ds):
        import ray.data as rd

        t = pa.concat_tables(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
        geoms = [W.parse_wkb(b) for b in t["geometry"].to_pylist()]
        rings, owners = [], []
        for fi, (kind, data) in enumerate(geoms):
            if kind == "polygon":
                for ri, r in enumerate(data):
                    rings.append(np.asarray(r, np.float64))
                    owners.append((fi, None, ri))
            elif kind == "multipolygon":
                for pi, (pk, prings) in enumerate(data):
                    for ri, r in enumerate(prings):
                        rings.append(np.asarray(r, np.float64))
                        owners.append((fi, pi, ri))
            else:
                raise ValueError("simplify-coverage requires polygon geometries")
        simp = simplify_coverage_rings(rings, tolerance)
        per_feature: dict = {}
        for (fi, pi, ri), ring in zip(owners, simp):
            per_feature.setdefault(fi, {}).setdefault(pi, []).append(ring)
        out_wkbs = []
        for fi, (kind, _) in enumerate(geoms):
            parts = per_feature.get(fi, {})
            if kind == "polygon":
                out_wkbs.append(W.geom_to_wkb(("polygon", parts.get(None, []))))
            else:
                polys = [("polygon", parts[pi]) for pi in sorted(parts)]
                out_wkbs.append(W.geom_to_wkb(("multipolygon", polys)))
        idx = t.schema.get_field_index("geometry")
        t = t.set_column(idx, "geometry", pa.array(out_wkbs, pa.binary()))
        return rd.from_arrow(t)

    return run


@step("clip")
def _clip(clip_wkt: str):
    """Clip geometries to a polygon (broadcast clip geometry), attributes
    kept — `gdal vector clip` / ogr2ogr -clipsrc."""
    from gdal_ray.vector.algebra import intersection_geom

    clip_geom = W.wkt_to_geom(clip_wkt)

    def run(ds):
        def f(t: pa.Table) -> pa.Table:
            keep_rows, new_geoms = [], []
            for i, b in enumerate(t["geometry"].to_pylist()):
                g = intersection_geom(W.parse_wkb(b), clip_geom)
                if g is not None:
                    keep_rows.append(i)
                    new_geoms.append(W.geom_to_wkb(g))
            sub = t.take(pa.array(keep_rows, pa.int64()))
            idx = sub.schema.get_field_index("geometry")
            return sub.set_column(idx, "geometry", pa.array(new_geoms, pa.binary()))

        return ds.map_batches(f, batch_format="pyarrow", batch_size=None)

    return run


@step("explode-collections")
def _explode_collections():
    """1 multi-geometry row -> N single-geometry rows (flat-map)."""

    def run(ds):
        def f(t: pa.Table) -> pa.Table:
            parents, geoms = [], []
            for i, b in enumerate(t["geometry"].to_pylist()):
                for g in GF.explode_collection(W.parse_wkb(b)):
                    parents.append(i)
                    geoms.append(W.geom_to_wkb(g))
            sub = t.take(pa.array(parents, pa.int64()))
            idx = sub.schema.get_field_index("geometry")
            return sub.set_column(idx, "geometry", pa.array(geoms, pa.binary()))

        return ds.map_batches(f, batch_format="pyarrow", batch_size=None)

    return run


@step("check-geometry")
def _check_geometry(drop_invalid: bool = False):
    """Adds a `geom_problems` column (empty string = valid); optionally
    drops invalid rows — `gdal vector check-geometry`."""

    def run(ds):
        def f(t: pa.Table) -> pa.Table:
            probs = [
                "; ".join(GF.check_geometry(W.parse_wkb(b))) if b is not None else "null"
                for b in t["geometry"].to_pylist()
            ]
            t = t.append_column("geom_problems", pa.array(probs, pa.string()))
            if drop_invalid:
                t = t.filter(pc.equal(t["geom_problems"], ""))
            return t

        return ds.map_batches(f, batch_format="pyarrow", batch_size=None)

    return run


@step("make-valid")
def _make_valid():
    """Close/normalize rings, drop degenerate ones; rows whose geometry
    vanishes entirely are dropped — `gdal vector make-valid` (limited)."""

    def run(ds):
        def f(t: pa.Table) -> pa.Table:
            keep, geoms = [], []
            for i, b in enumerate(t["geometry"].to_pylist()):
                g = GF.make_valid(W.parse_wkb(b)) if b is not None else None
                if g is not None:
                    keep.append(i)
                    geoms.append(W.geom_to_wkb(g))
            sub = t.take(pa.array(keep, pa.int64()))
            idx = sub.schema.get_field_index("geometry")
            return sub.set_column(idx, "geometry", pa.array(geoms, pa.binary()))

        return ds.map_batches(f, batch_format="pyarrow", batch_size=None)

    return run


@step("sort-hilbert")
def _sort_hilbert(order: int = 16):
    """Spatial sort by hilbert code of the geometry centroid — `gdal vector
    sort` (apps/gdalalg_vector_sort.cpp:39-42)."""
    from gdal_ray.geo.hilbert import lonlat_hilbert

    def run(ds):
        def add(t: pa.Table) -> pa.Table:
            cents = np.array(
                [GF.centroid(W.parse_wkb(b)) for b in t["geometry"].to_pylist()]
            )
            if len(cents) == 0:
                return t.append_column("hilbert_key", pa.array([], pa.uint64()))
            return t.append_column(
                "hilbert_key", pa.array(lonlat_hilbert(cents[:, 0], cents[:, 1], order))
            )

        return ds.map_batches(add, batch_format="pyarrow", batch_size=None).sort("hilbert_key")

    return run


@step("dissolve")
def _dissolve(by: str | None = None):
    """Group by attribute (or all) and union geometries — `gdal vector
    dissolve` (apps/gdalalg_vector_dissolve.cpp:120). Union via iterative
    pairwise polygon_boolean; collections for mixed types."""
    from gdal_ray.vector.algebra import _group_rings, _mk_poly_geom, polygon_boolean

    def union_group(g: pa.Table) -> pa.Table:
        geoms = [W.parse_wkb(b) for b in g["geometry"].to_pylist()]
        polys = [p for gm in geoms for p in ([gm] if gm[0] == "polygon" else gm[1] if gm[0] == "multipolygon" else [])]
        if len(polys) != len(geoms):
            merged = GF.collect(geoms)  # non-polygon mix: collect
        else:
            cur = [pol[1] if pol[0] == "polygon" else pol for pol in polys]
            acc = [cur[0]]
            for rings in cur[1:]:
                merged_any = False
                for i, ex in enumerate(acc):
                    u = polygon_boolean(ex, rings, "union")
                    if u and len(_group_rings(u)) == 1:
                        acc[i] = _group_rings(u)[0]
                        merged_any = True
                        break
                if not merged_any:
                    acc.append(rings)
            merged = _mk_poly_geom(acc)
        i = g.column_names.index("geometry")
        return g.slice(0, 1).set_column(
            i, "geometry", pa.array([W.geom_to_wkb(merged)], g["geometry"].type))

    def run(ds):
        def addk(t: pa.Table) -> pa.Table:
            # no schema metadata into the groupby shuffle (see
            # ops.relational.hash_partition_reduce)
            t = t.replace_schema_metadata(None)
            return t if by else t.append_column("__d", pa.array(np.zeros(len(t), np.int8)))

        return ds.map_batches(addk, batch_format="pyarrow", batch_size=None).groupby(
            by or "__d").map_groups(union_group, batch_format="pyarrow")

    return run


# ---- LLM text / graph steps (round 5) --------------------------------------
# the reference's pipeline surface extended with the training-data ops:
# every operator a curation user runs is reachable from the CLI string.


@step("chunk")
def _chunk_step(chunk_tokens, overlap=0, id_col: str = "doc_id",
                text_col: str = "text"):
    """Token-window document chunking (text/packing.chunk_documents)."""
    from gdal_ray.text.packing import chunk_documents

    def run(ds):
        return chunk_documents(ds, id_col=id_col, text_col=text_col,
                               chunk_tokens=int(chunk_tokens),
                               overlap=int(overlap))

    return run


@step("pack")
def _pack_step(max_tokens, id_col: str = "doc_id", text_col: str = "text",
               token_col=None, num_parts=None):
    """Next-fit sequence packing (text/packing.pack_sequences)."""
    from gdal_ray.text.packing import pack_sequences

    def run(ds):
        return pack_sequences(
            ds, id_col=id_col, text_col=text_col, token_col=token_col,
            max_tokens=int(max_tokens),
            num_parts=int(num_parts) if num_parts is not None else None)

    return run


@step("mix")
def _mix_step(weights, key_col: str = "lang", id_col: str = "doc_id",
              seed=0):
    """Importance resampling to a target mixture. weights: 'en:0.4,de:0.6'
    (or a dict when called from Python)."""
    from gdal_ray.text.mixing import resample_to_mixture

    if isinstance(weights, str):
        weights = {k.strip(): float(v) for k, v in
                   (pair.split(":") for pair in weights.split(","))}

    def run(ds):
        return resample_to_mixture(ds, key_col=key_col, id_col=id_col,
                                   weights=weights, seed=int(seed))

    return run


@step("bm25")
def _bm25_step(terms, text_col: str = "text", id_col: str = "doc_id",
               top_k=None, idf: str = "lucene"):
    """BM25 scores for a fixed query. terms: 'data,query,window'."""
    from gdal_ray.text.tfidf import bm25_scores

    if isinstance(terms, str):
        terms = [w.strip() for w in terms.split(",") if w.strip()]

    def run(ds):
        return bm25_scores(ds, terms, text_col=text_col, id_col=id_col,
                           idf=idf,
                           top_k=int(top_k) if top_k is not None else None)

    return run


@step("pagerank")
def _pagerank_step(src_col: str = "src", dst_col: str = "dst",
                   damping=0.85, max_iters=30, tol=1e-9, num_parts=None,
                   checkpoint_dir=None, checkpoint_every=1):
    """Distributed PageRank over an edge table (ops/graph.pagerank);
    checkpoint_dir enables sealed per-iteration resume."""
    from gdal_ray.ops.graph import pagerank

    def run(ds):
        return pagerank(
            ds, src_col=src_col, dst_col=dst_col, damping=float(damping),
            max_iters=int(max_iters), tol=float(tol),
            num_parts=int(num_parts) if num_parts is not None else None,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=int(checkpoint_every))

    return run


@step("bigram-lm")
def _bigram_lm_step(text_col: str = "text", k=0.5,
                    out: str = "bigram_logp", num_parts=16):
    """Self-scored add-k word-bigram LM quality signal
    (text/ngramlm.bigram_lm_score)."""
    from gdal_ray.text.ngramlm import bigram_lm_score

    def run(ds):
        return bigram_lm_score(ds, text_col=text_col, k=float(k), out=out,
                               num_parts=int(num_parts))

    return run


@step("dedup-within-doc")
def _dedup_within_doc_step(text_col: str = "text",
                           out: str = "deduped_text",
                           delimiter: str = " "):
    """Drop repeated units (lines/paragraphs/words) inside each document,
    keeping first occurrences (text/analysis.dedup_within_doc)."""
    from gdal_ray.text.analysis import dedup_within_doc

    def run(ds):
        return dedup_within_doc(ds, text_col=text_col, out=out,
                                delimiter=delimiter)

    return run


@step("quality-score")
def _quality_score_step(label_col: str = "label", text_col: str = "text",
                        out: str = "quality_score", dim=1024, iters=25,
                        lr=2.0, num_parts=16):
    """Train the hashed-BoW logistic quality classifier on the input's
    label column, then score every row (text/classifier)."""
    from gdal_ray.text.classifier import (score_quality,
                                          train_quality_classifier)

    def run(ds):
        w = train_quality_classifier(
            ds, label_col, text_col=text_col, dim=int(dim),
            iters=int(iters), lr=float(lr), num_parts=int(num_parts))
        return score_quality(ds, w, text_col=text_col, out=out)

    return run


@step("bpe-train")
def _bpe_train_step(text_col: str = "text", num_merges=50, min_count=2,
                    num_parts=16):
    """Learn a BPE merge table from the corpus (text/bpe.bpe_train);
    the pipeline result is the ordered merge table."""
    import ray.data as rd

    from gdal_ray.text.bpe import bpe_train

    def run(ds):
        return rd.from_arrow(bpe_train(
            ds, text_col=text_col, num_merges=int(num_merges),
            min_count=int(min_count), num_parts=int(num_parts)))

    return run


@step("bpe-encode")
def _bpe_encode_step(text_col: str = "text", out: str = "bpe_tokens",
                     num_merges=50, min_count=2, num_parts=16):
    """Train BPE merges on the input corpus, then encode it (actor-pool
    stage with a per-actor word cache; text/bpe.bpe_encode)."""
    from gdal_ray.text.bpe import bpe_encode, bpe_train

    def run(ds):
        merges = bpe_train(ds, text_col=text_col,
                           num_merges=int(num_merges),
                           min_count=int(min_count),
                           num_parts=int(num_parts))
        return bpe_encode(ds, merges, text_col=text_col, out=out)

    return run
