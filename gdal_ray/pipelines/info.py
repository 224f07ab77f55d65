"""`gdal vector info` / `gdal raster info` analogs — dataset summaries.

Reference: apps/ogrinfo_lib.cpp (layer schema, feature count, extent,
geometry types) and apps/gdalinfo_lib.cpp (size, bands, statistics).
Distributed shape: one vectorized partial row per batch (count, envelope,
type histogram), reduced on the driver — the partials are tiny regardless
of dataset size.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def vector_info(ds, *, geometry_col: str = "geometry") -> dict:
    """-> {fields, feature_count, extent, geometry_types}. Extent and the
    per-type histogram stream as per-batch partials (no materialization
    of features on the driver)."""
    from gdal_ray.geo import wkb as W
    from gdal_ray.pipelines.steps import _envelope

    schema = ds.schema()
    fields = list(zip(schema.names, [str(t) for t in schema.types]))
    has_geom = geometry_col in schema.names

    def part(t: pa.Table) -> pa.Table:
        n = len(t)
        if not has_geom or n == 0:
            return pa.table({
                "n": pa.array([n], pa.int64()),
                "x0": pa.array([np.inf]), "y0": pa.array([np.inf]),
                "x1": pa.array([-np.inf]), "y1": pa.array([-np.inf]),
                "types": pa.array(["{}"]),
            })
        x0 = y0 = np.inf
        x1 = y1 = -np.inf
        types: dict = {}
        for b in t[geometry_col].to_pylist():
            if b is None:
                types["NULL"] = types.get("NULL", 0) + 1
                continue
            g = W.parse_wkb(b)
            types[g[0]] = types.get(g[0], 0) + 1
            e = _envelope(g)
            x0, y0 = min(x0, e[0]), min(y0, e[1])
            x1, y1 = max(x1, e[2]), max(y1, e[3])
        import json

        return pa.table({
            "n": pa.array([n], pa.int64()),
            "x0": pa.array([x0]), "y0": pa.array([y0]),
            "x1": pa.array([x1]), "y1": pa.array([y1]),
            "types": pa.array([json.dumps(types)]),
        })

    import json

    parts = ds.map_batches(part, batch_format="pyarrow", batch_size=None)
    n = 0
    ext = [np.inf, np.inf, -np.inf, -np.inf]
    types: dict = {}
    for b in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        n += int(b["n"].to_numpy().sum())
        ext[0] = min(ext[0], float(b["x0"].to_numpy().min()))
        ext[1] = min(ext[1], float(b["y0"].to_numpy().min()))
        ext[2] = max(ext[2], float(b["x1"].to_numpy().max()))
        ext[3] = max(ext[3], float(b["y1"].to_numpy().max()))
        for s in b["types"].to_pylist():
            for k, v in json.loads(s).items():
                types[k] = types.get(k, 0) + v
    return {
        "fields": fields,
        "feature_count": n,
        "extent": None if not np.isfinite(ext[0]) else tuple(ext),
        "geometry_types": types,
    }


def raster_info(tiles_ds, *, dtype=np.uint32, nodata=None,
                approx_ok: bool = False) -> dict:
    """-> {tile_count, zoom_levels, tile_range, statistics} for a tile
    table (zoom?, tile_x, tile_y, data)."""
    from gdal_ray.stages.raster import band_statistics
    from gdal_ray.util import to_arrow

    def part(t: pa.Table) -> pa.Table:
        has_zoom = "zoom" in t.column_names
        tx = t["tile_x"].to_numpy(zero_copy_only=False)
        ty = t["tile_y"].to_numpy(zero_copy_only=False)
        zs = (t["zoom"].to_numpy(zero_copy_only=False) if has_zoom
              else np.zeros(len(t), np.int64))
        return pa.table({
            "n": pa.array([len(t)], pa.int64()),
            "zmin": pa.array([int(zs.min()) if len(t) else 0], pa.int64()),
            "zmax": pa.array([int(zs.max()) if len(t) else 0], pa.int64()),
            "tx0": pa.array([int(tx.min()) if len(t) else 0], pa.int64()),
            "tx1": pa.array([int(tx.max()) if len(t) else 0], pa.int64()),
            "ty0": pa.array([int(ty.min()) if len(t) else 0], pa.int64()),
            "ty1": pa.array([int(ty.max()) if len(t) else 0], pa.int64()),
        })

    parts = to_arrow(tiles_ds.map_batches(part, batch_format="pyarrow",
                                          batch_size=None))
    stats = to_arrow(band_statistics(tiles_ds, dtype=dtype, nodata=nodata,
                                     approx_ok=approx_ok)).to_pandas()  # driver-side report
    return {
        "tile_count": int(parts["n"].to_numpy().sum()),
        "zoom_levels": (int(parts["zmin"].to_numpy().min()),
                        int(parts["zmax"].to_numpy().max())),
        "tile_range": (int(parts["tx0"].to_numpy().min()),
                       int(parts["ty0"].to_numpy().min()),
                       int(parts["tx1"].to_numpy().max()),
                       int(parts["ty1"].to_numpy().max())),
        "statistics": stats.to_dict("records"),
    }


def text_corpus_report(ds, *, id_col: str = "doc_id",
                       text_col: str = "text", lang_col: str | None = None):
    """One-row corpus profile (the `gdal dataset info` analog for a text
    corpus): doc count, token totals/means, exact-duplicate rate (HLL
    approximate distinct content fingerprints vs rows), and the dominant
    language share when a lang column exists. All mergeable reductions —
    one pass over the corpus plus the tiny aggregate merges."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from gdal_ray.ops.relational import groupby_agg
    from gdal_ray.ops.sketch import approx_count_distinct
    from gdal_ray.text.analysis import add_fingerprint, add_token_count
    from gdal_ray.util import to_arrow

    d = add_token_count(ds, text_col=text_col, out="__nt")
    agg = to_arrow(groupby_agg(
        d, [], [("n_docs", "count_star", None),
                ("total_tokens", "sum", "__nt"),
                ("mean_tokens", "mean", "__nt"),
                ("max_tokens", "max", "__nt")]))
    fp = add_fingerprint(ds, text_col=text_col, out="__fp")
    approx_distinct = int(round(approx_count_distinct(fp, "__fp")))
    n_docs = int(agg["n_docs"][0].as_py())
    row = {
        "n_docs": n_docs,
        "total_tokens": int(agg["total_tokens"][0].as_py()),
        "mean_tokens": float(agg["mean_tokens"][0].as_py()),
        "max_tokens": int(agg["max_tokens"][0].as_py()),
        "approx_distinct_docs": approx_distinct,
        "approx_dup_rate": round(max(0.0, 1.0 - approx_distinct
                                     / max(n_docs, 1)), 4),
    }
    if lang_col:
        lct = to_arrow(groupby_agg(ds, [lang_col],
                                   [("n", "count_star", None)]))
        lc = lct.to_pandas().sort_values(["n", lang_col],  # driver-side report
                                         ascending=[False, True]).iloc[0]
        row["n_langs"] = int(lct.num_rows)
        row["top_lang"] = str(lc[lang_col])
        row["top_lang_frac"] = round(float(lc["n"]) / max(n_docs, 1), 4)
    return pa.table({k: [v] for k, v in row.items()})


def table_profile(ds, *, ndigits: int = 6):
    """Relational `dataset info`: one output row per COLUMN with row
    count, null count, EXACT distinct count, and numeric min/max/mean
    (null for non-numeric columns). Two distributed passes:

    1. moments: per-batch (n, nulls, sum/min/max) per column — a
       cols-sized partial per batch, merged on the driver.
    2. exact distinct: per-batch-deduped (column, value-as-string) rows
       through ONE tree-merge distinct + a tiny per-column count — one
       shuffle for ALL columns together, string-exact (no hash
       collisions), the same way a 100-TB profile would run.
    """
    import pyarrow.compute as pc

    from gdal_ray.ops.relational import distinct, groupby_agg
    from gdal_ray.util import to_arrow

    schema = ds.schema()
    cols = list(schema.names)
    numeric = {c for c, t in zip(schema.names, schema.types)
               if pa.types.is_integer(t) or pa.types.is_floating(t)}

    def moments(t: pa.Table) -> pa.Table:
        rows = {"column": [], "n": [], "n_null": [], "s": [], "lo": [],
                "hi": []}
        for c in cols:
            a = t[c]
            rows["column"].append(c)
            rows["n"].append(len(t))
            rows["n_null"].append(a.null_count)
            if c in numeric and len(t) > a.null_count:
                d = pc.cast(a, pa.float64())
                rows["s"].append(pc.sum(d).as_py() or 0.0)
                rows["lo"].append(pc.min(d).as_py())
                rows["hi"].append(pc.max(d).as_py())
            else:
                rows["s"].append(0.0)
                rows["lo"].append(None)
                rows["hi"].append(None)
        return pa.table({
            "column": pa.array(rows["column"], pa.string()),
            "n": pa.array(rows["n"], pa.int64()),
            "n_null": pa.array(rows["n_null"], pa.int64()),
            "s": pa.array(rows["s"], pa.float64()),
            "lo": pa.array(rows["lo"], pa.float64()),
            "hi": pa.array(rows["hi"], pa.float64()),
        })

    mom = to_arrow(groupby_agg(
        ds.map_batches(moments, batch_format="pyarrow", batch_size=None),
        ["column"],
        [("n", "sum", "n"), ("n_null", "sum", "n_null"), ("s", "sum", "s"),
         ("lo", "min", "lo"), ("hi", "max", "hi")]))

    def explode_vals(t: pa.Table) -> pa.Table:
        outc, outv = [], []
        for c in cols:
            v = pc.drop_null(pc.cast(t[c], pa.string())).unique()
            outc.append(pa.array([c] * len(v), pa.string()))
            outv.append(v)
        return pa.table({"column": pa.concat_arrays(outc),
                         "v": pa.concat_arrays([x.combine_chunks()
                                                if isinstance(x, pa.ChunkedArray)
                                                else x for x in outv])})

    vals = ds.map_batches(explode_vals, batch_format="pyarrow",
                          batch_size=None)
    nd = to_arrow(groupby_agg(distinct(vals, ["column", "v"]), ["column"],
                              [("n_distinct", "count_star", None)]))

    md = mom.to_pandas().set_index("column")  # driver-side report
    dd = nd.to_pandas().set_index("column")["n_distinct"]
    rnd = lambda v: None if v is None else float(np.copysign(
        np.floor(abs(v) * 10.0**ndigits + 0.5) / 10.0**ndigits, v))
    out = {"column": [], "n": [], "n_null": [], "n_distinct": [],
           "min_num": [], "max_num": [], "mean_num": []}
    for c in cols:  # schema order
        r = md.loc[c]
        n, nn = int(r["n"]), int(r["n_null"])
        out["column"].append(c)
        out["n"].append(n)
        out["n_null"].append(nn)
        out["n_distinct"].append(int(dd.get(c, 0)))
        if c in numeric and n > nn:
            out["min_num"].append(float(r["lo"]))
            out["max_num"].append(float(r["hi"]))
            out["mean_num"].append(rnd(float(r["s"]) / (n - nn)))
        else:
            out["min_num"].append(None)
            out["max_num"].append(None)
            out["mean_num"].append(None)
    return pa.table({k: pa.array(v) for k, v in out.items()})
