"""GeoPackage (OGC GPKG, SQLite-based) vector reader — from scratch over
the stdlib sqlite3 module.

Reference: ogr/ogrsf_frmts/gpkg. Layers come from `gpkg_contents`
(data_type = 'features'); the geometry column and SRS from
`gpkg_geometry_columns`; each geometry value is a GPKG blob: magic
"GP", version, flags (bit 0 endian, bits 1-3 envelope type -> 0/32/
48/48/64-byte envelope, bit 4 empty geometry, bit 5 extended type),
int32 srs_id, envelope, then standard WKB — the reader strips the
header and returns plain WKB, matching the other vector drivers.

Parity gate (cross-format oracle): the reference's poly_golden.gpkg is
ogr2ogr's conversion of poly.shp — reading it must reproduce our
Shapefile reader's output of data/poly.shp FEATURE-FOR-FEATURE
(identical attributes and identical WKB bytes), plus ogr_shape.py's own
attribute-filter expectation (eas_id < 170 -> [168, 169, 166, 158,
165]).
"""

from __future__ import annotations

import sqlite3
import struct

import numpy as np
import pyarrow as pa

__all__ = ["gpkg_layers", "read_gpkg_table", "read_gpkg"]

_ENVELOPE_BYTES = {0: 0, 1: 32, 2: 48, 3: 48, 4: 64}


def gpkg_geom_to_wkb(blob: bytes) -> bytes | None:
    """GPKG geometry blob -> plain WKB (None for NULL/empty header)."""
    if blob is None:
        return None
    if len(blob) < 8 or blob[:2] != b"GP":
        raise ValueError("not a GPKG geometry blob")
    flags = blob[3]
    env = (flags >> 1) & 0x07
    if env not in _ENVELOPE_BYTES:
        raise ValueError(f"invalid GPKG envelope indicator {env}")
    if flags & 0x20:
        raise ValueError("ExtendedGeoPackageBinary geometry blobs are not supported")
    if flags & 0x10:  # empty-geometry flag
        return None
    return bytes(blob[8 + _ENVELOPE_BYTES[env]:])


def gpkg_layers(path: str) -> list[dict]:
    con = sqlite3.connect(path)
    try:
        out = []
        for name, ident in con.execute(
                "SELECT table_name, identifier FROM gpkg_contents "
                "WHERE data_type = 'features'"):
            gc = con.execute(
                "SELECT column_name, geometry_type_name, srs_id FROM "
                "gpkg_geometry_columns WHERE table_name = ?",
                (name,)).fetchone()
            out.append({"table": name, "identifier": ident,
                        "geometry_column": gc[0] if gc else None,
                        "geometry_type": gc[1] if gc else None,
                        "srs_id": gc[2] if gc else None})
        return out
    finally:
        con.close()


def read_gpkg_table(path: str, table: str | None = None,
                    *, columns=None) -> pa.Table:
    """One feature layer -> pyarrow Table: FID, plain-WKB geometry,
    typed attributes (sqlite affinity -> arrow)."""
    layers = gpkg_layers(path)
    if not layers:
        raise ValueError(f"{path}: no feature layers in gpkg_contents")
    if table is None:
        table = layers[0]["table"]
    meta = next((l for l in layers if l["table"] == table), None)
    if meta is None:
        raise ValueError(f"layer {table!r} not in {path}")
    gcol = meta["geometry_column"]
    con = sqlite3.connect(path)
    try:
        info = con.execute(
            f'PRAGMA table_info("{table}")').fetchall()
        pk = next((r[1] for r in info if r[5]), None)
        names = [r[1] for r in info]
        if columns is not None:
            names = [n for n in names
                     if n in columns or n == gcol or n == pk]
        sel = ", ".join(f'"{n}"' for n in names)
        rows = con.execute(f'SELECT {sel} FROM "{table}"').fetchall()
    finally:
        con.close()
    cols: dict[str, list] = {n: [] for n in names}
    for r in rows:
        for n, v in zip(names, r):
            cols[n].append(v)
    out = {}
    for n in names:
        if n == gcol:
            out["geometry"] = pa.array(
                [gpkg_geom_to_wkb(v) for v in cols[n]], pa.binary())
        elif n == pk:
            out["FID"] = pa.array(
                [v - 1 if v is not None else None for v in cols[n]],
                pa.int64())  # gpkg fids are 1-based like shapefile recs
        else:
            out[n] = pa.array(cols[n])
    return pa.table(out)


def read_gpkg(path: str, table: str | None = None, **kwargs):
    """Driver entry: .gpkg feature layer -> Dataset (driver-side read —
    GPKG is a fixture/exchange format; big vector data lives in
    GeoParquet)."""
    import ray.data as rd

    return rd.from_arrow(read_gpkg_table(path, table, **kwargs))


def read_gpkg_raster(path: str, table: str | None = None,
                     zoom: int | None = None):
    """GPKG tiles layer -> (array (h, w[, bands]), geotransform). Tile
    blobs decode by magic with the REPO'S OWN codecs (raster/png.py,
    raster/jpeg.py); the mosaic is cropped to the gpkg_contents bounds.
    Parity: the reference's byte.gpkg decodes to the canonical checksum
    4672 through this path (autotest/gdrivers/gpkg.py:3550)."""
    con = sqlite3.connect(path)
    try:
        row = con.execute(
            "SELECT table_name, min_x, min_y, max_x, max_y FROM "
            "gpkg_contents WHERE data_type = 'tiles'"
            + ("" if table is None else " AND table_name = ?"),
            (() if table is None else (table,))).fetchone()
        if row is None:
            raise ValueError(f"{path}: no tiles layer")
        table, cmin_x, cmin_y, cmax_x, cmax_y = row
        if zoom is None:
            (zoom,) = con.execute(
                f'SELECT MAX(zoom_level) FROM "{table}"').fetchone()
        tm = con.execute(
            "SELECT matrix_width, matrix_height, tile_width, "
            "tile_height, pixel_x_size, pixel_y_size FROM "
            "gpkg_tile_matrix WHERE table_name = ? AND zoom_level = ?",
            (table, zoom)).fetchone()
        if tm is None:
            raise ValueError(f"no tile matrix for zoom {zoom}")
        mw, mh, tw, th, pxx, pxy = tm
        sm = con.execute(
            "SELECT min_x, min_y, max_x, max_y FROM gpkg_tile_matrix_set"
            " WHERE table_name = ?", (table,)).fetchone()
        smin_x, smin_y, smax_x, smax_y = sm
        tiles = con.execute(
            f'SELECT tile_column, tile_row, tile_data FROM "{table}" '
            "WHERE zoom_level = ?", (zoom,)).fetchall()
    finally:
        con.close()
    from gdal_ray.raster.jpeg import decode_jpeg
    from gdal_ray.raster.png import decode_png

    mosaic = None
    for tc, tr, blob in tiles:
        b = bytes(blob)
        if b[:8] == b"\x89PNG\r\n\x1a\n":
            img = decode_png(b)
        elif b[:2] == b"\xff\xd8":
            img = decode_jpeg(b)
        else:
            raise NotImplementedError("GPKG tile codec (webp?)")
        if img.ndim == 2:
            img = img[:, :, None]
        if mosaic is None:
            mosaic = np.zeros((mh * th, mw * tw, img.shape[2]),
                              img.dtype)
        mosaic[tr * th:tr * th + img.shape[0],
               tc * tw:tc * tw + img.shape[1], :img.shape[2]] = img
    if mosaic is None:
        raise ValueError("tiles layer is empty")
    # crop to contents bounds (pixel-aligned)
    c0 = int(round((cmin_x - smin_x) / pxx))
    r0 = int(round((smax_y - cmax_y) / pxy))
    w = int(round((cmax_x - cmin_x) / pxx))
    h = int(round((cmax_y - cmin_y) / pxy))
    out = mosaic[r0:r0 + h, c0:c0 + w]
    gt = (cmin_x, pxx, 0.0, cmax_y, 0.0, -pxy)
    return (out[:, :, 0] if out.shape[2] == 1 else out), gt
