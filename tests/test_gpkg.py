"""GeoPackage reader vs the reference's fixtures — the strongest check
is CROSS-FORMAT: poly_golden.gpkg is ogr2ogr's conversion of poly.shp,
so our GPKG reader must agree with our independent Shapefile reader
feature-for-feature, down to the WKB bytes."""

import struct

import numpy as np
import pytest

from gdal_ray.sources.gpkg import (gpkg_geom_to_wkb, gpkg_layers,
                                   read_gpkg_table)
from gdal_ray.sources.shapefile import read_shapefile_table

GPKG = "/root/reference/autotest/ogr/data/gpkg"


@pytest.mark.parametrize("fixture", ["poly_golden.gpkg",
                                     "poly_golden_gpkg_1_4.gpkg"])
def test_cross_format_parity_with_shapefile(fixture):
    g = read_gpkg_table(f"{GPKG}/{fixture}")
    s = read_shapefile_table("/root/reference/autotest/ogr/data/poly.shp")
    assert g.num_rows == s.num_rows == 10
    for c in ("FID", "AREA", "EAS_ID", "PRFEDEA"):
        assert g[c].to_pylist() == s[c].to_pylist(), c
    # geometry WKB BYTE-identical between the two readers
    assert g["geometry"].to_pylist() == s["geometry"].to_pylist()


def test_ogr_shape_expectation_on_gpkg():
    # ogr_shape.py's canonical filter expectation, replayed on the GPKG
    # copy: eas_id < 170 -> [168, 169, 166, 158, 165] in fid order
    g = read_gpkg_table(f"{GPKG}/poly_golden.gpkg")
    eas = [v for v in g["EAS_ID"].to_pylist() if v < 170]
    assert eas == [168, 169, 166, 158, 165]


def test_layers_metadata():
    (layer,) = gpkg_layers(f"{GPKG}/poly_golden.gpkg")
    assert layer["table"] == "poly"
    assert layer["geometry_type"] == "POLYGON"
    assert layer["srs_id"] == 27700


def test_null_geometry_and_envelopes():
    t = read_gpkg_table(f"{GPKG}/first_geometry_null.gpkg")
    geoms = t["geometry"].to_pylist()
    assert geoms[0] is None and geoms[1] is not None
    t2 = read_gpkg_table(f"{GPKG}/2d_envelope.gpkg")
    assert all(v is not None for v in t2["geometry"].to_pylist())


def test_blob_errors():
    with pytest.raises(ValueError):
        gpkg_geom_to_wkb(b"XXnot a gpkg geometry blob")
    assert gpkg_geom_to_wkb(None) is None


def _gp_blob(flags: int, envelope: bytes = b"") -> bytes:
    """In-memory GPKG geometry blob: header + envelope + WKB POINT(1 2)."""
    wkb = struct.pack("<BIdd", 1, 1, 1.0, 2.0)
    return b"GP" + bytes([0, flags]) + struct.pack("<i", 4326) + envelope + wkb


def test_blob_header_flags():
    # flags: bit 0 little-endian, bits 1-3 envelope, 0x10 empty, 0x20 extended
    wkb = struct.pack("<BIdd", 1, 1, 1.0, 2.0)
    assert gpkg_geom_to_wkb(_gp_blob(0x01)) == wkb
    env = struct.pack("<4d", 1.0, 1.0, 2.0, 2.0)
    assert gpkg_geom_to_wkb(_gp_blob(0x03, env)) == wkb
    assert gpkg_geom_to_wkb(_gp_blob(0x11)) is None
    # ExtendedGeoPackageBinary carries a non-standard payload: reading it as
    # NULL would drop the geometry silently
    with pytest.raises(ValueError, match="xtended"):
        gpkg_geom_to_wkb(_gp_blob(0x21))


def test_open_source_dispatch(ray_session):
    from gdal_ray.sources import open_source
    from gdal_ray.util import to_arrow

    t = to_arrow(open_source(f"{GPKG}/poly_golden.gpkg"))
    assert t.num_rows == 10
    assert "geometry" in t.column_names


def test_raster_tiles_reference_checksum():
    from gdal_ray.raster.checksum import checksum
    from gdal_ray.sources.gpkg import read_gpkg_raster

    arr, gt = read_gpkg_raster(
        "/root/reference/autotest/gdrivers/data/gpkg/byte.gpkg")
    # autotest/gdrivers/gpkg.py:3550 pins band-1 checksum 4672; the
    # tile blob decodes through OUR PNG codec and crops to the
    # gpkg_contents bounds
    band = arr[:, :, 0] if arr.ndim == 3 else arr
    assert band.shape == (20, 20)
    assert checksum(band) == 4672
    assert gt == (440720.0, 60.0, 0.0, 3751320.0, 0.0, -60.0)
