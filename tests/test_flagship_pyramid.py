"""Flagship tile pyramid at non-default zoom ranges: one (zoom, tile)
aggregate must give a consistent pyramid whatever the range."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from gdal_ray.util import to_arrow

SCHEMA = pa.schema([("zoom", pa.int32()), ("tile_x", pa.int64()), ("tile_y", pa.int64()),
                    ("n_pages", pa.int64()), ("n_admins", pa.int64())])


@pytest.mark.parametrize("zoom,min_zoom", [(7, 3), (6, 6)])
def test_flagship_pyramid_ranges(sf_dir, zoom, min_zoom):
    from gdal_ray.pipelines.pages import flagship

    t = to_arrow(flagship(sf_dir, repeat=1, zoom=zoom, min_zoom=min_zoom))
    assert t.schema.remove_metadata().equals(SCHEMA)
    n_pages = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    z, x, y = (t[c].to_numpy() for c in ("zoom", "tile_x", "tile_y"))
    n = t["n_pages"].to_numpy()
    assert len(set(zip(z.tolist(), x.tolist(), y.tolist()))) == t.num_rows
    assert sorted(set(z.tolist())) == list(range(min_zoom, zoom + 1))
    for level in range(min_zoom, zoom + 1):
        assert int(n[z == level].sum()) == n_pages
    for level in range(zoom, min_zoom, -1):
        kids = {}
        child = z == level
        for cx, cy, c in zip(x[child] >> 1, y[child] >> 1, n[child]):
            kids[int(cx), int(cy)] = kids.get((int(cx), int(cy)), 0) + int(c)
        up = z == level - 1
        parents = {(int(a), int(b)): int(c) for a, b, c in zip(x[up], y[up], n[up])}
        assert kids == parents
    # the diamond admin grid covers the world: every page finds a cell
    assert np.array_equal(t["n_admins"].to_numpy(), n)
