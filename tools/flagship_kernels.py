"""Time each flagship UDF in-process, with no Ray session.

The flagship's stage functions (`pipelines.pages.synthesize_pages`,
`extract_stage`, `stages.geo.add_cell_columns`, the PIP join and
`pipelines.pages.tile_pyramid`) are composed over `OneBlock`, a stand-in
for a Ray Dataset that holds one `pa.Table`: its `map_batches(fn)` runs fn
on that table here, so every UDF sees the whole input as one batch. Each
UDF is timed as the median of 3 calls; the pyramid aggregate's tree merge
(one block, so its final level alone) is `merge`. The PIP entry includes the
`PolygonSet` build, which a Ray worker pays once per process.

Usage: python tools/flagship_kernels.py SF_DIR [--repeat N]

SF_DIR holds documents.parquet (sf0.1 has 5,000 documents, so the default
--repeat 10 gives 5*10^4 pages). Prints one JSON line of per-UDF seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from unittest import mock

import pyarrow as pa
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# UDF qualified name -> label in the output
LABELS = {
    "synthesize_pages.<locals>.gen": "gen",
    "extract_stage.<locals>.f": "extract",
    "add_cell_columns.<locals>.f": "cells",
    "tile_pyramid.<locals>.pyramid": "pyramid",
    "groupby_agg.<locals>.combine": "combine",
    "groupby_agg.<locals>.merge_batch": "merge",
}


class OneBlock:
    """A Dataset of one block: map_batches applies fn to the table in this
    process and records its median time; materialize, repartition and
    select_columns pass the table through."""

    def __init__(self, table: pa.Table, seconds: dict):
        self.table, self.seconds = table, seconds

    def map_batches(self, fn, **_):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            out = fn(self.table)
            times.append(time.perf_counter() - t0)
        label = LABELS.get(fn.__qualname__, fn.__name__)
        self.seconds[label] += statistics.median(times)
        return OneBlock(out, self.seconds)

    def materialize(self):
        return self

    def num_blocks(self) -> int:
        return 1

    def repartition(self, *_, **__):
        return self

    def select_columns(self, cols):
        return OneBlock(self.table.select(cols), self.seconds)


def flagship_kernels(sf_dir: str, repeat: int, zoom: int = 9,
                     min_zoom: int = 5) -> dict:
    """Per-UDF seconds of `pipelines.pages.flagship` over sf_dir."""
    import ray.data

    from gdal_ray.geo.pip import PolygonSet
    from gdal_ray.pipelines.pages import (admin_grid_polygons, extract_stage,
                                          synthesize_pages, tile_pyramid)
    from gdal_ray.stages.geo import _pip_apply, add_cell_columns

    seconds: dict = defaultdict(float)
    admin = admin_grid_polygons()

    def read_parquet(path, columns=None, **_):
        return OneBlock(pq.read_table(path, columns=columns), seconds)

    def pip(t: pa.Table) -> pa.Table:
        pset = PolygonSet(admin["geometry"].to_pylist())
        return _pip_apply(t, admin.drop_columns(["geometry"]), pset,
                          "lon", "lat", "left")

    with mock.patch.object(ray.data, "read_parquet", read_parquet):
        pages = synthesize_pages(sf_dir, repeat=repeat)
    pages = extract_stage(pages, check=True).select_columns(["lat", "lon"])
    pages = add_cell_columns(pages, hex_res=(5, 9), s2_level=16,
                             tile_zooms=(zoom,), hilbert_order=None)
    tiles = tile_pyramid(pages.map_batches(pip),
                         zoom=zoom, min_zoom=min_zoom)
    out = {"pages": pages.table.num_rows, "tiles": tiles.table.num_rows}
    out.update({k: round(v, 4) for k, v in seconds.items()})
    out["total"] = round(sum(seconds.values()), 4)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sf_dir", help="directory holding documents.parquet")
    ap.add_argument("--repeat", type=int, default=10,
                    help="pages per document (default 10)")
    args = ap.parse_args()
    sys.path.insert(0, ROOT)
    print(json.dumps(flagship_kernels(args.sf_dir, args.repeat)))


if __name__ == "__main__":
    main()
