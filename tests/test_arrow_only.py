"""The engine's batch contract: every UDF Ray runs takes and returns a
pa.Table, so Ray never converts a pandas block, and no log filter hides
what a round trip would cost."""

import logging
import pathlib
import re

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

import gdal_ray
from gdal_ray.ops import relational as R

PKG = pathlib.Path(gdal_ray.__file__).parent
RAY_LOGGERS = ("ray.data._internal.arrow_ops.transform_pyarrow",
               "ray.data._internal.execution.streaming_executor_state")


def test_no_pandas_batches_in_the_package():
    pattern = re.compile(r"""batch_format\s*=\s*["']pandas["']|pd_to_arrow|_pd2pa""")
    hits = [f"{p.relative_to(PKG)}:{i}: {line.strip()}"
            for p in sorted(PKG.rglob("*.py"))
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def test_groupby_agg_blocks_carry_the_finalized_schema(ray_session):
    """A filter that empties most of 20 blocks of 12 rows: every output
    block, empty or not, has the finalized schema."""
    ds = rd.range(12, override_num_blocks=20).filter(expr="id < 5")
    ds = ds.map_batches(lambda t: t.append_column("g", pc.bit_wise_and(t["id"], 1)),
                        batch_format="pyarrow", batch_size=None)
    for keys, specs, want in [
        (["g"], [("n", "count_star", None), ("s", "sum", "id"), ("m", "mean", "id")],
         pa.schema([("g", pa.int64()), ("n", pa.int64()), ("s", pa.int64()),
                    ("m", pa.float64())])),
        ([], [("n", "count_star", None), ("sd", "std", "id")],
         pa.schema([("n", pa.int64()), ("sd", pa.float64())])),
    ]:
        out = R.groupby_agg(ds, keys, specs)
        tables = ray.get(out.to_arrow_refs())
        assert tables
        assert all(t.schema.equals(want) for t in tables), [t.schema for t in tables]
        assert sum(t.num_rows for t in tables) == (2 if keys else 1)


def test_import_installs_no_log_filter():
    import importlib

    from gdal_ray.util import tune_data_context

    importlib.reload(gdal_ray)
    tune_data_context()
    for name in RAY_LOGGERS:
        assert logging.getLogger(name).filters == [], name
