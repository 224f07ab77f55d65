"""Small shared helpers (no Ray session ownership here)."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

#: GDAL's Arrow export batches default to 65,536 features
#: (ogr/ogrsf_frmts/generic/ogrlayerarrow.cpp:2078-2082 MAX_FEATURES_IN_BATCH);
#: we adopt the same default batch size for map_batches stages.
DEFAULT_BATCH_SIZE = 65_536

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def tune_data_context() -> None:
    """Central Ray Data tuning (idempotent, safe before/after ray.init).

    _max_num_blocks_in_streaming_gen_buffer: default 2 throttles a
    single-file parquet scan to ~4 concurrent downstream tasks — the one
    read task may only have 2 split blocks in flight, so the whole fused
    chain trickles (measured: 64x0.2s map took 3.7s; with 32 it takes ~1s).
    At real scale reads parallelize across files, so a larger per-task
    buffer only costs bounded object-store headroom."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    ctx._max_num_blocks_in_streaming_gen_buffer = 32

    # Ray 2.49 warns once per operator when an EMPTY output block drops the
    # schema ("RefBundle with a different schema ... new schema: ").
    # Filtered rows legitimately produce empty blocks all over these
    # pipelines and the execute() schema sentinel restores types at the
    # end, so this specific message is pure noise that buries real
    # warnings in driver/bench logs. Only the empty-new-schema variant is
    # dropped; genuine cross-schema warnings still surface.
    import logging

    class _EmptySchemaNoise(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:
            msg = record.getMessage()
            return not ("RefBundle with a different schema" in msg
                        and ("new schema: ." in msg
                             or msg.rstrip().endswith("new schema:")))

    lg = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state")
    if not any(isinstance(f, _EmptySchemaNoise) for f in lg.filters):
        lg.addFilter(_EmptySchemaNoise())


def default_num_parts(multiplier: int = 2, floor: int = 32) -> int:
    """Shuffle-partition count keyed off the CLUSTER size, not a constant:
    2x total CPUs (floor 32). Every hash-partitioned wide op calls this
    lazily at pipeline-build time, so the same code that runs 32-wide on
    the test node runs 2048-wide on a 256-node cluster."""
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 0)) if ray.is_initialized() else 0
    except Exception:
        cpus = 0
    return max(floor, cpus * multiplier)


def sf_path(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def read_table(sf_dir: str, name: str, columns=None, filter=None):
    """read_parquet with column pruning + pushdown — the 'prune at the read'
    rule; mirrors OGRLayer::SetIgnoredFields / SetAttributeFilter pushdown
    (ogr/ogrsf_frmts/generic/ogrlayer.cpp:4945,752).

    Block sizing note: the test files are single-row-group, so
    `override_num_blocks` would PIN the scan (and any fused downstream
    chain) to one task — observed live as a 1-core pipeline. Ray's default
    SplitBlocks keeps scan parallelism; the small-block cost on wide ops is
    neutralized by the tree-merge combiners in gdal_ray.ops.relational."""
    import ray.data as rd

    kwargs = {}
    if columns is not None:
        kwargs["columns"] = list(columns)
    if filter is not None:
        kwargs["filter"] = filter
    return rd.read_parquet(sf_path(sf_dir, name), **kwargs)


def read_table_with_fid(sf_dir: str, name: str, columns=None,
                        fid_col: str = "fid"):
    """read_table plus a synthesized STABLE `fid` column:
    fid = fragment_index << 32 | row_in_fragment — the OGR FID special
    field (ogr/ogrfeaturequery.cpp:37) for a distributed engine that has
    no implicit row order. The id depends only on the sorted file list and
    row-group order, so two reads of the same files agree; one Ray task
    per row group keeps the read parallel at cluster width."""
    import numpy as np
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data as rd

    path = sf_path(sf_dir, name)
    items = []
    for fi, frag in enumerate(
        sorted(pads.dataset(path).get_fragments(), key=lambda f: f.path)
    ):
        off = 0
        for rg in frag.row_groups:
            items.append({"path": frag.path, "frag": fi, "rg": rg.id, "off": off})
            off += rg.num_rows
    cols = list(columns) if columns is not None else None
    if not items:  # zero row groups (empty file): nothing to enumerate
        return read_table(sf_dir, name, columns).map_batches(
            lambda t: t.append_column(
                fid_col, pa.array(np.arange(len(t), dtype=np.int64))),
            batch_format="pyarrow", batch_size=None)

    def read_rg(b: pa.Table) -> pa.Table:
        out = []
        for p, fi, rg, off in zip(
            b["path"].to_pylist(), b["frag"].to_pylist(),
            b["rg"].to_pylist(), b["off"].to_pylist(),
        ):
            t = pq.ParquetFile(p).read_row_group(rg, columns=cols)
            fid = ((np.int64(fi) << np.int64(32)) + np.int64(off)
                   + np.arange(t.num_rows, dtype=np.int64))
            out.append(t.append_column(fid_col, pa.array(fid)))
        return pa.concat_tables(out, promote_options="permissive")

    return rd.from_items(items, override_num_blocks=len(items)).map_batches(
        read_rg, batch_format="pyarrow", batch_size=None)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized: the deterministic integer hash
    behind page coordinates, co-partitioning and integer sketch keys."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def pd_to_arrow(df, preserve_index: bool = False) -> pa.Table:
    """pandas -> Arrow WITHOUT the b'pandas' schema metadata. pyarrow's
    Schema.__hash__ chokes on the metadata dict, so every from_pandas
    block makes Ray's schema dedup log a 'Failed to hash the schemas'
    warning per task — a flood that buries real warnings. We never
    preserve the index, so the metadata carries nothing we use."""
    return pa.Table.from_pandas(
        df, preserve_index=preserve_index).replace_schema_metadata(None)


def to_arrow(result) -> pa.Table:
    """Normalise Dataset / pandas / pyarrow results to a pyarrow Table
    (test-side helper; materializes — only for small results)."""
    import pandas as pd

    if isinstance(result, pa.Table):
        return result
    if isinstance(result, pd.DataFrame):
        return pa.Table.from_pandas(result, preserve_index=False)
    # ray.data.Dataset
    tables = [b for b in result.iter_batches(batch_size=None, batch_format="pyarrow")]
    if not tables:
        # iter_batches yields nothing for an all-empty dataset — recover
        # the column schema so callers can still select columns
        try:
            sch = result.schema()
            base = getattr(sch, "base_schema", None)
            if isinstance(base, pa.Schema):
                return base.empty_table()
        except Exception:
            pass
        return pa.table({})
    return pa.concat_tables(tables, promote_options="permissive")
