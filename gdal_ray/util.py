"""Small shared helpers (no Ray session ownership here)."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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


FNV_OFFSET = np.uint64(0xCBF29CE484222325)
FNV_PRIME = np.uint64(0x100000001B3)


def hash_tokens_fnv(tokens) -> np.ndarray:
    """FNV-1a 64 over utf-8 token bytes — VECTORIZED across tokens.

    The Arrow string array gives (offsets, data) zero-copy; the sequential
    per-byte recurrence h = (h ^ b) * prime runs as one numpy op per BYTE
    POSITION (max token length iterations), not per byte: byte j of every
    token is folded simultaneously. Bit-identical to the scalar FNV-1a loop
    (numpy uint64 multiply wraps mod 2^64)."""
    if not isinstance(tokens, (pa.Array, pa.ChunkedArray)):
        arr = pa.array(tokens, type=pa.string())
    else:
        arr = tokens.combine_chunks() if isinstance(tokens, pa.ChunkedArray) else tokens
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    offsets = np.frombuffer(arr.buffers()[1], dtype=np.int32,
                            count=n + 1, offset=arr.offset * 4).astype(np.int64)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    starts = offsets[:-1]
    lengths = offsets[1:] - starts
    h = np.full(n, FNV_OFFSET, dtype=np.uint64)
    max_len = int(lengths.max()) if n else 0
    with np.errstate(over="ignore"):
        for j in range(max_len):
            m = lengths > j
            b = data[np.minimum(starts + j, data.size - 1)].astype(np.uint64)
            h = np.where(m, (h ^ b) * FNV_PRIME, h)
    return h


#: the hash of a null key of any type: FNV-1a of the text "None", which is
#: what a null string has always hashed to in the sketches
NULL_HASH = hash_tokens_fnv(["None"])[0]


def _is_bytes(typ: pa.DataType) -> bool:
    return (pa.types.is_string(typ) or pa.types.is_large_string(typ)
            or pa.types.is_binary(typ) or pa.types.is_large_binary(typ))


_FLOATS = (pa.float32(), pa.float64())


def canonical_floats(col):
    """A float32/float64 column with -0.0 made 0.0 and every NaN made one
    NaN; any other column as it is. pyarrow's group_by, is_in and joins
    compare floats by bit pattern, where SQL treats these as equal."""
    if col.type not in _FLOATS:
        return col
    col = pc.add(col, pa.scalar(0.0, col.type))  # -0.0 + 0.0 == +0.0
    nan = pc.is_nan(col)
    if not pc.any(nan).as_py():
        return col
    return pc.if_else(nan, pa.scalar(float("nan"), col.type), col)


def canonical_float_keys(t: pa.Table, keys) -> pa.Table:
    """The key-equality rule of every key match (group_by, is_in, join,
    partition hash): float keys that SQL calls equal get one bit pattern.
    Only float key columns are rewritten; nulls stay null."""
    for k in keys:
        col = t[k]
        if col.type in _FLOATS:
            t = t.set_column(t.column_names.index(k), k, canonical_floats(col))
    return t


def value_hash(col) -> np.ndarray:
    """64-bit hash of each value of one column, a function of the value
    alone (never of the block, the integer width or the null mix):
    integers, bools and temporals by value through splitmix64 (nulls are
    filled before to_numpy, so int64 above 2^53 stays exact); floats by
    their float64 bit pattern after canonical_floats;
    strings/binary by FNV-1a of their bytes; any other type by FNV-1a of
    its Arrow string cast. A null of any type hashes to NULL_HASH."""
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_dictionary(col.type):
        col = col.dictionary_decode()
    if pa.types.is_boolean(col.type) or pa.types.is_temporal(col.type):
        width = getattr(col.type, "bit_width", 64)
        col = col.cast(pa.int32() if width == 32 else pa.int64())
    if pa.types.is_integer(col.type):
        v = pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
        h = splitmix64(v.astype(np.int64))
    elif pa.types.is_floating(col.type):
        v = pc.fill_null(canonical_floats(col.cast(pa.float64())),
                         0.0).to_numpy(zero_copy_only=False)
        h = splitmix64(v.view(np.int64))
    else:
        binary = pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type)
        col = col.cast(pa.binary() if binary else pa.string())
        h = hash_tokens_fnv(pc.fill_null(col, pa.scalar(b"", col.type)))
    if col.null_count:
        h[~col.is_valid().to_numpy(zero_copy_only=False)] = NULL_HASH
    return h


def hash_column(col) -> np.ndarray:
    """64-bit hash per row for the sketches and Bloom filters: value_hash
    for integer/string/binary columns, FNV-1a over str(value) for any other
    type. A null hashes as the text "None", so sketches count it as one
    value."""
    typ = col.type.value_type if pa.types.is_dictionary(col.type) else col.type
    if pa.types.is_integer(typ) or _is_bytes(typ):
        return value_hash(col)
    return hash_tokens_fnv([str(v) for v in col.to_pylist()])


def partition_ids(t: pa.Table, keys, num_parts: int) -> np.ndarray:
    """int64 partition id in [0, num_parts) per row: the value_hash of each
    key column, folded with splitmix64 across columns, mod num_parts. It
    depends on the key values alone, so equal keys meet in one partition
    whatever block, integer width or null mix they arrive in; a single
    integer key gives exactly splitmix64(value) % num_parts."""
    h = np.zeros(t.num_rows, dtype=np.uint64)
    for i, k in enumerate(keys):
        hk = value_hash(t[k])
        h = hk if i == 0 else splitmix64(h) ^ hk
    return (h % np.uint64(num_parts)).astype(np.int64)


def to_arrow(result) -> pa.Table:
    """Normalise Dataset / pandas / pyarrow results to a pyarrow Table
    (test-side helper; materializes — only for small results)."""
    import pandas as pd  # driver-side: accepts a DataFrame a test built

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
