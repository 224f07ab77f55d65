"""Per-partition lineage manifests + resumable partitioned writes.

Reference pattern: `gdal raster tile --resume` regenerates only missing
tiles (apps/gdalalg_raster_tile.cpp:289) and `gdal vector index` builds a
per-fragment index layer (apps/gdalalg_vector_index.h:29-31). Ray
restatement: each partition (key) writes atomically (tmp file + rename)
alongside a sidecar manifest row (key, rows, checksum, fragment path); a
restart anti-joins the plan against completed manifest entries and only
computes the missing partitions.

The output layout IS the checkpoint — no external state store.
"""

from __future__ import annotations

import hashlib
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def _keystr(key) -> str:
    s = str(key)
    return hashlib.md5(s.encode()).hexdigest()[:16]


def partition_checksum(df) -> str:
    """Order-insensitive content hash of a partition (a pandas DataFrame):
    md5 of the row-sorted CSV serialization. The pandas CSV text is the
    checksum format every existing manifest was written with, so it stays
    until the manifest format itself changes (ROADMAP D5)."""
    if len(df) == 0:
        return "0" * 16
    payload = df.sort_values(list(df.columns), kind="mergesort").to_csv(index=False)
    return hashlib.md5(payload.encode()).hexdigest()[:16]


def completed_keys(out_dir: str) -> dict[str, dict]:
    """Read all committed manifest entries (one JSON per partition)."""
    man_dir = os.path.join(out_dir, "_manifest")
    if not os.path.isdir(man_dir):
        return {}
    out = {}
    for name in os.listdir(man_dir):
        if name.endswith(".json"):
            with open(os.path.join(man_dir, name)) as f:
                e = json.load(f)
            out[e["key"]] = e
    return out


def write_partitioned_resumable(ds, out_dir: str, partition_col: str,
                                prepare=None):
    """groupby(partition_col) -> one parquet fragment per key, written
    atomically, with a manifest entry committed after the data rename.
    Already-completed keys are SKIPPED (their groups are filtered before the
    shuffle, so a resume does not even move their rows).

    prepare: optional pa.Table -> pa.Table hook applied to each fragment
    just before writing (e.g. attach GeoParquet `geo` schema metadata —
    sources.geoparquet.write_geoparquet_resumable uses this).

    Returns a Dataset of manifest rows (key, rows, checksum, skipped)."""
    os.makedirs(os.path.join(out_dir, "_manifest"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "parts"), exist_ok=True)
    done = set(completed_keys(out_dir))

    import ray

    done_ref = ray.put(done)

    def drop_done(t: pa.Table) -> pa.Table:
        # no schema metadata into the groupby shuffle (see
        # ops.relational.hash_partition_reduce)
        t = t.replace_schema_metadata(None)
        done_keys = ray.get(done_ref)  # zero-copy local fetch, once per batch
        if not done_keys:
            return t
        keys = [str(k) for k in t[partition_col].to_pylist()]
        return t.filter(pa.array([k not in done_keys for k in keys], pa.bool_()))

    ds = ds.map_batches(drop_done, batch_format="pyarrow", batch_size=None)

    def write_group(g: pa.Table) -> pa.Table:
        key = str(g[partition_col][0].as_py())
        ks = _keystr(key)
        frag = os.path.join(out_dir, "parts", f"{ks}.parquet")
        tmp = frag + ".tmp"
        table = prepare(g) if prepare is not None else g
        pq.write_table(table, tmp)
        os.replace(tmp, frag)  # atomic commit of the data
        entry = {
            "key": key,
            "rows": int(len(g)),
            "checksum": partition_checksum(g.to_pandas()),  # the checksum format
            "fragment": frag,
        }
        mtmp = os.path.join(out_dir, "_manifest", f"{ks}.json.tmp")
        with open(mtmp, "w") as f:
            json.dump(entry, f)
        os.replace(mtmp, os.path.join(out_dir, "_manifest", f"{ks}.json"))
        return pa.table(
            {"key": [key], "rows": [len(g)], "checksum": [entry["checksum"]], "skipped": [False]}
        )

    return ds.groupby(partition_col).map_groups(write_group, batch_format="pyarrow")


def upsert_partitioned(out_dir: str, new_rows, partition_col: str, key_col: str):
    """`gdal vector update` / OGRLayer::UpsertFeature (ogrlayer.cpp:1714)
    over the partitioned layout: only partitions TOUCHED by new rows are
    read back, merged key-last-wins (new rows replace existing keys), and
    atomically rewritten with fresh manifest entries. Untouched partitions
    keep their fragments and manifests byte-identical.

    new_rows: pa.Table (must carry partition_col + key_col)."""
    if not isinstance(new_rows, pa.Table):
        new_rows = pa.Table.from_pandas(new_rows, preserve_index=False)
    done = completed_keys(out_dir)
    touched = sorted({str(k) for k in new_rows[partition_col].to_pylist()})
    for part in touched:
        mask = pc.equal(pc.cast(new_rows[partition_col], pa.string()), part)
        sub_new = new_rows.filter(mask).replace_schema_metadata(None)
        if part in done:
            old = pq.read_table(done[part]["fragment"]).replace_schema_metadata(None)
            keep = pc.invert(pc.is_in(old[key_col], value_set=sub_new[key_col].combine_chunks()))
            merged = pa.concat_tables([old.filter(keep), sub_new],
                                      promote_options="permissive")
        else:
            merged = sub_new
        ks = _keystr(part)
        frag = os.path.join(out_dir, "parts", f"{ks}.parquet")
        os.makedirs(os.path.dirname(frag), exist_ok=True)
        os.makedirs(os.path.join(out_dir, "_manifest"), exist_ok=True)
        tmp = frag + ".tmp"
        pq.write_table(merged, tmp)
        os.replace(tmp, frag)
        entry = {
            "key": part, "rows": int(len(merged)),
            "checksum": partition_checksum(merged.to_pandas()), "fragment": frag,
        }
        mtmp = os.path.join(out_dir, "_manifest", f"{ks}.json.tmp")
        with open(mtmp, "w") as f:
            json.dump(entry, f)
        os.replace(mtmp, os.path.join(out_dir, "_manifest", f"{ks}.json"))
    return touched


def read_partitioned(out_dir: str):
    import ray.data as rd

    return rd.read_parquet(os.path.join(out_dir, "parts"))


def verify_manifest(out_dir: str) -> dict:
    """`gdal dataset check` analog: re-read fragments and compare rows +
    checksum against the manifest. Returns {key: ok}."""
    out = {}
    for key, e in completed_keys(out_dir).items():
        try:
            df = pq.read_table(e["fragment"]).to_pandas()
            out[key] = (
                len(df) == e["rows"] and partition_checksum(df) == e["checksum"]
            )
        except Exception:
            out[key] = False
    return out
