"""Minimal multidimensional (mdim) subsystem: chunked N-D arrays as
Ray-Data chunk tables.

Reference: GDAL's multidim API (gcore/multidim/gdal_multidim.h —
GDALGroup / GDALMDArray / GDALDimension: N-D typed arrays with named
dimensions, chunked storage, Read(view)/slicing, statistics) — the
largest reference subsystem previously out of scope (SURVEY §1.3,
VERDICT r4 "What's missing" #4). This is the zarr-style mapping onto
the engine's substrate:

  array  = sidecar JSON metadata (shape / chunks / dtype / dim names)
         + a parquet CHUNK TABLE: one row per chunk piece with columns
           c0..ck   chunk-grid coordinates   (int64, row-group prunable)
           o0..ok   piece origin in the ARRAY (int64)
           s0..sk   piece shape              (int64)
           data     raw C-order bytes of the piece

Every operator is a Dataset transform over chunk rows:
  - slicing prunes chunks AT THE READ (predicate pushdown on c*) and
    trims boundary pieces vectorized per batch;
  - statistics are per-chunk algebraic partials + a tree reduce;
  - axis reduction is one shuffle keyed by the KEPT chunk coordinates
    (pieces along the reduced axis group together and sum aligned).

At 100 TB an array is millions of chunk rows across thousands of
parquet files; nothing here materializes more than one chunk per task
plus the grouped pieces of one output chunk.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads


@dataclass
class MDMeta:
    shape: tuple
    chunks: tuple
    dtype: str
    dims: tuple  # dimension names

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def grid(self) -> tuple:
        return tuple(-(-s // c) for s, c in zip(self.shape, self.chunks))


def _meta_path(path: str) -> str:
    return os.path.join(path, "_mdim.json")


def _chunks_path(path: str) -> str:
    return os.path.join(path, "chunks.parquet")


def write_array(arr: np.ndarray, path: str, *, chunks, dims=None) -> MDMeta:
    """Write a (test-scale) numpy array as an mdim chunk store. At real
    scale the chunk table is produced distributed (from_chunk_table);
    this writer exists for construction + round-trip testing."""
    import pyarrow.parquet as pq

    chunks = tuple(int(c) for c in chunks)
    if len(chunks) != arr.ndim:
        raise ValueError("chunks rank must match array rank")
    dims = tuple(dims) if dims else tuple(f"dim{i}" for i in range(arr.ndim))
    meta = MDMeta(tuple(arr.shape), chunks, str(arr.dtype), dims)
    rows: dict = {}
    k = arr.ndim
    for i in range(k):
        rows[f"c{i}"] = []
        rows[f"o{i}"] = []
        rows[f"s{i}"] = []
    rows["data"] = []
    for idx in np.ndindex(*meta.grid()):
        sl = tuple(slice(ci * c, min((ci + 1) * c, s))
                   for ci, c, s in zip(idx, chunks, arr.shape))
        piece = np.ascontiguousarray(arr[sl])
        for i in range(k):
            rows[f"c{i}"].append(int(idx[i]))
            rows[f"o{i}"].append(int(sl[i].start))
            rows[f"s{i}"].append(int(piece.shape[i]))
        rows["data"].append(piece.tobytes())
    os.makedirs(path, exist_ok=True)
    t = pa.table({c: pa.array(v, pa.int64()) if c != "data"
                  else pa.array(v, pa.binary()) for c, v in rows.items()})
    pq.write_table(t, _chunks_path(path))
    with open(_meta_path(path), "w") as f:
        json.dump({"shape": meta.shape, "chunks": meta.chunks,
                   "dtype": meta.dtype, "dims": meta.dims}, f)
    return meta


def open_array(path: str):
    """Return (MDMeta, Dataset-of-chunk-rows) for an mdim store."""
    import ray.data as rd

    with open(_meta_path(path)) as f:
        d = json.load(f)
    meta = MDMeta(tuple(d["shape"]), tuple(d["chunks"]), d["dtype"],
                  tuple(d["dims"]))
    ds = rd.read_parquet(_chunks_path(path))
    return meta, ds


def read_slice(path: str, slices):
    """Open + slice: chunk pruning happens AT THE READ via a parquet
    predicate on the chunk coordinates (only overlapping chunks leave
    storage), then boundary pieces trim per batch. Returns
    (MDMeta of the slice, Dataset of chunk rows in SLICE coordinates)."""
    import ray.data as rd

    with open(_meta_path(path)) as f:
        d = json.load(f)
    meta = MDMeta(tuple(d["shape"]), tuple(d["chunks"]), d["dtype"],
                  tuple(d["dims"]))
    slices = _norm_slices(meta, slices)
    flt = None
    for i, (lo, hi) in enumerate(slices):
        c = meta.chunks[i]
        e = (pads.field(f"c{i}") >= lo // c) & (pads.field(f"c{i}") <= (hi - 1) // c)
        flt = e if flt is None else flt & e
    ds = rd.read_parquet(_chunks_path(path), filter=flt)
    return _trim(meta, ds, slices)


def _norm_slices(meta: MDMeta, slices):
    out = []
    for i in range(meta.ndim):
        s = slices[i] if i < len(slices) else slice(None)
        if isinstance(s, int):
            s = slice(s, s + 1)
        lo = 0 if s.start is None else int(s.start)
        hi = meta.shape[i] if s.stop is None else int(s.stop)
        if not 0 <= lo < hi <= meta.shape[i]:
            raise ValueError(f"slice {s} out of bounds for axis {i}")
        out.append((lo, hi))
    return out


def _trim(meta: MDMeta, ds, slices):
    """Clip every chunk piece to the slice box and rebase origins to
    slice coordinates."""
    k = meta.ndim
    dt = np.dtype(meta.dtype)
    out_meta = MDMeta(tuple(hi - lo for lo, hi in slices), meta.chunks,
                      meta.dtype, meta.dims)

    def trim(t: pa.Table) -> pa.Table:
        rows: dict = {f"c{i}": [] for i in range(k)}
        rows.update({f"o{i}": [] for i in range(k)})
        rows.update({f"s{i}": [] for i in range(k)})
        rows["data"] = []
        os_ = [t[f"o{i}"].to_numpy(zero_copy_only=False) for i in range(k)]
        ss_ = [t[f"s{i}"].to_numpy(zero_copy_only=False) for i in range(k)]
        cs_ = [t[f"c{i}"].to_numpy(zero_copy_only=False) for i in range(k)]
        for r, buf in enumerate(t["data"].to_pylist()):
            shape = tuple(int(ss_[i][r]) for i in range(k))
            box = []
            ok = True
            for i, (lo, hi) in enumerate(slices):
                a = max(lo, int(os_[i][r]))
                b = min(hi, int(os_[i][r]) + shape[i])
                if a >= b:
                    ok = False
                    break
                box.append((a, b))
            if not ok:
                continue
            piece = np.frombuffer(buf, dt).reshape(shape)
            sub = piece[tuple(slice(a - int(os_[i][r]), b - int(os_[i][r]))
                              for i, (a, b) in enumerate(box))]
            for i, (a, b) in enumerate(box):
                rows[f"c{i}"].append(int(cs_[i][r]))
                rows[f"o{i}"].append(a - slices[i][0])
                rows[f"s{i}"].append(b - a)
            rows["data"].append(np.ascontiguousarray(sub).tobytes())
        return pa.table({c: pa.array(v, pa.int64()) if c != "data"
                         else pa.array(v, pa.binary())
                         for c, v in rows.items()})

    return out_meta, ds.map_batches(trim, batch_format="pyarrow",
                                    batch_size=None)


def from_table(ds, *, shape, chunks, dtype, dims=None,
               value_col: str = "value", combine: str = "sum",
               fill=0):
    """DISTRIBUTED construction: build a chunk table from a Dataset of
    (i0..ik, value) rows — the inverse of to_table. Per batch, rows map
    to (linear chunk id, local offset, value) triples; ONE hash shuffle
    by chunk id; each partition densifies its chunks with a sorted
    boundary scan + vectorized scatter (np.add.at for combine='sum',
    ordered assignment for 'last'). Cells no row covers take `fill`.
    Returns (MDMeta, Dataset of chunk rows). This is how a 100-TB array
    materializes from a relational aggregate without ever touching the
    driver."""
    from gdal_ray.ops.relational import hash_partition_reduce
    from gdal_ray.util import default_num_parts

    if combine not in ("sum", "last"):
        raise ValueError("combine must be 'sum' or 'last'")
    shape = tuple(int(s) for s in shape)
    chunks = tuple(int(c) for c in chunks)
    dt = np.dtype(dtype)
    meta = MDMeta(shape, chunks, str(dt),
                  tuple(dims) if dims else
                  tuple(f"dim{i}" for i in range(len(shape))))
    k = meta.ndim
    grid = meta.grid()
    gstride = np.ones(k, np.int64)
    for i in range(k - 2, -1, -1):
        gstride[i] = gstride[i + 1] * grid[i + 1]

    def part(t: pa.Table) -> pa.Table:
        n = len(t)
        idx = [t[f"i{i}"].to_numpy(zero_copy_only=False).astype(np.int64)
               for i in range(k)]
        v = t[value_col].to_numpy(zero_copy_only=False)
        cc = [idx[i] // chunks[i] for i in range(k)]
        cid = np.zeros(n, np.int64)
        for i in range(k):
            cid += cc[i] * gstride[i]
        # local linear offset inside the chunk PIECE (boundary chunks are
        # smaller): strides derive per row from the piece shape
        psh = [np.minimum(chunks[i],
                          shape[i] - cc[i] * chunks[i]) for i in range(k)]
        lstride = np.ones((k, n), np.int64)
        for i in range(k - 2, -1, -1):
            lstride[i] = lstride[i + 1] * psh[i + 1]
        lloc = np.zeros(n, np.int64)
        for i in range(k):
            lloc += (idx[i] - cc[i] * chunks[i]) * lstride[i]
        return pa.table({"cid": pa.array(cid), "lloc": pa.array(lloc),
                         "v": pa.array(v)})

    def densify(g: pa.Table) -> pa.Table:
        g = g.sort_by([("cid", "ascending"), ("lloc", "ascending")])
        cid = g["cid"].to_numpy()
        lloc = g["lloc"].to_numpy()
        v = g["v"].to_numpy()
        change = np.flatnonzero(cid[1:] != cid[:-1]) + 1
        bounds = np.concatenate([[0], change, [len(g)]])
        rows: dict = {}
        for i in range(k):
            rows[f"c{i}"] = []
            rows[f"o{i}"] = []
            rows[f"s{i}"] = []
        rows["data"] = []
        for s, e in zip(bounds[:-1], bounds[1:]):
            c = int(cid[s])
            cc = []
            rem = c
            for i in range(k):
                cc.append(rem // gstride[i])
                rem = rem % gstride[i]
            psh = tuple(min(chunks[i], shape[i] - cc[i] * chunks[i])
                        for i in range(k))
            size = int(np.prod(psh))
            if combine == "sum":
                arr = np.zeros(size, np.float64)
                np.add.at(arr, lloc[s:e], v[s:e].astype(np.float64))
                arr = arr.astype(dt)
                if fill:
                    covered = np.zeros(size, bool)
                    covered[lloc[s:e]] = True
                    arr[~covered] = fill
            else:
                arr = np.full(size, fill, dt)
                arr[lloc[s:e]] = v[s:e].astype(dt)
            for i in range(k):
                rows[f"c{i}"].append(int(cc[i]))
                rows[f"o{i}"].append(int(cc[i] * chunks[i]))
                rows[f"s{i}"].append(int(psh[i]))
            rows["data"].append(arr.tobytes())
        return pa.table({c: pa.array(vals, pa.int64()) if c != "data"
                         else pa.array(vals, pa.binary())
                         for c, vals in rows.items()})

    out = hash_partition_reduce(
        ds.map_batches(part, batch_format="pyarrow", batch_size=None),
        ["cid"], densify, num_parts=default_num_parts())
    return meta, out


def slice_array(meta: MDMeta, ds, slices):
    """Slice an in-memory chunk Dataset (read_slice's pushdown analog
    for arrays not yet on storage): whole-chunk pruning is a vectorized
    filter on the chunk coordinates, then the same boundary trim."""
    slices = _norm_slices(meta, slices)

    def keep(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t
        m = np.ones(len(t), bool)
        for i, (lo, hi) in enumerate(slices):
            c = t[f"c{i}"].to_numpy(zero_copy_only=False)
            ch = meta.chunks[i]
            m &= (c >= lo // ch) & (c <= (hi - 1) // ch)
        return t.filter(pa.array(m))

    pruned = ds.map_batches(keep, batch_format="pyarrow", batch_size=None)
    return _trim(meta, pruned, slices)


def statistics(meta: MDMeta, ds) -> dict:
    """Global min/max/mean/std/count — per-chunk algebraic partials, one
    tree reduce (GDALMDArray::GetStatistics analog)."""
    dt = np.dtype(meta.dtype)

    def part(t: pa.Table) -> pa.Table:
        n = s = s2 = 0.0
        mn, mx = np.inf, -np.inf
        for buf in t["data"].to_pylist():
            a = np.frombuffer(buf, dt).astype(np.float64)
            n += a.size
            s += a.sum()
            s2 += (a * a).sum()
            if a.size:
                mn = min(mn, a.min())
                mx = max(mx, a.max())
        return pa.table({"n": pa.array([n]), "s": pa.array([s]),
                         "s2": pa.array([s2]), "mn": pa.array([mn]),
                         "mx": pa.array([mx])})

    from gdal_ray.util import to_arrow

    p = to_arrow(ds.map_batches(part, batch_format="pyarrow",
                                batch_size=None))
    n = float(pc.sum(p["n"]).as_py() or 0.0)
    s = float(pc.sum(p["s"]).as_py() or 0.0)
    s2 = float(pc.sum(p["s2"]).as_py() or 0.0)
    mean = s / n if n else float("nan")
    var = max(s2 / n - mean * mean, 0.0) if n else float("nan")
    return {"count": int(n), "min": float(pc.min(p["mn"]).as_py()),
            "max": float(pc.max(p["mx"]).as_py()), "mean": mean,
            "std": float(np.sqrt(var))}


def reduce_axis(meta: MDMeta, ds, axis: int, op: str = "sum"):
    """Reduce one axis (sum/mean/min/max): each piece reduces locally
    along the axis, then ONE shuffle keyed by the kept chunk coordinates
    merges aligned pieces. Returns (MDMeta, Dataset) of the reduced
    array. mean divides at the end (exact: the axis is fully summed)."""
    if op not in ("sum", "mean", "min", "max"):
        raise ValueError(f"unsupported op {op}")
    k = meta.ndim
    if not 0 <= axis < k:
        raise ValueError("axis out of range")
    keep = [i for i in range(k) if i != axis]
    dt = np.dtype(meta.dtype)
    out_dt = np.dtype(np.float64) if op in ("sum", "mean") else dt
    out_meta = MDMeta(tuple(meta.shape[i] for i in keep),
                      tuple(meta.chunks[i] for i in keep),
                      str(np.dtype(out_dt)),
                      tuple(meta.dims[i] for i in keep))
    npfun = {"sum": np.sum, "mean": np.sum, "min": np.min,
             "max": np.max}[op]

    def local(t: pa.Table) -> pa.Table:
        rows: dict = {"key": []}
        for j in range(len(keep)):
            rows[f"c{j}"] = []
            rows[f"o{j}"] = []
            rows[f"s{j}"] = []
        rows["data"] = []
        for r in range(len(t)):
            shape = tuple(int(t[f"s{i}"][r].as_py()) for i in range(k))
            a = np.frombuffer(t["data"][r].as_py(), dt).reshape(shape)
            red = npfun(a.astype(out_dt) if op in ("sum", "mean") else a,
                        axis=axis)
            key = "_".join(str(int(t[f"c{i}"][r].as_py())) for i in keep)
            rows["key"].append(key)
            for j, i in enumerate(keep):
                rows[f"c{j}"].append(int(t[f"c{i}"][r].as_py()))
                rows[f"o{j}"].append(int(t[f"o{i}"][r].as_py()))
                rows[f"s{j}"].append(int(t[f"s{i}"][r].as_py()))
            rows["data"].append(np.ascontiguousarray(red).tobytes())
        return pa.table({c: (pa.array(v, pa.string()) if c == "key"
                             else pa.array(v, pa.binary()) if c == "data"
                             else pa.array(v, pa.int64()))
                         for c, v in rows.items()})

    kk = len(keep)

    def merge(g: pa.Table) -> pa.Table:
        # pieces share kept chunk coords; align by kept origins, combine
        base_o = [int(pc.min(g[f"o{j}"]).as_py()) for j in range(kk)]
        max_e = [int(pc.max(pc.add(g[f"o{j}"], g[f"s{j}"])).as_py())
                 for j in range(kk)]
        shape = tuple(e - b for b, e in zip(base_o, max_e))
        init = {"sum": 0.0, "mean": 0.0,
                "min": np.inf, "max": -np.inf}[op]
        acc = np.full(shape, init, out_dt if op in ("sum", "mean")
                      else np.float64)
        for r in range(len(g)):
            sh = tuple(int(g[f"s{j}"][r].as_py()) for j in range(kk))
            a = np.frombuffer(g["data"][r].as_py(), out_dt).reshape(sh)
            sl = tuple(slice(int(g[f"o{j}"][r].as_py()) - base_o[j],
                             int(g[f"o{j}"][r].as_py()) - base_o[j] + sh[j])
                       for j in range(kk))
            if op in ("sum", "mean"):
                acc[sl] += a
            elif op == "min":
                acc[sl] = np.minimum(acc[sl], a)
            else:
                acc[sl] = np.maximum(acc[sl], a)
        if op == "mean":
            acc = acc / meta.shape[axis]
        out = {f"c{j}": pa.array([int(g[f"c{j}"][0].as_py())], pa.int64())
               for j in range(kk)}
        for j in range(kk):
            out[f"o{j}"] = pa.array([base_o[j]], pa.int64())
            out[f"s{j}"] = pa.array([shape[j]], pa.int64())
        out["data"] = pa.array(
            [np.ascontiguousarray(acc.astype(out_dt)).tobytes()],
            pa.binary())
        return pa.table(out)

    reduced = (ds.map_batches(local, batch_format="pyarrow",
                              batch_size=None)
               .groupby("key")
               .map_groups(merge, batch_format="pyarrow"))
    return out_meta, reduced


def materialize(meta: MDMeta, ds) -> np.ndarray:
    """Assemble the full array from chunk rows (small results / tests)."""
    from gdal_ray.util import to_arrow

    t = to_arrow(ds)
    k = meta.ndim
    dt = np.dtype(meta.dtype)
    out = np.zeros(meta.shape, dt)
    for r in range(len(t)):
        sh = tuple(int(t[f"s{i}"][r].as_py()) for i in range(k))
        o = tuple(int(t[f"o{i}"][r].as_py()) for i in range(k))
        a = np.frombuffer(t["data"][r].as_py(), dt).reshape(sh)
        out[tuple(slice(oo, oo + ss) for oo, ss in zip(o, sh))] = a
    return out


def to_table(meta: MDMeta, ds, *, value_col: str = "value"):
    """Flatten chunk rows to (i0..ik, value) rows — the bridge from mdim
    to the relational/SQL surface (register_table the result and query
    it). Vectorized per piece via ndindex-free meshgrid."""
    k = meta.ndim
    dt = np.dtype(meta.dtype)

    def flat(t: pa.Table) -> pa.Table:
        cols: dict = {f"i{i}": [] for i in range(k)}
        cols[value_col] = []
        for r in range(len(t)):
            sh = tuple(int(t[f"s{i}"][r].as_py()) for i in range(k))
            o = tuple(int(t[f"o{i}"][r].as_py()) for i in range(k))
            a = np.frombuffer(t["data"][r].as_py(), dt).reshape(sh)
            idx = np.meshgrid(*[np.arange(oo, oo + ss)
                                for oo, ss in zip(o, sh)], indexing="ij")
            for i in range(k):
                cols[f"i{i}"].append(idx[i].ravel())
            cols[value_col].append(a.ravel())
        if not cols[value_col]:
            return pa.table(
                {**{f"i{i}": pa.array([], pa.int64()) for i in range(k)},
                 value_col: pa.array([], pa.from_numpy_dtype(dt))})
        return pa.table(
            {**{f"i{i}": pa.array(np.concatenate(cols[f"i{i}"]))
                for i in range(k)},
             value_col: pa.array(np.concatenate(cols[value_col]))})

    return ds.map_batches(flat, batch_format="pyarrow", batch_size=None)
