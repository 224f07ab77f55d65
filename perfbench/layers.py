"""The traced run: per-layer metrics from spans around calls into each
layer's public functions. Nothing inside ``gdal_ray`` is instrumented.

Every traced run reports every per-layer metric. Each layer is measured
by one probe, whichever workload is traced:

* flagship probe: the flagship's public stages composed here and
  materialized after each one (cut-point stage walls), the fused flagship,
  the in-process numpy kernels, and an identity ``map_batches`` over the
  same input blocks. It checks that the composed stages give the fused
  flagship's tile histogram.
* pip probe: the pip_dense join stage and its admin aggregate, plus
  ``geo.pip.PolygonSet`` built and queried in-process.
* manifest probe: ``state.manifest`` write, resume and verify over the
  tiles_write tile table, materialized beforehand.
* query probe: one pass of the query_mix queries.

Each probe runs its pipeline once untimed first, so no probe pays another's
warm-up. The traced workload's own operation is also run in whole rounds
for the run's seconds: its median wall (``trace.wall_s``, compared with the
untraced ``wall_s`` this is the tracing overhead) and the CPU use of the
process tree over those rounds (``ray.busy_cores``).

The spans (id, name, start, end, parent) are written to standard error as
one JSON line, prefixed ``spans``, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import oracle
import procfs
import workloads as W


class Tracer:
    """Spans kept in memory: id, name, start, end (seconds since the tracer
    started) and the id of the enclosing span."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter() - self.t0}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.t0
            self._open.pop()

    def timed(self, name: str, fn):
        with self.span(name) as rec:
            out = fn()
        return out, rec["end"] - rec["start"]


def kernel_seconds(fn, reps: int = 3) -> float:
    """Median in-process time of fn() over reps calls."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# --------------------------------------------------------------------------
# flagship probe
# --------------------------------------------------------------------------


def _overview_level(prev, z: int):
    """One overview zoom from the zoom below, as pipelines.pages.flagship
    builds it: shift tile coordinates, then sum n_pages / n_admins."""
    from gdal_ray.ops.relational import groupby_agg

    def shift(t: pa.Table) -> pa.Table:
        return pa.table({"tile_x": pc.shift_right(t["tile_x"], 1),
                         "tile_y": pc.shift_right(t["tile_y"], 1),
                         "n_pages": t["n_pages"], "n_admins": t["n_admins"]})

    def stamp(t: pa.Table) -> pa.Table:
        return pa.table({"zoom": pa.array(np.full(len(t), z, dtype=np.int32)),
                         "tile_x": t["tile_x"], "tile_y": t["tile_y"],
                         "n_pages": pc.cast(t["n_pages"], pa.int64()),
                         "n_admins": pc.cast(t["n_admins"], pa.int64())})

    parent = groupby_agg(prev.map_batches(shift, batch_format="pyarrow", batch_size=None),
                         ["tile_x", "tile_y"],
                         [("n_pages", "sum", "n_pages"), ("n_admins", "sum", "n_admins")])
    return parent.map_batches(stamp, batch_format="pyarrow", batch_size=None).materialize()


def flagship_probe(tr: Tracer, wl: W.Flagship) -> tuple[dict, list]:
    import ray
    import ray.data as rd

    from gdal_ray.geo import hexcell, s2, webmercator
    from gdal_ray.geo.pip import PolygonSet
    from gdal_ray.ops.relational import groupby_agg
    from gdal_ray.pipelines.pages import (admin_grid_polygons, extract_stage, flagship,
                                          page_coords, synthesize_pages)
    from gdal_ray.stages.geo import add_cell_columns, pip_join_fn
    from gdal_ray.util import to_arrow

    z = oracle.ZOOM
    fused = lambda: to_arrow(flagship(wl.sf_dir, repeat=wl.repeat, zoom=z,  # noqa: E731
                                      min_zoom=oracle.MIN_ZOOM))
    m, stage = {}, {}
    with tr.span("flagship.probe"):
        fused()
        fused_out, fused_s = tr.timed("flagship.fused", fused)
        with tr.span("flagship.composed"):
            synth, stage["synth"] = tr.timed(
                "pages.synth", lambda: synthesize_pages(wl.sf_dir, repeat=wl.repeat).materialize())
            ext, stage["extract"] = tr.timed(
                "pages.extract",
                lambda: extract_stage(synth, check=True).select_columns(["lat", "lon"]).materialize())
            cells, stage["cells"] = tr.timed("cells", lambda: add_cell_columns(
                ext, hex_res=(5, 9), s2_level=16, tile_zooms=(z,), hilbert_order=None).materialize())
            admin = admin_grid_polygons()
            admin_ref = ray.put(admin)
            joined, stage["pip"] = tr.timed("pip.diamond", lambda: cells.map_batches(
                pip_join_fn(admin_ref, how="left"), batch_format="pyarrow",
                batch_size=None).materialize())
            keys = [f"tile_x_z{z}", f"tile_y_z{z}"]
            base, stage["tile_agg"] = tr.timed("relational.tile_agg", lambda: groupby_agg(
                joined, keys, [("n_pages", "count_star", None), ("n_admins", "count", "admin_id")],
            ).materialize())

            def overview():
                lvl = base.map_batches(lambda t: pa.table({
                    "zoom": pa.array(np.full(len(t), z, dtype=np.int32)),
                    "tile_x": t[keys[0]], "tile_y": t[keys[1]],
                    "n_pages": t["n_pages"], "n_admins": t["n_admins"]}),
                    batch_format="pyarrow", batch_size=None).materialize()
                levels = [lvl]
                for zz in range(z - 1, oracle.MIN_ZOOM - 1, -1):
                    levels.append(_overview_level(levels[-1], zz))
                return pa.concat_tables([to_arrow(x) for x in levels])

            composed, stage["overview"] = tr.timed("relational.overview", overview)

        # partial rows the tile combiner emits: one per distinct tile per block
        partial = 0
        for b in joined.iter_batches(batch_size=None, batch_format="pyarrow"):
            partial += len(b.group_by(keys).aggregate([]))
        m["relational.partial_rows"] = (partial, "count")
        m["relational.groups"] = (base.count(), "count")
        m["ray.blocks"] = (synth.num_blocks(), "count")

        # in-process kernels over the same pages (no Ray)
        pid = oracle.page_ids(wl.doc_id, wl.repeat)
        lon, lat = page_coords(pid)
        n = pid.size
        with tr.span("kernels"):
            k = {
                "page_coords": kernel_seconds(lambda: page_coords(pid)),
                "hexcell": kernel_seconds(lambda: [hexcell.lonlat_to_cell(lon, lat, r) for r in (5, 9)]),
                "s2": kernel_seconds(lambda: s2.lonlat_to_cell(lon, lat, 16)),
                "webmercator": kernel_seconds(lambda: webmercator.lonlat_to_tile(lon, lat, z)),
            }
            pset = PolygonSet(admin["geometry"].to_pylist())
            k["pip_locate"] = kernel_seconds(lambda: pset.locate(lon, lat))
        for name in ("hexcell", "s2", "webmercator"):
            m[f"{name}.rows_per_s"] = (n / k[name], "rows/s")
        m["pages.page_coords.rows_per_s"] = (n / k["page_coords"], "rows/s")

        with tr.span("ray.identity_floor"):
            docs = os.path.join(wl.sf_dir, "documents.parquet")
            ident = lambda: rd.read_parquet(docs).map_batches(  # noqa: E731
                lambda t: t, batch_format="pyarrow", batch_size=None).materialize()
            ident()
            _, m_ident = tr.timed("ray.identity", ident)

    m["pages.synth.stage_s"] = (stage["synth"], "s")
    m["pages.extract.stage_s"] = (stage["extract"], "s")
    m["cells.stage_s"] = (stage["cells"], "s")
    m["pip.diamond.stage_s"] = (stage["pip"], "s")
    m["relational.tile_agg.stage_s"] = (stage["tile_agg"], "s")
    m["relational.overview.stage_s"] = (stage["overview"], "s")
    m["ray.fused_s"] = (fused_s, "s")
    m["ray.fused_over_split"] = (fused_s / sum(stage.values()), "ratio")
    m["ray.overhead_s"] = (fused_s - sum(k.values()), "s")
    m["ray.identity_floor_s"] = (m_ident, "s")

    cols = ["zoom", "tile_x", "tile_y", "n_pages", "n_admins"]
    rows = lambda t: sorted(zip(*(t[c].to_pylist() for c in cols)))  # noqa: E731
    problems = oracle.check_tiles(composed, wl.expected, wl.rows)
    if rows(composed) != rows(fused_out):
        problems.append("composed stages and the fused flagship give different tiles")
    return m, [("flagship probe", problems)]


# --------------------------------------------------------------------------
# pip probe
# --------------------------------------------------------------------------


def pip_probe(tr: Tracer, wl: W.PipDense) -> tuple[dict, list]:
    import ray.data as rd

    from gdal_ray.geo.pip import PolygonSet
    from gdal_ray.ops.relational import groupby_agg
    from gdal_ray.stages.geo import pip_join_fn
    from gdal_ray.util import to_arrow

    m = {}
    with tr.span("pip.probe"):
        join = lambda: rd.read_parquet(wl.path).map_batches(  # noqa: E731
            pip_join_fn(wl.admin_ref, how="inner"), batch_format="pyarrow",
            batch_size=None).materialize()
        join()
        joined, m_stage = tr.timed("pip.join", join)
        counts, m_agg = tr.timed("relational.admin_agg", lambda: to_arrow(
            groupby_agg(joined, ["admin_id"], [("n", "count_star", None)])))
        wkb = wl.admin["geometry"].to_pylist()
        with tr.span("pip.kernels"):
            build = kernel_seconds(lambda: PolygonSet(wkb))
            pset = PolygonSet(wkb)
            px, py = wl.points["lon"].to_numpy(), wl.points["lat"].to_numpy()
            locate = kernel_seconds(lambda: pset.locate(px, py))
            cand_q, _ = pset.tree.query_points(px, py)
            match_q, _ = pset.locate(px, py)
    m["pip.stage_s"] = (m_stage, "s")
    m["relational.admin_agg.stage_s"] = (m_agg, "s")
    m["pip.polygonset_build_s"] = (build, "s")
    m["pip.locate.points_per_s"] = (px.size / locate, "points/s")
    m["pip.candidate_pairs"] = (cand_q.size, "count")
    m["pip.match_ratio"] = (match_q.size / max(cand_q.size, 1), "ratio")
    return m, [("pip probe", oracle.check_admin_counts(counts, wl.ids, wl.owner, wl.near))]


# --------------------------------------------------------------------------
# manifest probe
# --------------------------------------------------------------------------


def manifest_probe(tr: Tracer, wl: W.TilesWrite) -> tuple[dict, list]:
    from gdal_ray.pipelines.pages import flagship
    from gdal_ray.state.manifest import (completed_keys, partition_checksum,
                                         verify_manifest, write_partitioned_resumable)
    from gdal_ray.util import to_arrow

    def part_key(t: pa.Table) -> pa.Table:  # flagship_to_parquet's partition key
        return t.append_column("part", pc.binary_join_element_wise(
            pc.cast(t["zoom"], pa.string()),
            pc.cast(pc.shift_right(t["tile_x"], 4), pa.string()), "_"))

    m = {}
    with tr.span("manifest.probe"):
        keyed = flagship(wl.sf_dir, repeat=wl.repeat, zoom=oracle.ZOOM,
                         min_zoom=oracle.MIN_ZOOM).map_batches(
            part_key, batch_format="pyarrow", batch_size=None).materialize()
        warm_dir = os.path.join(wl.work_dir, "manifest_warm")
        to_arrow(write_partitioned_resumable(keyed, warm_dir, "part"))
        out_dir = os.path.join(wl.work_dir, "manifest")
        written, m_write = tr.timed("manifest.write", lambda: to_arrow(
            write_partitioned_resumable(keyed, out_dir, "part")))
        before = oracle.fragment_digests(out_dir)
        resumed, m_resume = tr.timed("manifest.resume", lambda: to_arrow(
            write_partitioned_resumable(keyed, out_dir, "part")))
        ok, m_verify = tr.timed("manifest.verify", lambda: verify_manifest(out_dir))
        df = oracle.read_fragments(out_dir).to_pandas()
        checksum = kernel_seconds(lambda: partition_checksum(df))
    parts = os.path.join(out_dir, "parts")
    m["manifest.write.stage_s"] = (m_write, "s")
    m["manifest.resume.stage_s"] = (m_resume, "s")
    m["manifest.verify_s"] = (m_verify, "s")
    m["manifest.checksum.rows_per_s"] = (len(df) / checksum, "rows/s")
    m["manifest.partitions_written"] = (written.num_rows, "count")
    m["manifest.partitions_skipped"] = (len(completed_keys(out_dir)) - resumed.num_rows, "count")
    m["manifest.bytes_written"] = (sum(os.path.getsize(os.path.join(parts, f))
                                       for f in os.listdir(parts)), "bytes")
    problems = wl.check_write(out_dir, written) + wl.check_resume(out_dir, resumed, before)
    if not all(ok.values()):
        problems.append("verify_manifest reports a bad partition")
    return m, [("manifest probe", problems)]


# --------------------------------------------------------------------------
# query probe
# --------------------------------------------------------------------------


def query_probe(tr: Tracer, wl: W.QueryMix) -> tuple[dict, list]:
    wl.run_round()
    m = {}
    with tr.span("query.probe"):
        _, results = wl.run_round(on_query=lambda q, dt: m.__setitem__(f"query.{q}.s", (dt, "s")))
    return m, results


# --------------------------------------------------------------------------


def _instances(traced: W.Workload) -> dict[str, W.Workload]:
    """One workload object per probe, sharing the traced one's seed; the
    traced workload's own object is reused."""
    out = {}
    for name, cls in W.WORKLOADS.items():
        if type(traced) is cls:
            out[name] = traced
            continue
        wl = cls(traced.seed, os.path.join(os.path.dirname(traced.work_dir), name))
        wl.make_inputs()
        wl.start_session()
        wl.expect()
        out[name] = wl
    return out


def trace(wl: W.Workload, seconds: float, counts: dict, measure):
    """Run the traced workload's rounds and every probe. Returns the
    per-layer metrics as {name: {"value", "unit"}} and the probes'
    (operation, problems) pairs."""
    tr = Tracer()
    cpu0, t0 = procfs.cpu_seconds(procfs.tree()), time.perf_counter()
    with tr.span(f"{wl.name}.rounds"):
        walls = measure(wl, seconds, counts)
    busy = (procfs.cpu_seconds(procfs.tree()) - cpu0) / (time.perf_counter() - t0)
    m = {"trace.wall_s": (statistics.median(walls), "s"), "ray.busy_cores": (busy, "cores")}
    probes = _instances(wl)
    results = []
    for probe, name in ((flagship_probe, "flagship"), (pip_probe, "pip_dense"),
                        (manifest_probe, "tiles_write"), (query_probe, "query_mix")):
        metrics, problems = probe(tr, probes[name])
        m.update(metrics)
        results += problems
    print("spans " + json.dumps(tr.spans), file=sys.stderr)
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}, results
