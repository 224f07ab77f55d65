"""The four workloads. Each one generates its seeded inputs, computes its
expected outputs apart from the engine, and runs whole rounds of the same
operations through the engine's public API, checking every output.

A round returns its wall time (the timed operations only; checks run
outside the timed region) and one (operation, problems) pair per operation.
"""

from __future__ import annotations

import os
import shutil
import time

import pyarrow as pa

import inputs
import oracle

N_DOCS = 5_000             # documents per seed (the project's sf0.1 size)
FLAGSHIP_REPEAT = 10       # 5 * 10^4 pages per flagship operation
TILES_REPEAT = 4           # 2 * 10^4 pages per write + resume
PIP_POINTS = 50_000
PIP_LEVELS = 6             # 4 * 2**6 = 256 vertices per admin cell

#: queries of the query_mix pass, in run order. q43_zonal_stats is left out:
#: whether it fails depends on the generated values (README.md)
QUERY_MIX = (
    "q41_pip_admin", "q45_tile_counts", "q01_tpch_groupby",
    "q05_global_agg", "q13_dedup_first", "q118_tpch01", "q121_tpch05", "q131_tpch18",
)
#: input tables each query scans (for rows_per_s)
QUERY_TABLES = {
    "q41_pip_admin": ("events",),
    "q45_tile_counts": ("events",),
    "q01_tpch_groupby": ("lineitem",),
    "q05_global_agg": ("lineitem",),
    "q13_dedup_first": ("events",),
    "q118_tpch01": ("lineitem",),
    "q121_tpch05": ("customer", "orders", "lineitem", "supplier", "nation", "region"),
    "q131_tpch18": ("lineitem", "orders", "customer"),
}
#: the one known fault the mix keeps: q05_global_agg's avg_disc is rounded
#: the wrong way on a tie (README.md, "The q05 fault")
KNOWN_FAULTS = {"q05_global_agg"}


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir

    def make_inputs(self) -> None:
        """Seeded inputs on disk (part of set-up)."""

    def start_session(self) -> None:
        """Per-Ray-session state, e.g. broadcast tables (part of set-up)."""

    def expect(self) -> None:
        """Expected outputs, computed apart from the engine."""

    def run_round(self):
        raise NotImplementedError


class Flagship(Workload):
    """pipelines.pages.flagship over seeded documents; rows are pages."""

    name = "flagship"

    def make_inputs(self):
        self.sf_dir = os.path.join(self.work_dir, "sf")
        docs = inputs.write_documents(self.seed, N_DOCS, self.sf_dir)
        self.doc_id = docs["doc_id"].to_numpy()
        self.repeat = FLAGSHIP_REPEAT
        self.rows = N_DOCS * self.repeat

    def expect(self):
        self.expected = oracle.expected_tiles(self.doc_id, self.repeat)

    def op(self) -> pa.Table:
        from gdal_ray.pipelines.pages import flagship
        from gdal_ray.util import to_arrow

        return to_arrow(flagship(self.sf_dir, repeat=self.repeat,
                                 zoom=oracle.ZOOM, min_zoom=oracle.MIN_ZOOM))

    def check(self, out: pa.Table) -> list[str]:
        return oracle.check_tiles(out, self.expected, self.rows)

    def run_round(self):
        out, wall = timed(self.op)
        return wall, [("flagship", self.check(out))]


class TilesWrite(Flagship):
    """pipelines.pages.flagship_to_parquet into an empty directory, then the
    same call over the finished directory (resume). Two operations a round;
    rows are the pages of one run."""

    name = "tiles_write"

    def make_inputs(self):
        super().make_inputs()
        self.repeat = TILES_REPEAT
        self.rows = N_DOCS * self.repeat
        self.rounds = 0

    def op(self, out_dir: str) -> pa.Table:
        """One flagship_to_parquet call; returns its manifest rows."""
        from gdal_ray.pipelines.pages import flagship_to_parquet
        from gdal_ray.util import to_arrow

        return to_arrow(flagship_to_parquet(self.sf_dir, out_dir, repeat=self.repeat,
                                            zoom=oracle.ZOOM, min_zoom=oracle.MIN_ZOOM))

    def check_write(self, out_dir: str, written: pa.Table) -> list[str]:
        """Fragments read back give the expected tiles, one manifest row each."""
        problems = self.check(oracle.read_fragments(out_dir))
        n_frags = len(oracle.fragment_digests(out_dir))
        if written.num_rows != n_frags:
            problems.append(f"{written.num_rows} manifest rows for {n_frags} fragments")
        return problems

    def check_resume(self, out_dir: str, resumed: pa.Table, before: dict) -> list[str]:
        """The resume wrote no partition and left every fragment's bytes."""
        problems = []
        if resumed.num_rows:
            problems.append(f"resume wrote {resumed.num_rows} partitions")
        if oracle.fragment_digests(out_dir) != before:
            problems.append("resume changed fragment bytes")
        return problems

    def run_round(self):
        self.rounds += 1
        out_dir = os.path.join(self.work_dir, f"tiles{self.rounds}")
        written, wall_write = timed(lambda: self.op(out_dir))
        before = oracle.fragment_digests(out_dir)
        resumed, wall_resume = timed(lambda: self.op(out_dir))
        results = [("write", self.check_write(out_dir, written)),
                   ("resume", self.check_resume(out_dir, resumed, before))]
        shutil.rmtree(out_dir)
        return wall_write + wall_resume, results


class PipDense(Workload):
    """Seeded skewed points -> stages.geo.pip_join_fn in map_batches against
    a 384-cell admin partition with 256-vertex cells -> groupby_agg count
    per admin_id. Rows are points."""

    name = "pip_dense"

    def make_inputs(self):
        import pyarrow.parquet as pq

        self.ids, self.rings = inputs.admin_partition(self.seed, PIP_LEVELS)
        self.admin = inputs.admin_table(self.ids, self.rings)
        self.points = inputs.dense_points(self.seed, PIP_POINTS)
        self.path = os.path.join(self.work_dir, "points.parquet")
        os.makedirs(self.work_dir, exist_ok=True)
        pq.write_table(self.points, self.path)
        self.rows = PIP_POINTS

    def start_session(self):
        import ray

        self.admin_ref = ray.put(self.admin)

    def expect(self):
        self.owner, self.near = oracle.locate_points(
            self.points["lon"].to_numpy(), self.points["lat"].to_numpy(), self.rings)

    def op(self) -> pa.Table:
        import ray.data as rd

        from gdal_ray.ops.relational import groupby_agg
        from gdal_ray.stages.geo import pip_join_fn
        from gdal_ray.util import to_arrow

        joined = rd.read_parquet(self.path).map_batches(
            pip_join_fn(self.admin_ref, how="inner"), batch_format="pyarrow", batch_size=None)
        return to_arrow(groupby_agg(joined, ["admin_id"], [("n", "count_star", None)]))

    def check(self, out: pa.Table) -> list[str]:
        return oracle.check_admin_counts(out, self.ids, self.owner, self.near)

    def run_round(self):
        out, wall = timed(self.op)
        return wall, [("pip_dense", self.check(out))]


class QueryMix(Workload):
    """A fixed list of registry queries over seeded TPC-H-like tables;
    q05_global_agg runs over a fixed table (inputs.q05_lineitem). One
    operation is one query; a round is one pass. Rows are the input-table
    rows the pass scans."""

    name = "query_mix"

    def make_inputs(self):
        self.sf_dir = os.path.join(self.work_dir, "sf")
        self.q05_dir = os.path.join(self.work_dir, "q05")
        inputs.write_tpch(self.seed, self.sf_dir)
        inputs.q05_lineitem(self.q05_dir)
        self.dirs = {q: self.q05_dir if q == "q05_global_agg" else self.sf_dir for q in QUERY_MIX}
        self.rows = sum(oracle.table_rows(self.dirs[q], QUERY_TABLES[q]) for q in QUERY_MIX)

    def expect(self):
        import __ray_entry__

        sqls = __ray_entry__.oracle_sql()
        self.expected = oracle.duckdb_results({q: sqls[q] for q in QUERY_MIX}, self.dirs)

    def op(self, q: str) -> pa.Table:
        import __ray_entry__

        from gdal_ray.util import to_arrow

        return to_arrow(__ray_entry__.queries()[q](self.dirs[q]))

    def check(self, q: str, out: pa.Table) -> list[str]:
        from tools.check_correctness import compare

        return compare(q, out.to_pandas(), self.expected[q])

    def run_round(self, on_query=None):
        """One pass; on_query(name, seconds) is called after each query."""
        wall, results = 0.0, []
        for q in QUERY_MIX:
            out, dt = timed(lambda: self.op(q))
            wall += dt
            if on_query is not None:
                on_query(q, dt)
            results.append((q, self.check(q, out)))
        return wall, results


WORKLOADS = {w.name: w for w in (Flagship, PipDense, TilesWrite, QueryMix)}
