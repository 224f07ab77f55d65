"""Run one benchmark workload and print its result document.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 10 --trace 0

Run from the root of a checkout of the repository. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones (setup_s,
wall_s, rows_per_s, peak_rss_mb); with --trace 1 they are the per-layer
ones (see layers.py). Everything else (Ray's logs, progress, errors) goes to
standard error. Exit code 0 means the run finished; outputs that failed
their check are counted in "failed" and, unless they are the known fault,
make "correct" false.
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Ray's session directory holds unix sockets, whose paths are limited to
#: 107 bytes. With the short session name below, the session directory and
#: the longest socket name ("/s/sockets/plasma_store") take 23 of them
RAY_SESSION_NAME = "s"
MAX_RAY_TEMP_DIR = 84
#: the plasma store reserves all of this in /dev/shm when Ray starts; the
#: workloads' blocks are a few MB each
OBJECT_STORE_BYTES = 256 << 20
#: starts of the local Ray node before giving up; Ray waits 30 s for its
#: raylet to register, and a raylet can stall at start on a loaded host
RAY_START_ATTEMPTS = 2


class WorkerImportError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def num_cpus() -> int:
    """What `nproc` reports (it honours OMP_NUM_THREADS, which the CPU
    affinity mask alone does not)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout
        return int(out)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def start_ray(work_dir: str) -> None:
    """A local Ray session whose workers import gdal_ray from this checkout
    whatever their working directory. A worker that cannot import it ends
    the run at once instead of leaving Ray retrying."""
    import ray

    kwargs = {}
    ray_tmp = os.path.join(work_dir, "ray")
    if len(ray_tmp) <= MAX_RAY_TEMP_DIR and short_session_name():
        kwargs["_temp_dir"] = ray_tmp
    else:
        print(f"Ray's session files go to its default directory: {ray_tmp} cannot hold "
              "its unix sockets", file=sys.stderr)
    # a new local node whatever RAY_ADDRESS says or a running cluster offers
    os.environ.pop("RAY_ADDRESS", None)
    for attempt in range(1, RAY_START_ATTEMPTS + 1):
        try:
            # PYTHONHASHSEED: workers hash strings the same way in every run
            ray.init(
                address="local",
                num_cpus=num_cpus(),
                include_dashboard=False,
                logging_level="ERROR",
                object_store_memory=OBJECT_STORE_BYTES,
                runtime_env={"env_vars": {"PYTHONPATH": ROOT, "PYTHONHASHSEED": "0"}},
                **kwargs,
            )
            break
        except Exception as exc:  # Ray raises a bare Exception on a start timeout
            stop_ray()
            if attempt == RAY_START_ATTEMPTS:
                raise
            print(f"Ray start {attempt} failed ({exc}); starting again", file=sys.stderr)

    @ray.remote(max_retries=0)
    def probe():
        import gdal_ray

        return gdal_ray.__file__

    try:
        ray.get([probe.remote() for _ in range(num_cpus())], timeout=120)
    except Exception as exc:  # any failure here means no usable worker
        raise WorkerImportError(f"Ray workers cannot import gdal_ray: {exc}") from exc
    from gdal_ray.util import tune_data_context

    tune_data_context()


def stop_ray() -> None:
    """Ray's own shutdown (also of a node whose start failed half way), then
    whatever process of the run is still alive."""
    import procfs

    if "ray" in sys.modules:
        sys.modules["ray"].shutdown()
    procfs.end_descendants()


def short_session_name() -> bool:
    """Name the Ray session RAY_SESSION_NAME instead of its dated default,
    so the session's sockets fit under a temp dir inside a checkout with a
    long path. Ray's public init takes no session name, so the default of
    its node parameters is set; False if that is not possible."""
    try:
        from ray._private.parameter import RayParams
    except ImportError:
        return False
    init = RayParams.__init__
    if getattr(init, "short_session_name", False):
        return True

    def named_init(self, *args, **kwargs):
        kwargs["session_name"] = kwargs.get("session_name") or RAY_SESSION_NAME
        init(self, *args, **kwargs)

    named_init.short_session_name = True
    RayParams.__init__ = named_init
    return True


def tally(results, counts: dict) -> None:
    """Count operations; record any failure that is not the known fault."""
    from workloads import KNOWN_FAULTS

    for op, problems in results:
        counts["attempted"] += 1
        if problems:
            counts["failed"] += 1
            if op not in KNOWN_FAULTS:
                counts["unexpected"].append(f"{op}: {problems}")
                print(f"CHECK FAILED {op}: {problems}", file=sys.stderr)


def set_up(wl, work_dir: str) -> float:
    """Ray start, worker warm-up, input generation and one untimed warm-up
    round. Returns its seconds from process start, not counting the
    expected-output computation (the benchmark's own work)."""
    start_ray(work_dir)
    wl.make_inputs()
    wl.start_session()
    t1 = time.perf_counter()
    wl.expect()
    t_expect = time.perf_counter() - t1
    _, wl.warmup_results = wl.run_round()
    return time.perf_counter() - T_PROCESS - t_expect


def measure(wl, seconds: float, counts: dict) -> list[float]:
    """Whole rounds until `seconds` have passed; returns the round walls."""
    walls = []
    t_end = time.perf_counter() + seconds
    while True:
        wall, results = wl.run_round()
        walls.append(wall)
        tally(results, counts)
        if time.perf_counter() >= t_end:
            return walls


def run(args, work_dir: str) -> dict:
    import procfs
    from workloads import WORKLOADS

    # numpy takes only non-negative seeds; any int maps to a distinct one
    wl = WORKLOADS[args.workload](args.seed % (1 << 64), os.path.join(work_dir, "w"))
    counts = {"attempted": 0, "failed": 0, "unexpected": []}
    with procfs.PeakRSS() as rss:
        setup_s = set_up(wl, work_dir)
        if args.trace:
            import layers

            metrics, probe_results = layers.trace(wl, args.seconds, counts, measure)
            tally(probe_results, {"attempted": 0, "failed": 0, "unexpected": counts["unexpected"]})
        else:
            walls = measure(wl, args.seconds, counts)
            wall = statistics.median(walls)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": wall, "unit": "s"},
                "rows_per_s": {"value": wl.rows / wall, "unit": "rows/s"},
                "peak_rss_mb": {"value": rss.peak / 1e6, "unit": "MB"},
            }
            print(f"{args.workload} seed {args.seed}: setup {setup_s}, {len(walls)} rounds {walls}",
                  file=sys.stderr)
    warm = {"attempted": 0, "failed": 0, "unexpected": []}
    tally(wl.warmup_results, warm)
    return {
        "correct": not counts["unexpected"] and not warm["unexpected"],
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    from_checkout = os.path.isfile(os.path.join(ROOT, "gdal_ray", "__init__.py"))
    if not from_checkout:
        print(f"gdal_ray is not in {ROOT}: run this from a checkout of the repository",
              file=sys.stderr)
        return 2
    # the result document owns stdout; everything else, including output of
    # processes started from here, goes to stderr
    result_out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.path[:0] = [HERE, ROOT]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = tempfile.mkdtemp(prefix=".pb-", dir=ROOT)
    try:
        result = run(args, work_dir)
    except WorkerImportError as exc:
        print(exc, file=sys.stderr)
        return 3
    finally:
        stop_ray()
        shutil.rmtree(work_dir, ignore_errors=True)
    result_out.write(json.dumps(result) + "\n")
    result_out.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
