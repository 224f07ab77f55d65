"""Show that each workload's output check catches a corrupted output.

    python3 perfbench/selfcheck.py [--seed N]

For every workload one real engine output is checked as it is (it must
pass), then with one deliberate fault (it must fail):

* flagship: one zoom-9 tile count off by one;
* pip_dense: one point moved to another admin cell;
* tiles_write: one written fragment changed on disk;
* query_mix: one value of a query result changed.

Prints one line per case and exits 0 only if every case behaves.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def flagship_cases(wl):
    import pyarrow as pa
    import pyarrow.compute as pc

    out = wl.op()
    i = pc.index(out["zoom"], 9).as_py()
    n = out["n_pages"].to_pylist()
    n[i] += 1
    bad = out.set_column(out.schema.get_field_index("n_pages"), "n_pages", pa.array(n, pa.int64()))
    return wl.check(out), wl.check(bad)


def pip_cases(wl):
    import pyarrow as pa

    out = wl.op()
    n = out["n"].to_pylist()
    src = next(i for i, v in enumerate(n) if v > 0)
    n[src] -= 1
    n[(src + 1) % len(n)] += 1
    bad = out.set_column(out.schema.get_field_index("n"), "n", pa.array(n, out["n"].type))
    return wl.check(out), wl.check(bad)


def tiles_cases(wl):
    import pyarrow as pa
    import pyarrow.parquet as pq

    import oracle

    out_dir = os.path.join(wl.work_dir, "selfcheck")
    written = wl.op(out_dir)
    before = oracle.fragment_digests(out_dir)
    resumed = wl.op(out_dir)
    good = wl.check_write(out_dir, written) + wl.check_resume(out_dir, resumed, before)
    frag = os.path.join(out_dir, "parts", sorted(before)[0])
    t = pq.read_table(frag)
    n = t["n_pages"].to_pylist()
    n[0] += 1
    pq.write_table(t.set_column(t.schema.get_field_index("n_pages"), "n_pages",
                                pa.array(n, t["n_pages"].type)), frag)
    bad = wl.check_write(out_dir, written) + wl.check_resume(out_dir, resumed, before)
    shutil.rmtree(out_dir)
    return good, bad


def query_cases(wl):
    import pyarrow as pa

    q = "q01_tpch_groupby"
    out = wl.op(q)
    v = out["sum_qty"].to_pylist()
    v[0] += 1.0
    bad = out.set_column(out.schema.get_field_index("sum_qty"), "sum_qty", pa.array(v, pa.float64()))
    return wl.check(q, out), wl.check(q, bad)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    sys.path[:0] = [HERE, ROOT]
    import run
    from workloads import WORKLOADS

    cases = {"flagship": flagship_cases, "pip_dense": pip_cases,
             "tiles_write": tiles_cases, "query_mix": query_cases}
    work_dir = tempfile.mkdtemp(prefix=".pb-", dir=ROOT)
    ok = True
    try:
        run.start_ray(work_dir)
        for name, fn in cases.items():
            wl = WORKLOADS[name](args.seed, os.path.join(work_dir, name))
            wl.make_inputs()
            wl.start_session()
            wl.expect()
            good, bad = fn(wl)
            print(f"{name}: untouched output {'passes' if not good else f'FAILS {good}'}; "
                  f"corrupted output {'is caught: ' + bad[0] if bad else 'PASSES'}")
            ok = ok and not good and bool(bad)
    finally:
        run.stop_ray()
        shutil.rmtree(work_dir, ignore_errors=True)
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
