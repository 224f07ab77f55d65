"""Driver-mimic: run every queries() entry at sf0.01 and compare with the
oracle SQL via DuckDB (row count + column names + order-insensitive values).

Usage: python tools/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype(np.float64)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def compare(name, got: pd.DataFrame, exp: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(got.columns) != sorted(exp.columns):
        problems.append(f"columns {sorted(got.columns)} != {sorted(exp.columns)}")
        return problems
    if len(got) != len(exp):
        problems.append(f"rowcount {len(got)} != {len(exp)}")
        return problems
    # the driver's value-hash is dtype-sensitive (164.0 vs 164 differ):
    # flag float-vs-int class mismatches normalize() would otherwise hide
    for c in got.columns:
        gk = "f" if pd.api.types.is_float_dtype(got[c]) else (
            "i" if pd.api.types.is_integer_dtype(got[c]) else "o")
        ek = "f" if pd.api.types.is_float_dtype(exp[c]) else (
            "i" if pd.api.types.is_integer_dtype(exp[c]) else "o")
        if gk != ek:
            problems.append(
                f"col {c}: dtype class {got[c].dtype} vs {exp[c].dtype} "
                "(driver hash would mismatch)")
    if problems:
        return problems
    g, e = normalize(got), normalize(exp)
    for c in g.columns:
        gv, ev = g[c].to_numpy(), e[c].to_numpy()
        if pd.api.types.is_float_dtype(g[c]):
            # tolerate last-ulp differences between the two engines' round()
            # implementations (values are pre-rounded on both sides)
            ok = np.allclose(gv, ev, rtol=1e-9, atol=1e-12, equal_nan=True)
        else:
            ok = (pd.Series(gv).fillna("__N__") == pd.Series(ev).fillna("__N__")).all()
        if not ok:
            bad = np.nonzero(~(pd.Series(gv).fillna("__N") == pd.Series(ev).fillna("__N")).to_numpy())[0][:3]
            problems.append(f"col {c}: mismatch rows {bad.tolist()} got={gv[bad]} exp={ev[bad]}")
    return problems


def main():
    argv = list(sys.argv[1:])
    json_out = None
    if "--json" in argv:
        i = argv.index("--json")
        json_out = argv[i + 1]
        del argv[i:i + 2]
    sf_dir = argv[0] if argv else "/root/testdata/sf0.01"
    only = set(argv[1:])

    import ray

    # check this script's own checkout, in this process and in the Ray workers
    pypath = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR",
             runtime_env={"env_vars": {"PYTHONPATH": pypath}})
    sys.path.insert(0, ROOT)
    from gdal_ray.util import tune_data_context

    tune_data_context()

    import __ray_entry__ as E
    from gdal_ray.util import to_arrow

    qs = E.queries()
    sqls = E.oracle_sql()
    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.execute(f"create view {t} as select * from read_parquet('{sf_dir}/{t}.parquet')")

    n_pass = n_fail = n_rowsonly = 0
    results = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_arrow(fn(sf_dir)).to_pandas()
        except Exception as exc:
            print(f"FAIL {name}: query raised {type(exc).__name__}: {exc}")
            results[name] = {"status": "fail",
                             "error": f"{type(exc).__name__}: {exc}"}
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in sqls:
            print(f"rows-only {name}: {len(got)} rows  ({dt:.1f}s)")
            results[name] = {"status": "rows-only", "rows": len(got),
                             "secs": round(dt, 2)}
            n_rowsonly += 1
            continue
        exp = con.execute(sqls[name]).df()
        problems = compare(name, got, exp)
        if problems:
            print(f"FAIL {name} ({dt:.1f}s):")
            for p in problems:
                print(f"    {p}")
            results[name] = {"status": "fail", "rows": len(got),
                             "secs": round(dt, 2), "problems": problems}
            n_fail += 1
        else:
            print(f"PASS {name}: {len(got)} rows  ({dt:.1f}s)")
            results[name] = {"status": "pass", "rows": len(got),
                             "secs": round(dt, 2)}
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail, {n_rowsonly} rows-only")
    if json_out:
        import json
        with open(json_out, "w") as f:
            json.dump({"sf_dir": sf_dir, "pass": n_pass, "fail": n_fail,
                       "rows_only": n_rowsonly, "queries": results}, f,
                      indent=1, default=str)
        print(f"wrote {json_out}")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
