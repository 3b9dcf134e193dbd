"""Cold-cache benchmark of mtv: one workload per invocation.

    python3 bench/run.py --workload path-split --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; mtv is imported from ``src``.
Each repetition is a fresh interpreter (bench/child.py), so mtv's memo
tables start empty every time.  Repetitions run one after another, never
in parallel, with BLAS/OpenMP threads pinned to 1 and PYTHONHASHSEED
fixed, until ``--seconds`` have passed and at least MIN_REPS have run.

--trace 0 prints the end-to-end metrics, each the median over the
run's repetitions.  Identical repetitions on a shared two-core machine
vary by up to 2x as other tenants' load comes and goes, and the whole
host changes speed for minutes at a time (bench/README.md).  Each child
therefore times a fixed pure-Python reference loop every 20 ms while its
operations run, and every time is rescaled to a host that runs that loop
in REFERENCE_S: a repetition's set-up, wall and CPU times are divided by
its median reference sample (wall or CPU).  The slowdowns hit the loop
and mtv alike, so the ratio holds still while raw seconds move by 20-40 %.
Raw seconds stay in the result file.  peak_rss_mb is not rescaled.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones, with the tracing overhead.  Every
repetition's outputs are checked, and the first repetition also runs
each checker's self-test; the last line of standard output is one JSON
object.  Per-repetition results and the trace go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("path-split", "exact-algebra", "level-matrices", "nested-sums")
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
TIME_LIMIT_S = 170.0
# time of one child.reference() call on the reference machine when the host
# is quiet; reported times are seconds on a host running that loop this fast
REFERENCE_S = 1.9e-3

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "numoracle.holder_s": "s", "numoracle.holder_calls": "count", "numoracle.holder_new": "count",
    "numoracle.nested_s": "s", "numoracle.nested_calls": "count", "numoracle.nested_new": "count",
    "numoracle.digamma_s": "s", "numoracle.lincomb_s": "s", "numoracle.min_bits": "bits",
    "regularize.self_s": "s", "regularize.calls": "count", "regularize.memo_entries": "count",
    "wordalg.self_s": "s", "wordalg.products": "count",
    "symring.polys_built": "count",
    "closedform.self_s": "s",
    "indexcore.basis_s": "s",
    "motivic.build_s": "s", "motivic.matrices": "count", "motivic.max_order": "rows",
    "ratmatrix.det_s": "s", "ratmatrix.dets": "count",
    "verify.self_s": "s", "verify.checks": "count",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    # no repetition writes bytecode for the next one to read, so each one
    # compiles mtv from a clean checkout's sources
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_rep(workload: str, seed: int, trace: bool, selftest: bool, deadline: float) -> dict:
    """One repetition in a fresh interpreter; set-up time is measured from launch."""
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed), str(int(trace)), str(int(selftest))],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - launch),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{workload}: repetition exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: repetition exited with {proc.returncode}\n{proc.stderr[-3000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_raw_s"] = rep["first_call"] - launch
    rep["run_raw_s"] = sum(rep["op_wall_s"])
    rep["cpu_raw_s"] = sum(rep["op_cpu_s"])
    # the slowdowns of the host hit the reference loop and mtv alike
    rep["setup_s"] = rep["setup_raw_s"] * REFERENCE_S / statistics.median(rep["ref_wall_s"])
    rep["run_s"] = rep["run_raw_s"] * REFERENCE_S / statistics.median(rep["ref_wall_s"])
    rep["cpu_s"] = rep["cpu_raw_s"] * REFERENCE_S / statistics.median(rep["ref_cpu_s"])
    rep["traced"] = trace
    return rep


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> list:
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    reps = []
    modes = (False, True) if trace else (False,)
    least = 2 * MIN_TRACED_PAIRS if trace else MIN_REPS
    while len(reps) < least or time.monotonic() - start < seconds:
        for mode in modes:
            reps.append(run_rep(workload, seed, mode, not reps, deadline))
    return reps


def summarise(reps: list, trace: bool) -> dict:
    plain = [r for r in reps if not r["traced"]]
    if trace:
        traced = [r for r in reps if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["cli.import_s"] = min(r["import_s"] for r in reps)
        values["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                      - statistics.median(r["run_s"] for r in plain))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = {name: statistics.median(r[name] for r in plain) for name in END_TO_END}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": all(not r["problems"] and not r["selftest_missed"] for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mtv" / "__init__.py").is_file():
        print(f"no mtv sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        reps = run_workload(args.workload, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    result = summarise(reps, trace)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps({"result": result, "reps": reps}, indent=1))
    for r in reps:
        if r["problems"] or r["selftest_missed"]:
            print(f"check problems: {r['problems']}; self-tests that caught nothing: {r['selftest_missed']}",
                  file=sys.stderr)
    shown = "  ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items())
    print(f"{args.workload}: {len(reps)} cold repetitions, {result['attempted']} operations, "
          f"{result['failed']} failed, correct={result['correct']}\n  {shown}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
