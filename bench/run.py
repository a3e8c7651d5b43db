"""vlcopt benchmark: certified-solve timings and a traced per-layer split.

Run from the repository root:

    python3 bench/run.py --workload sir_sweep --seed 7 --seconds 50 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
runs the harness self-check, then one traced pass, and reports the
per-layer metrics. Every result is checked against independent oracles
(see checks.py). The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; a fuller record,
with the environment, goes to bench/out/. METRICS.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB"))


def pin_threads() -> None:
    """One BLAS thread: must run before numpy is first imported. More threads
    made solves 2-4x slower on a 2-CPU machine and changed which tied
    optimum the simplex lands on."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    from vlcopt import cg_scheduler, lp

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "affinity": affinity,
        "nproc": len(affinity),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "tolerances": {
            "lp": {k: getattr(lp, k) for k in (
                "FEAS_TOL", "DUALITY_REL_TOL", "RC_TOL", "PIVOT_TOL", "INT_TOL")},
            "cg_scheduler": {k: getattr(cg_scheduler, k) for k in (
                "REDUCED_COST_TOL", "ILLUM_SLACK", "_ROW_CHECK_TOL", "_OMEGA_TOL",
                "_SHORTFALL_TOL_BPS")},
        },
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="sir_sweep")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "vlcopt").is_dir():
        print(f"error: no vlcopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{w.name}-seed{args.seed}"
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    print(f"workload={w.name} seed={args.seed} trace={args.trace} "
          f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")

    notes: dict[str, str] = {}
    if args.trace:
        from spans import LAYER_METRICS
        problems = workloads.selfcheck() + manifest_problems(workloads)
        print(f"selfcheck: {'FAIL ' + str(problems) if problems else 'PASS'}")
        run = workloads.traced_run(w, args.seed)
        metrics = {name: {"value": run["metrics"][name], "unit": unit}
                   for name, unit in LAYER_METRICS}
        run["tracer"].write_spans(f"{stem}-spans.csv.gz")
        _write_csv(f"{stem}-iterations.csv", run["iterations"])
        record.update(selfcheck=problems, iterations=run["iterations"])
    else:
        problems = []
        run = workloads.timed_run(w, args.seed, args.seconds)
        setup, solve = run["setup_s"], run["solve_s"]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "solve_s": {"value": statistics.median(solve), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        notes = {"setup_s": f" (median of {len(setup)})",
                 "solve_s": f" (median of {len(solve)})"}
        record.update(setup_samples_s=setup, solve_samples_s=solve)

    tally = run["tally"]
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}{notes.get(name, '')}")
    print(f"fail_frac = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} solves)")
    for report in tally.reports[:1]:
        print(f"not gated: {json.dumps(report, default=str)}")
    for msg in tally.messages:
        print(f"FAILED: {msg.strip()}")

    # glibc's default allocator maps and faults in large simplex temporaries;
    # the faults are part of the timed work, and their count is kept here
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    print(f"minor_faults = {faults} count (whole process, not a metric)")

    correct = tally.failed == 0 and not problems
    record.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed,
                  minor_faults=faults, failures=tally.messages, reports=tally.reports,
                  correct=correct)
    with open(f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def manifest_problems(workloads) -> list[str]:
    """BENCHMARK.json must declare exactly the workloads and metrics emitted."""
    from spans import LAYER_METRICS

    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return []
    doc = json.loads(path.read_text())
    out = []
    if sorted(w["name"] for w in doc["workloads"]) != sorted(workloads.WORKLOADS):
        out.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in doc["end_to_end"]] != list(END_TO_END):
        out.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in doc["per_layer"]] != list(LAYER_METRICS):
        out.append("BENCHMARK.json per_layer differs from spans.LAYER_METRICS")
    return out


def _write_csv(path: str, rows: list[dict]) -> None:
    if not rows:
        return
    with open(path, "w") as fh:
        fh.write(",".join(rows[0]) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row.values()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
