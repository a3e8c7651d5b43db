"""The benchmark harness still runs against the package: its tracer wraps
names the package must keep, and its manifest must match what it emits."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402


def test_traced_selfcheck_passes():
    assert workloads.selfcheck() == []


def test_manifest_matches_emitted_metrics():
    assert run.manifest_problems(workloads) == []


def test_environment_reads_the_solver_constants():
    # the record names constants of `lp` and `cg_scheduler`: deleting one
    # would crash every benchmark run
    from vlcopt import cg_scheduler, lp

    tolerances = run.environment()["tolerances"]
    for key, module in (("lp", lp), ("cg_scheduler", cg_scheduler)):
        for name, value in tolerances[key].items():
            assert value == getattr(module, name)
