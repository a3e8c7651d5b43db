"""Pytest plumbing: one BLAS thread, and acceptance verdicts collected and
printed after the run."""

import os

# one BLAS thread, as the benchmark runs (bench/run.py's pin_threads): tied
# optima, and so some verdicts, follow the thread count. numpy reads these
# when it is first imported, which is after this file; an explicit setting
# in the environment still wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

_VERDICTS: list[tuple[int, str]] = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Callable that records one PASS/FAIL line per acceptance criterion."""

    def record(criterion: int, ok: bool, detail: str) -> None:
        _VERDICTS.append(
            (criterion, f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
        )

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_VERDICTS):
        terminalreporter.write_line(line)
