"""Collects acceptance verdict lines and prints them after the test summary.

pytest captures stdout at the file-descriptor level, so the per-criterion
lines printed inside tests are only visible under -s. The terminal-summary
hook below repeats them where every run can see them, including piped ones.
The ``fresh_python`` fixture runs a new interpreter on the package in src/.
An autouse fixture fails any test that ends with the cyclic collector
disabled: ``analyze_graph`` pauses it, and must restore it on every path.
Another fails a test that runs past ``TIME_LIMIT_S``, so that a hang ends
the test instead of the whole run (``SIGALRM``, where ``setitimer`` exists).
"""

import gc
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ACCEPTANCE_VERDICTS: list = []
SRC = str(Path(__file__).resolve().parents[1] / "src")
TIME_LIMIT_S = 60  # the slowest test takes under 2 s


class TimeLimitExceeded(BaseException):
    """Not an Exception, nor pytest's Failed: hypothesis takes either for a
    failing example and goes on shrinking, now with no alarm left."""


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expired(signum, frame):
        raise TimeLimitExceeded(f"the test ran past its {TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def collector_left_enabled():
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic collector disabled")


@pytest.fixture
def fresh_python():
    """``fresh_python(*args, max_bytes=None)`` runs ``python *args`` in a new
    interpreter importing from src/, optionally under an address-space cap
    of ``max_bytes``, where work that grows with a huge input ends in
    MemoryError instead of exhausting the host."""

    def run(*args, max_bytes=None):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))

        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=limit if max_bytes else None,
        )

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
