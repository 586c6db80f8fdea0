"""Shared test fixtures."""

import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def _isolated_trace_cache(tmp_path_factory):
    """Keep the on-disk workload-trace cache out of the real home dir.

    Campaign runs resolve ``WorkloadSpec`` traces through the compiled
    trace cache; the suite must not populate (or depend on) the
    developer's ``~/.cache``.  The override is an environment variable,
    so isolated worker processes inherit it too.
    """
    path = str(tmp_path_factory.mktemp("trace-cache"))
    previous = os.environ.get("REPRO_TRACE_CACHE")
    os.environ["REPRO_TRACE_CACHE"] = path
    yield
    if previous is None:
        os.environ.pop("REPRO_TRACE_CACHE", None)
    else:
        os.environ["REPRO_TRACE_CACHE"] = previous


class _FinishHook:
    """A campaign progress tracker that only passes on terminal outcomes."""

    def __init__(self, on_finish):
        self.point_finished = on_finish

    def begin(self, total, workers=1):
        pass

    def point_started(self, run_id):
        pass

    def finish(self, status):
        pass


@pytest.fixture
def finish_hook():
    """Build a progress stub whose ``point_finished`` calls a function."""
    return _FinishHook
