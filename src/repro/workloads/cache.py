"""On-disk cache of compiled workload traces.

Workload generators are deterministic, so a ``(name, seed, count)``
triple fully identifies a trace prefix.  The first request compiles
that prefix into the binary trace format (:mod:`repro.trace.binfmt`);
later requests — other sweep points, other processes, other days —
mmap it straight back instead of re-running the generator.

The cache directory is ``$REPRO_TRACE_CACHE`` when set, else
``~/.cache/repro-sim/traces``.  File names embed the binary format
version, so a format bump simply misses the old files rather than
tripping over stale headers; a corrupted or stale file is recompiled
in place.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
from typing import Iterable, List

from repro.errors import TraceFormatError
from repro.trace.binfmt import (
    SUFFIX,
    VERSION,
    binary_trace_count,
    compile_trace,
    load_binary_trace_list,
)
from repro.trace.record import TraceRecord
from repro.workloads.registry import get_workload

__all__ = [
    "cache_dir",
    "cache_path",
    "cache_stats",
    "cached_workload_trace",
    "clear_cache",
    "prewarm_workload_trace",
    "reset_cache_stats",
]

#: Per-process cache activity.  ``corrupt_recompiled`` counts entries
#: that existed on disk but failed header/checksum validation and were
#: recompiled in place — the signal that something is damaging the
#: cache.  Campaign prewarm runs in the parent process, so the parent's
#: counters cover the shared entries its workers mmap.
_STATS = {"hits": 0, "misses": 0, "corrupt_recompiled": 0}


def cache_stats() -> dict:
    """A snapshot of this process's cache hit/miss/recompile counters."""
    return dict(_STATS)


def reset_cache_stats() -> None:
    """Zero the cache counters (test isolation)."""
    for key in _STATS:
        _STATS[key] = 0


def cache_dir() -> str:
    """The directory compiled workload traces live in."""
    override = os.environ.get("REPRO_TRACE_CACHE")
    if override:
        return override
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro-sim", "traces"
    )


def cache_path(name: str, seed: int, instructions: int) -> str:
    """Cache file for ``instructions`` records of ``name`` at ``seed``."""
    filename = f"{name}-s{seed}-n{instructions}-v{VERSION}{SUFFIX}"
    return os.path.join(cache_dir(), filename)


def cached_workload_trace(
    name: str,
    seed: int = 1,
    instructions: int = 0,
    refresh: bool = False,
) -> List[TraceRecord]:
    """Load ``instructions`` records of workload ``name``, cached on disk.

    On a cache miss (or ``refresh=True``, or an unreadable/stale cache
    file) the generator runs once into a list.  That list is compiled
    through :func:`repro.trace.binfmt.compile_trace`, the written
    entry's header, checksum and count are checked, and the list itself
    is returned.  Either way the returned records are exactly what
    ``get_workload(name, seed=seed)`` yields.  An entry that fails the
    check stays on disk, and the next call recompiles it as corrupt.
    ``instructions`` must be positive: generators are unbounded, so an
    unlimited cache entry cannot exist.

    If the cache directory cannot be created or written (read-only
    home, sandbox), the generated records are returned uncached — the
    cache is an accelerator, never a requirement.
    """
    if instructions <= 0:
        raise ValueError("cached_workload_trace needs instructions > 0")
    path = cache_path(name, seed, instructions)
    if not refresh:
        records, corrupt = _try_load(path, instructions)
        if records is not None:
            _STATS["hits"] += 1
            return records
        if corrupt:
            _STATS["corrupt_recompiled"] += 1
        else:
            _STATS["misses"] += 1
    # An unknown name raises here, before the filesystem is touched.
    with _collector_paused():
        records = list(
            itertools.islice(get_workload(name, seed=seed), instructions)
        )
    _compile_entry(path, records)
    return records


def prewarm_workload_trace(
    name: str, seed: int = 1, instructions: int = 0
) -> bool:
    """Ensure the cache entry for ``(name, seed, instructions)`` exists.

    Compiles the workload prefix if it is missing, stale, or incomplete,
    without loading the records into memory afterwards.  A campaign
    driver calls this once in the parent before fanning points out to
    worker processes, so N workers mmap one shared compiled trace
    instead of each re-running the generator (or racing to compile the
    same entry).  A cache hit re-validates the header checksum (via
    :func:`repro.trace.binfmt.binary_trace_count`); a corrupt entry is
    recompiled in place and counted in :func:`cache_stats`.  Returns
    True when a valid entry is in place, False when the cache is
    unwritable — workers then fall back to the generator, which is
    slower but always correct.
    """
    if instructions <= 0:
        raise ValueError("prewarm_workload_trace needs instructions > 0")
    path = cache_path(name, seed, instructions)
    corrupt = False
    try:
        if binary_trace_count(path) == instructions:
            _STATS["hits"] += 1
            return True
        corrupt = True
    except TraceFormatError:
        corrupt = os.path.exists(path)
    if corrupt:
        _STATS["corrupt_recompiled"] += 1
    else:
        _STATS["misses"] += 1
    source = get_workload(name, seed=seed)
    return _compile_entry(path, source, instructions)


def _compile_entry(
    path: str, records: Iterable[TraceRecord], instructions: int = 0
) -> bool:
    """Compile ``records`` (up to ``instructions``, 0 = all) into the
    cache entry at ``path``; True when the written entry's header,
    checksum and count check out, False when it cannot be written or
    does not."""
    try:
        os.makedirs(cache_dir(), exist_ok=True)
        written = compile_trace(path, records, limit=instructions)
        return binary_trace_count(path) == written
    except (OSError, TraceFormatError):
        return False


@contextlib.contextmanager
def _collector_paused():
    """Pause CPython's cycle collector while a record list is built.

    Left on, the collector traverses the records again and again as
    they pile up, which roughly doubles the time to build a million of
    them.  Records hold only ints, bools and ``InstrKind`` members, and
    the generators leave no cyclic garbage, so the pause defers no
    collection work.  The caller's collector state (on or off) is
    restored on the way out, exception or not; the state is
    process-wide, so the pause covers other threads too.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _try_load(path: str, instructions: int):
    """Load a cache file.

    Returns ``(records, False)`` on success, ``(None, False)`` when the
    entry is simply absent, and ``(None, True)`` when a file exists but
    is stale, corrupt, or short — the caller decides whether that is a
    miss or a recompile.
    """
    if not os.path.exists(path):
        return None, False
    try:
        with _collector_paused():
            records = load_binary_trace_list(path)
    except TraceFormatError:
        return None, True
    if len(records) != instructions:
        return None, True
    return records, False


def clear_cache() -> int:
    """Delete all compiled traces in the cache; return how many."""
    directory = cache_dir()
    removed = 0
    try:
        entries = os.listdir(directory)
    except OSError:
        return 0
    for entry in entries:
        if entry.endswith(SUFFIX):
            try:
                os.unlink(os.path.join(directory, entry))
                removed += 1
            except OSError:
                pass
    return removed
