"""Trace serialization: save and reload instruction traces.

Workload generators are cheap to re-run, but saved traces make runs
bit-reproducible across library versions and let users bring their own
traces (e.g. converted from a real program's memory trace).  The format
is a compact text format, one record per line::

    # repro-trace v1
    L pc addr dep1 dep2        # load
    S pc addr dep1 dep2        # store
    B pc taken dep1 dep2       # branch
    A|M|D|F|X|V|N pc dep1 dep2 # IALU/IMUL/IDIV/FADD/FMUL/FDIV/NOP

All numbers are hexadecimal except the dependence distances.
"""

from __future__ import annotations

from typing import IO, Iterable, Iterator, List, Optional, Union

from repro.errors import TraceFormatError
from repro.trace.binfmt import load_binary_trace, sniff_binary
from repro.trace.record import InstrKind, TraceRecord

_HEADER = "# repro-trace v1"

_KIND_TO_CODE = {
    InstrKind.LOAD: "L",
    InstrKind.STORE: "S",
    InstrKind.BRANCH: "B",
    InstrKind.IALU: "A",
    InstrKind.IMUL: "M",
    InstrKind.IDIV: "D",
    InstrKind.FADD: "F",
    InstrKind.FMUL: "X",
    InstrKind.FDIV: "V",
    InstrKind.NOP: "N",
}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}


__all__ = [
    "TraceFormatError",
    "save_trace",
    "load_trace",
]


def _format_record(record: TraceRecord) -> str:
    code = _KIND_TO_CODE[record.kind]
    if record.is_memory:
        return (
            f"{code} {record.pc:x} {record.addr:x} "
            f"{record.dep1} {record.dep2}"
        )
    if record.is_branch:
        return (
            f"{code} {record.pc:x} {int(record.taken)} "
            f"{record.dep1} {record.dep2}"
        )
    return f"{code} {record.pc:x} {record.dep1} {record.dep2}"


def _parse_line(line: str, line_number: int) -> TraceRecord:
    fields = line.split()
    try:
        kind = _CODE_TO_KIND[fields[0]]
        pc = int(fields[1], 16)
        if kind in (InstrKind.LOAD, InstrKind.STORE):
            return TraceRecord(
                kind, pc, addr=int(fields[2], 16),
                dep1=int(fields[3]), dep2=int(fields[4]),
            )
        if kind == InstrKind.BRANCH:
            return TraceRecord(
                kind, pc, taken=bool(int(fields[2])),
                dep1=int(fields[3]), dep2=int(fields[4]),
            )
        return TraceRecord(kind, pc, dep1=int(fields[2]), dep2=int(fields[3]))
    except (KeyError, IndexError, ValueError) as error:
        raise TraceFormatError(
            f"line {line_number}: cannot parse {line!r}",
            line_number=line_number,
            line=line,
        ) from error


def save_trace(
    destination: Union[str, IO[str]],
    records: Iterable[TraceRecord],
    limit: int = 0,
) -> int:
    """Write ``records`` (up to ``limit``, 0 = all) as a trace file.

    Returns the number of records written.
    """

    def _write(handle: IO[str]) -> int:
        handle.write(_HEADER + "\n")
        written = 0
        for record in records:
            if limit and written >= limit:
                break
            handle.write(_format_record(record) + "\n")
            written += 1
        return written

    if isinstance(destination, str):
        with open(destination, "w") as handle:
            return _write(handle)
    return _write(destination)


def load_trace(
    source: Union[str, IO[str]],
    strict: bool = True,
    errors: Optional[List[TraceFormatError]] = None,
) -> Iterator[TraceRecord]:
    """Lazily yield records from a trace file or open handle.

    Blank lines and ``#`` comments are tolerated anywhere in the file.
    With ``strict=False`` unparseable records are skipped instead of
    aborting the load; each skipped record's :class:`TraceFormatError`
    (carrying ``line_number`` and ``line``) is appended to ``errors``
    when a list is supplied, so callers can count and report them.  A
    missing or wrong header always raises: the file cannot be a trace.

    A path that starts with the compiled-trace magic is transparently
    loaded via :func:`repro.trace.binfmt.load_binary_trace`; compiled
    traces have no malformed-record state, so ``strict``/``errors``
    are moot there (validation is wholesale, at the header).
    """

    def _read(handle: IO[str]) -> Iterator[TraceRecord]:
        first = handle.readline().rstrip("\n")
        if first != _HEADER:
            raise TraceFormatError(
                f"bad header: expected {_HEADER!r}, got {first!r}",
                line_number=1,
                line=first,
            )
        for line_number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                yield _parse_line(line, line_number)
            except TraceFormatError as error:
                if strict:
                    raise
                if errors is not None:
                    errors.append(error)

    if isinstance(source, str):
        if sniff_binary(source):
            yield from load_binary_trace(source)
            return
        try:
            handle = open(source)
        except OSError as error:
            raise TraceFormatError(f"cannot open trace {source!r}: {error}")
        with handle:
            yield from _read(handle)
    else:
        yield from _read(source)
