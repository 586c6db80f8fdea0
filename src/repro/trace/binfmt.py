"""Packed binary trace format (``.rtb`` — repro trace binary).

Text traces re-parse every line on every sweep point; a campaign that
visits the same workload hundreds of times spends more wall time in
``int(x, 16)`` than in the simulator.  This module lowers a record
stream into a fixed-stride struct array that loads with one ``mmap``
and one ``struct.iter_unpack`` — no per-field parsing at all.

Layout (little-endian throughout)::

    offset  size  field
    0       8     magic  b"RTRACE\\x00\\x01"
    8       2     format version (u16)
    10      2     record size in bytes (u16)
    12      4     CRC32 of the record payload (u32)
    16      8     record count (u64)
    24      ...   records, ``record size`` bytes each

Each record is ``<BBIIQQ``: kind (u8), taken (u8), dep1 (u32),
dep2 (u32), pc (u64), addr (u64) — 26 bytes.  Dependence distances
beyond the u32 range cannot occur (the core only looks back a ROB's
worth of instructions), but :func:`compile_trace` validates them
anyway rather than silently truncating.

The version lives in the header, not the magic, so a reader can say
"stale version" rather than "not a trace".  The payload CRC32 is
back-patched into the header at compile time and verified on every
load, so a truncated, bit-flipped, or torn compiled trace is rejected
up front — a corrupt cache entry can never feed garbage records into a
simulation.  Any header mismatch raises
:class:`~repro.errors.TraceFormatError` whose message carries the file
offset and the expected-vs-found detail, mirroring the line-numbered
errors of the text parser.
"""

from __future__ import annotations

import io
import itertools
import mmap
import operator
import os
import struct
import time
import uuid
import zlib
from typing import IO, Iterable, Iterator, List, Union

from repro.errors import TraceFormatError
from repro.trace.record import InstrKind, TraceRecord

#: File magic: identifies the container, not the record layout.
MAGIC = b"RTRACE\x00\x01"

#: Bump on any change to the record struct or header semantics.
#: v2 repurposed the reserved header bytes as a payload CRC32.
VERSION = 2

_HEADER = struct.Struct("<8sHHIQ")
_RECORD = struct.Struct("<BBIIQQ")

HEADER_BYTES = _HEADER.size
RECORD_BYTES = _RECORD.size

#: Suggested extension for compiled traces.
SUFFIX = ".rtb"

_MAX_KIND = (1 << 8) - 1
_MAX_DEP1 = (1 << 32) - 1
_MAX_DEP2 = (1 << 32) - 1
_MAX_U64 = (1 << 64) - 1

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_BYTES",
    "RECORD_BYTES",
    "SUFFIX",
    "binary_trace_count",
    "compile_trace",
    "load_binary_trace",
    "load_binary_trace_list",
    "read_header",
    "sniff_binary",
]

#: Records packed per write: one ``b"".join``, one CRC32 update and one
#: ``write`` per chunk instead of one of each per record.
_CHUNK_RECORDS = 4096

#: Temp files this old (seconds) are presumed orphaned by a dead writer.
_STALE_TMP_SECONDS = 3600.0


def _sweep_stale_tmp(destination: str, max_age: float = _STALE_TMP_SECONDS) -> None:
    """Remove orphaned ``destination + ".tmp*"`` files left by writers
    that died mid-compile.  Only files older than ``max_age`` go — a
    young temp file may belong to a live concurrent compiler."""
    directory = os.path.dirname(destination) or "."
    prefix = os.path.basename(destination) + ".tmp"
    try:
        entries = os.listdir(directory)
    except OSError:
        return
    now = time.time()
    for entry in entries:
        if not entry.startswith(prefix):
            continue
        path = os.path.join(directory, entry)
        try:
            if now - os.path.getmtime(path) > max_age:
                os.unlink(path)
        except OSError:
            pass


def _field(record: TraceRecord, name: str, index: int) -> int:
    """``record.<name>`` as an int, else a :class:`TraceFormatError`
    naming record ``index``."""
    value = getattr(record, name)
    try:
        return operator.index(value)
    except TypeError:
        raise TraceFormatError(
            f"record {index}: {name} {value!r} is not an integer"
        ) from None


def _pack_record(record: TraceRecord, index: int) -> bytes:
    """Pack one record, raising :class:`TraceFormatError` naming
    ``index`` for a field that is not an integer or does not fit."""
    kind, dep1, dep2, pc, addr = [
        _field(record, name, index)
        for name in ("kind", "dep1", "dep2", "pc", "addr")
    ]
    if not 0 <= kind <= _MAX_KIND:
        raise TraceFormatError(
            f"record {index}: kind {kind} does not fit in 8 bits"
        )
    if not 0 <= dep1 <= _MAX_DEP1 or not 0 <= dep2 <= _MAX_DEP2:
        raise TraceFormatError(
            f"record {index}: dependence distances ({dep1}, {dep2}) "
            f"exceed the binary format's field widths"
        )
    if not 0 <= pc <= _MAX_U64 or not 0 <= addr <= _MAX_U64:
        raise TraceFormatError(
            f"record {index}: pc/addr ({pc:#x}, {addr:#x}) do not fit in "
            f"64 bits"
        )
    return _RECORD.pack(kind, 1 if record.taken else 0, dep1, dep2, pc, addr)


def _pack_chunk(chunk: List[TraceRecord], first: int) -> bytes:
    """Pack ``chunk``, whose first record has index ``first``, in bulk.

    A field ``struct`` rejects sends the chunk back through
    :func:`_pack_record` one record at a time, which raises the typed
    error naming that record's absolute index.
    """
    pack = _RECORD.pack
    try:
        return b"".join([
            pack(r.kind, 1 if r.taken else 0, r.dep1, r.dep2, r.pc, r.addr)
            for r in chunk
        ])
    except (struct.error, TypeError):
        return b"".join([
            _pack_record(record, first + offset)
            for offset, record in enumerate(chunk)
        ])


def compile_trace(
    destination: Union[str, IO[bytes]],
    records: Iterable[TraceRecord],
    limit: int = 0,
) -> int:
    """Write ``records`` (up to ``limit``, 0 = all) as a binary trace.

    Returns the number of records written.  The count is back-patched
    into the header after the record stream is exhausted, so unbounded
    generators work (with a ``limit``) without materializing a list.
    Records are pulled and packed :data:`_CHUNK_RECORDS` at a time, and
    never one past ``limit``.
    """

    def _write(handle: IO[bytes]) -> int:
        handle.write(_HEADER.pack(MAGIC, VERSION, RECORD_BYTES, 0, 0))
        source = iter(records)
        written = 0
        checksum = 0
        while True:
            wanted = _CHUNK_RECORDS
            if limit:
                wanted = min(wanted, limit - written)
            chunk = list(itertools.islice(source, wanted))
            if not chunk:
                break
            packed = _pack_chunk(chunk, written)
            checksum = zlib.crc32(packed, checksum)
            handle.write(packed)
            written += len(chunk)
        # Back-patch the count and the payload checksum now that the
        # stream is exhausted; readers verify both on every load.
        handle.seek(0)
        handle.write(
            _HEADER.pack(
                MAGIC, VERSION, RECORD_BYTES, checksum & 0xFFFFFFFF, written
            )
        )
        handle.seek(0, io.SEEK_END)
        return written

    if isinstance(destination, str):
        # Write to a temp name and rename into place, so readers (and
        # the workload cache) never observe a half-written trace.  The
        # temp name is unique per writer: concurrent processes compiling
        # the same cache entry (a parallel campaign's workers) must not
        # interleave into one file and rename a corrupt trace into place.
        tmp_path = f"{destination}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
        try:
            with open(tmp_path, "wb") as handle:
                written = _write(handle)
            os.replace(tmp_path, destination)
        except OSError as error:
            raise TraceFormatError(
                f"cannot write binary trace {destination!r}: {error}"
            )
        finally:
            if os.path.exists(tmp_path):
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
            _sweep_stale_tmp(destination)
        return written
    return _write(destination)


def read_header(buffer: bytes, verify_checksum: bool = True) -> int:
    """Validate a binary-trace header; return the record count.

    Raises :class:`TraceFormatError` on anything that is not a current-
    version, well-formed, checksum-consistent trace: wrong magic (not a
    binary trace at all), stale version (recompile needed), wrong
    record stride, a count that disagrees with the payload length, or a
    payload whose CRC32 does not match the header (truncation at a
    record boundary, bit flips, torn writes).  Every message carries
    the byte offset of the problem and the expected-vs-found values.
    ``verify_checksum=False`` skips only the (payload-sized) CRC pass.
    """
    if len(buffer) < HEADER_BYTES:
        raise TraceFormatError(
            f"binary trace truncated at offset {len(buffer)}: expected "
            f"a {HEADER_BYTES}-byte header, found {len(buffer)} bytes"
        )
    magic, version, record_bytes, checksum, count = _HEADER.unpack_from(
        buffer, 0
    )
    if magic != MAGIC:
        raise TraceFormatError(
            f"not a binary trace: at offset 0 expected magic {MAGIC!r}, "
            f"found {bytes(magic)!r}"
        )
    if version != VERSION:
        raise TraceFormatError(
            f"stale binary trace: at offset 8 expected format version "
            f"{VERSION}, found {version} — recompile the trace"
        )
    if record_bytes != RECORD_BYTES:
        raise TraceFormatError(
            f"corrupt binary trace: at offset 10 expected "
            f"{RECORD_BYTES}-byte records, header claims {record_bytes}"
        )
    payload = len(buffer) - HEADER_BYTES
    if payload != count * RECORD_BYTES:
        raise TraceFormatError(
            f"corrupt binary trace: header claims {count} records "
            f"({count * RECORD_BYTES} payload bytes) but the payload "
            f"ends at offset {len(buffer)} ({payload} bytes — "
            f"{'truncated' if payload < count * RECORD_BYTES else 'trailing garbage'})"
        )
    if verify_checksum:
        found = zlib.crc32(memoryview(buffer)[HEADER_BYTES:]) & 0xFFFFFFFF
        if found != checksum:
            raise TraceFormatError(
                f"corrupt binary trace: header checksum {checksum:#010x} "
                f"but payload CRC32 is {found:#010x} (bytes "
                f"{HEADER_BYTES}..{len(buffer)} were modified after "
                f"compile)"
            )
    return count


def sniff_binary(path: str) -> bool:
    """Cheap test: does ``path`` start with the binary-trace magic?

    Used by loaders to auto-detect text vs binary traces.  Only the
    magic is checked; a True answer still needs :func:`read_header`'s
    full validation at load time.
    """
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _map_payload(path: str):
    """Open ``path`` and return a validated read-only buffer of it."""
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size == 0:
                buffer = b""
            else:
                buffer = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
    except (OSError, ValueError) as error:
        raise TraceFormatError(
            f"cannot open binary trace {path!r}: {error}"
        )
    count = read_header(buffer)
    return buffer, count


def binary_trace_count(path: str) -> int:
    """Validate a compiled trace's header and return its record count.

    Cheap relative to a full load — one CRC32 pass over the mmap'd
    payload, no record objects — so callers like the workload-cache
    pre-warm can test "is this entry complete and uncorrupted?" without
    materializing the records.  Raises :class:`TraceFormatError` for a
    missing, stale, or corrupt file.
    """
    buffer, count = _map_payload(path)
    if isinstance(buffer, mmap.mmap):
        buffer.close()
    return count


def load_binary_trace(source: Union[str, bytes]) -> Iterator[TraceRecord]:
    """Lazily yield the records of a compiled trace.

    ``source`` is a file path (mmap-ed, so large traces do not load
    into memory up front) or an in-memory ``bytes`` buffer.  The binary
    format has no malformed-record state — every post-header stride is
    a record, validated wholesale by :func:`read_header` — so there is
    no ``strict`` knob; a file either loads fully or raises.
    """
    if isinstance(source, str):
        buffer, __ = _map_payload(source)
    else:
        buffer = source
        read_header(buffer)
    record_cls = TraceRecord.__new__
    kinds = list(InstrKind)
    index = 0
    try:
        for kind, taken, dep1, dep2, pc, addr in _RECORD.iter_unpack(
            memoryview(buffer)[HEADER_BYTES:]
        ):
            record = record_cls(TraceRecord)
            try:
                record.kind = kinds[kind]
            except IndexError:
                raise TraceFormatError(
                    f"corrupt binary trace: record {index} at offset "
                    f"{HEADER_BYTES + index * RECORD_BYTES} has unknown "
                    f"instruction kind {kind} (expected 0..{len(kinds) - 1})"
                )
            record.pc = pc
            record.addr = addr
            record.taken = taken != 0
            record.dep1 = dep1
            record.dep2 = dep2
            yield record
            index += 1
    except struct.error as error:
        # Cannot happen after read_header's length check, but a mmap of
        # a file truncated *while being read* could still get here.
        raise TraceFormatError(
            f"corrupt binary trace: record {index} at offset "
            f"{HEADER_BYTES + index * RECORD_BYTES} does not unpack: "
            f"{error}"
        )
    finally:
        if isinstance(buffer, mmap.mmap):
            buffer.close()


def load_binary_trace_list(source: Union[str, bytes]) -> List[TraceRecord]:
    """Eagerly load a whole compiled trace."""
    return list(load_binary_trace(source))
