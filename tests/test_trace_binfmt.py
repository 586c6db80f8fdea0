"""The compiled binary trace format and the on-disk workload cache."""

import gc
import hashlib
import io
import itertools
import os
import struct

import pytest

from repro.cli import main
from repro.errors import ConfigError, TraceFormatError
from repro.trace import compile_trace, load_binary_trace_list, sniff_binary
from repro.trace.binfmt import (
    HEADER_BYTES,
    MAGIC,
    VERSION,
    _pack_record,
    binary_trace_count,
)
from repro.trace.io import load_trace, save_trace
from repro.trace.record import InstrKind, TraceRecord
from repro.workloads import (
    cache as cache_module,
    cache_path,
    cache_stats,
    cached_workload_trace,
    clear_cache,
    get_workload,
    workload_names,
)

RECORDS = [
    TraceRecord(InstrKind.IALU, pc=0x1000),
    TraceRecord(InstrKind.LOAD, pc=0x1004, addr=0xDEAD_BEE0, dep1=1),
    TraceRecord(InstrKind.STORE, pc=0x1008, addr=0xFEED_F000, dep1=2, dep2=1),
    TraceRecord(InstrKind.BRANCH, pc=0x100C, taken=True),
    TraceRecord(InstrKind.FDIV, pc=0x1010, dep1=3),
    TraceRecord(InstrKind.NOP, pc=0x1014),
]


class TestRoundTrip:
    def test_exact_record_sequence(self, tmp_path):
        path = str(tmp_path / "t.rtb")
        assert compile_trace(path, iter(RECORDS)) == len(RECORDS)
        assert load_binary_trace_list(path) == RECORDS

    def test_matches_text_parser_on_workload(self, tmp_path):
        records = list(itertools.islice(get_workload("gs", seed=3), 500))
        binary = str(tmp_path / "gs.rtb")
        text = str(tmp_path / "gs.trace")
        compile_trace(binary, iter(records))
        save_trace(text, iter(records))
        assert load_binary_trace_list(binary) == list(load_trace(text))

    def test_limit_truncates(self, tmp_path):
        path = str(tmp_path / "t.rtb")
        assert compile_trace(path, iter(RECORDS), limit=2) == 2
        assert load_binary_trace_list(path) == RECORDS[:2]

    def test_limit_reads_no_record_past_it(self, tmp_path):
        # Line 5, the fourth record line, does not parse; compiling the
        # three records before it must never pull it.
        text = str(tmp_path / "bad.trace")
        save_trace(text, iter(RECORDS[:3]))
        with open(text, "a") as handle:
            handle.write("GIBBERISH\n")
        out = str(tmp_path / "x.rtb")
        argv = ["trace", "compile", text, "--out", out, "--instructions", "3"]
        assert main(argv) == 0
        assert load_binary_trace_list(out) == RECORDS[:3]

    def test_load_trace_autodetects_binary(self, tmp_path):
        # The generic loader routes *.rtb content through the binary
        # reader without being told; strict/errors knobs only apply to
        # text traces.
        path = str(tmp_path / "anything.dat")
        compile_trace(path, iter(RECORDS))
        assert sniff_binary(path)
        assert list(load_trace(path)) == RECORDS

    def test_text_trace_is_not_sniffed_as_binary(self, tmp_path):
        path = str(tmp_path / "t.trace")
        save_trace(path, iter(RECORDS))
        assert not sniff_binary(path)

    def test_compiling_a_lenient_text_load_keeps_skip_counts(self, tmp_path):
        # A damaged text trace loaded with strict=False skips bad lines;
        # compiling that stream preserves exactly the surviving records.
        text = str(tmp_path / "damaged.trace")
        save_trace(text, iter(RECORDS))
        with open(text) as handle:
            lines = handle.read().splitlines()
        lines.insert(3, "LOAD not-a-number 0x0")
        lines.append("GIBBERISH")
        with open(text, "w") as handle:
            handle.write("\n".join(lines) + "\n")

        skipped = []
        survivors = list(load_trace(text, strict=False, errors=skipped))
        assert len(skipped) == 2
        assert survivors == RECORDS

        binary = str(tmp_path / "damaged.rtb")
        compile_trace(binary, load_trace(text, strict=False))
        assert load_binary_trace_list(binary) == survivors


class TestBadRecords:
    @pytest.mark.parametrize(
        "field, value",
        [("pc", 1.5), ("addr", None), ("dep1", -1), ("dep2", 1 << 32),
         ("addr", 1 << 64), ("kind", 10)],
    )
    def test_bad_field_past_the_first_chunk_is_typed(
        self, tmp_path, field, value
    ):
        records = [TraceRecord(InstrKind.IALU, pc=4 * i) for i in range(6000)]
        setattr(records[5000], field, value)
        with pytest.raises(TraceFormatError, match="record 5000"):
            compile_trace(str(tmp_path / "t.rtb"), records)
        assert os.listdir(tmp_path) == []  # no file, no ``.tmp.*``

    def test_kind_the_loader_rejects_is_refused(self):
        # A kind that fits the u8 field but names no InstrKind would
        # compile into a trace that every later load calls corrupt.
        with pytest.raises(
            TraceFormatError, match="record 0: unknown instruction kind 20"
        ):
            compile_trace(io.BytesIO(), [TraceRecord(20, 0x40)])


#: sha256 of the compiled bytes of the first 3,000 records of each
#: workload.  A generator, record-constructor or packer change that
#: moves one byte of a trace fails here.
TRACE_SHA256 = {
    ("health", 1): "fb135d3fa734c1c5d76805e911715dc8060cdf1192fdeb925d2c4c63f198b0b9",
    ("burg", 1): "1b758c2861084251b53c7b76a911a9e234303992722192d9b27096c14aef059c",
    ("deltablue", 1): "a653c56a86a0c09e3f4fb0b0a696cdf6b54e0197b7950b24af3f0d43cae7ec4d",
    ("gs", 1): "369713a749a50aa36ffbad7858dcec6ba0f9e926b6dfeb0dc8a19251915ad6cb",
    ("sis", 1): "854d751cf06913bd3175b7106b5a31e77c52052520a7e60dc972e4d7f0ae34f0",
    ("turb3d", 1): "0364ddc05cdac1d5db82a65591c43b3be78ca29e2e59715bee7ac2cd4ba1566f",
    ("many_streams", 1): "bdd67673f333bb74e9d3d6cd886c7fd399f0133f567632edb9df3dbdafd2022e",
    ("health", 2): "7bf474279501c358243f4fc038559f3ab81b95c7c37f86615554ceec7ca2c9b5",
    ("burg", 2): "a3268a55b37bc6284c94760b22f91db36c4ca3c2ee6ac76f9eee168ccad4b9ba",
    ("deltablue", 2): "127b0f1dda5572c450d13367621c10927c019a7bcda49f12e801093f369d18ce",
    ("gs", 2): "5772ec4a954bd0e04cf9ee1e0265a8691739882a35ae6e0ad588256d7e200856",
    ("sis", 2): "62d01fbcdf652456d59c3b070512d4fa35e161737edf0a89367cd4605770d532",
    ("turb3d", 2): "0364ddc05cdac1d5db82a65591c43b3be78ca29e2e59715bee7ac2cd4ba1566f",
    ("many_streams", 2): "2f9c7c647f702a18764b2791a6ea6dbc0aa62ac3e5d41e990e985d51e45185f3",
}


class TestPinnedBytes:
    def test_every_workload_is_pinned(self):
        assert {name for name, __ in TRACE_SHA256} == set(workload_names())

    @pytest.mark.parametrize("name, seed", list(TRACE_SHA256))
    def test_compiled_bytes(self, name, seed):
        records = list(itertools.islice(get_workload(name, seed=seed), 3000))
        buffer = io.BytesIO()
        assert compile_trace(buffer, records) == 3000
        blob = buffer.getvalue()
        assert hashlib.sha256(blob).hexdigest() == TRACE_SHA256[name, seed]
        # The bulk packer agrees with the record-by-record one.
        assert blob[HEADER_BYTES:] == b"".join(
            _pack_record(record, index) for index, record in enumerate(records)
        )


class TestHeaderValidation:
    def _write(self, tmp_path, blob):
        path = str(tmp_path / "bad.rtb")
        with open(path, "wb") as handle:
            handle.write(blob)
        return path

    def _compiled(self, tmp_path):
        path = str(tmp_path / "good.rtb")
        compile_trace(path, iter(RECORDS))
        with open(path, "rb") as handle:
            return path, bytearray(handle.read())

    @staticmethod
    def _repack_checksum(blob):
        """Recompute the header CRC after deliberate payload surgery, so
        a test can reach the validation *behind* the checksum gate."""
        import zlib

        struct.pack_into(
            "<I", blob, 12, zlib.crc32(bytes(blob[24:])) & 0xFFFFFFFF
        )

    def test_bad_magic(self, tmp_path):
        path = self._write(tmp_path, b"NOTATRACE" + b"\x00" * 40)
        with pytest.raises(TraceFormatError, match="expected magic"):
            load_binary_trace_list(path)

    def test_stale_version(self, tmp_path):
        _, blob = self._compiled(tmp_path)
        struct.pack_into("<H", blob, len(MAGIC), VERSION + 1)
        path = self._write(tmp_path, bytes(blob))
        with pytest.raises(TraceFormatError, match="stale"):
            load_binary_trace_list(path)

    def test_truncated_payload_reports_offsets(self, tmp_path):
        path, blob = self._compiled(tmp_path)
        with open(path, "wb") as handle:
            handle.write(bytes(blob[:-5]))
        with pytest.raises(TraceFormatError, match="truncated"):
            load_binary_trace_list(path)

    def test_bitflip_fails_checksum_with_detail(self, tmp_path):
        _, blob = self._compiled(tmp_path)
        blob[30] ^= 0x40  # one bit, mid-payload
        path = self._write(tmp_path, bytes(blob))
        with pytest.raises(
            TraceFormatError, match="checksum .* but payload CRC32"
        ):
            load_binary_trace_list(path)

    def test_unknown_kind_byte(self, tmp_path):
        _, blob = self._compiled(tmp_path)
        blob[24] = 250  # first record's kind: no such InstrKind
        self._repack_checksum(blob)  # get past the CRC gate
        path = self._write(tmp_path, bytes(blob))
        with pytest.raises(
            TraceFormatError, match="record 0 at offset 24.*kind"
        ):
            load_binary_trace_list(path)

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, b"")
        with pytest.raises(TraceFormatError):
            load_binary_trace_list(path)


class TestConcurrentCompile:
    def test_tmp_name_is_unique_per_writer(self, tmp_path, monkeypatch):
        # Regression: the temp file used to be the fixed name
        # ``destination + ".tmp"``, so two processes compiling the same
        # cache entry interleaved writes into one file and renamed a
        # corrupt trace into place.
        seen = []
        real_replace = os.replace

        def spying_replace(src, dst):
            seen.append(src)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spying_replace)
        destination = str(tmp_path / "t.rtb")
        compile_trace(destination, iter(RECORDS))
        compile_trace(destination, iter(RECORDS))
        assert len(seen) == 2
        assert seen[0] != seen[1]
        for tmp in seen:
            assert os.path.basename(tmp).startswith("t.rtb.tmp.")
            assert not os.path.exists(tmp)  # renamed or cleaned up

    def test_failed_compile_cleans_its_tmp(self, tmp_path):
        destination = str(tmp_path / "t.rtb")

        def poisoned():
            yield RECORDS[0]
            raise RuntimeError("generator died mid-compile")

        with pytest.raises(RuntimeError):
            compile_trace(destination, poisoned())
        assert os.listdir(tmp_path) == []

    def test_stale_orphan_tmp_is_swept(self, tmp_path):
        destination = str(tmp_path / "t.rtb")
        orphan = destination + ".tmp.99999.deadbeef"
        with open(orphan, "wb") as handle:
            handle.write(b"half-written")
        old = os.path.getmtime(orphan) - 7200
        os.utime(orphan, (old, old))
        fresh = destination + ".tmp.99999.cafef00d"
        with open(fresh, "wb") as handle:
            handle.write(b"live writer")
        compile_trace(destination, iter(RECORDS))
        assert not os.path.exists(orphan)  # old enough: presumed dead
        assert os.path.exists(fresh)  # young: may be a live compiler
        assert load_binary_trace_list(destination) == RECORDS

    def test_multiprocess_cache_stress(self, tmp_path, monkeypatch):
        # Many processes resolving the same cold cache entry at once:
        # every one must get the exact generator prefix, and no
        # ``.tmp.*`` stragglers may survive.
        import multiprocessing

        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(cache))
        with multiprocessing.Pool(4) as pool:
            lengths = pool.map(_load_cached_len, [("health", 4, 400)] * 8)
        assert lengths == [400] * 8
        records = cached_workload_trace("health", seed=4, instructions=400)
        assert records == list(
            itertools.islice(get_workload("health", seed=4), 400)
        )
        stragglers = [
            name for name in os.listdir(cache) if ".tmp." in name
        ]
        assert stragglers == []


def _load_cached_len(args):
    """Pool worker for the stress test (module-level: must pickle)."""
    name, seed, instructions = args
    return len(
        cached_workload_trace(name, seed=seed, instructions=instructions)
    )


class TestWorkloadCache:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))

    def test_miss_compiles_then_hit_loads(self):
        first = cached_workload_trace("health", seed=2, instructions=300)
        path = cache_path("health", 2, 300)
        assert os.path.exists(path)
        mtime = os.path.getmtime(path)
        again = cached_workload_trace("health", seed=2, instructions=300)
        assert again == first
        assert os.path.getmtime(path) == mtime
        assert first == list(
            itertools.islice(get_workload("health", seed=2), 300)
        )

    def test_corrupt_cache_file_falls_back(self):
        cached_workload_trace("burg", seed=1, instructions=100)
        path = cache_path("burg", 1, 100)
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        records = cached_workload_trace("burg", seed=1, instructions=100)
        assert records == list(
            itertools.islice(get_workload("burg", seed=1), 100)
        )

    def test_refresh_recompiles(self):
        cached_workload_trace("sis", seed=1, instructions=50)
        path = cache_path("sis", 1, 50)
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        cached_workload_trace("sis", seed=1, instructions=50, refresh=True)
        assert load_binary_trace_list(path) == list(
            itertools.islice(get_workload("sis", seed=1), 50)
        )

    @pytest.mark.parametrize("name", workload_names())
    def test_cold_call_equals_hit_and_generator(self, name):
        before = cache_stats()
        cold = cached_workload_trace(name, seed=2, instructions=2000)
        warm = cached_workload_trace(name, seed=2, instructions=2000)
        after = cache_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1
        assert cold == warm == list(
            itertools.islice(get_workload(name, seed=2), 2000)
        )

    def test_miss_returns_the_generated_records(self, monkeypatch):
        def no_reload(path):
            raise AssertionError("the miss path reloaded its own entry")

        monkeypatch.setattr(cache_module, "load_binary_trace_list", no_reload)
        records = cached_workload_trace("health", seed=3, instructions=500)
        assert records == list(
            itertools.islice(get_workload("health", seed=3), 500)
        )
        assert binary_trace_count(cache_path("health", 3, 500)) == 500

    def test_unwritable_cache_runs_the_generator_once(
        self, tmp_path, monkeypatch
    ):
        blocker = tmp_path / "not-a-dir"
        blocker.write_bytes(b"")
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(blocker / "cache"))
        calls = []

        def counted(name, seed=1):
            calls.append(name)
            return get_workload(name, seed=seed)

        monkeypatch.setattr(cache_module, "get_workload", counted)
        records = cached_workload_trace("gs", seed=1, instructions=200)
        assert records == list(itertools.islice(get_workload("gs", seed=1), 200))
        assert calls == ["gs"]

    def test_unknown_workload_raises(self):
        with pytest.raises(ConfigError):
            cached_workload_trace("quake", instructions=10)

    def test_requires_positive_count(self):
        with pytest.raises(ValueError):
            cached_workload_trace("health", instructions=0)

    def test_clear_cache(self):
        cached_workload_trace("health", seed=1, instructions=20)
        cached_workload_trace("gs", seed=1, instructions=20)
        assert clear_cache() == 2
        assert clear_cache() == 0


class TestCollectorPause:
    """The cache pauses the cycle collector while it builds a record
    list, and always hands the caller's collector state back."""

    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def collector(self, request, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        was_enabled = gc.isenabled()
        if request.param:
            gc.enable()
        else:
            gc.disable()
        try:
            yield request.param
        finally:
            if was_enabled:
                gc.enable()
            else:
                gc.disable()

    def test_cold_call_and_hit_keep_the_state(self, collector):
        cached_workload_trace("health", seed=1, instructions=300)
        assert gc.isenabled() is collector
        cached_workload_trace("health", seed=1, instructions=300)
        assert gc.isenabled() is collector

    def test_raising_calls_keep_the_state(self, collector, monkeypatch):
        with pytest.raises(ConfigError):
            cached_workload_trace("quake", instructions=10)
        assert gc.isenabled() is collector

        def dying(name, seed=1):
            yield from itertools.islice(get_workload(name, seed=seed), 100)
            raise RuntimeError("generator died mid-build")

        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "get_workload", dying)
            with pytest.raises(RuntimeError):
                cached_workload_trace("health", seed=1, instructions=300)
        assert gc.isenabled() is collector

        cached_workload_trace("health", seed=1, instructions=300)

        def broken(path):
            raise RuntimeError("loader died mid-load")

        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "load_binary_trace_list", broken)
            with pytest.raises(RuntimeError):
                cached_workload_trace("health", seed=1, instructions=300)
        assert gc.isenabled() is collector

    def test_corrupt_entry_keeps_the_state(self, collector):
        cached_workload_trace("burg", seed=1, instructions=300)
        with open(cache_path("burg", 1, 300), "wb") as handle:
            handle.write(b"garbage")
        records = cached_workload_trace("burg", seed=1, instructions=300)
        assert gc.isenabled() is collector
        assert records == list(
            itertools.islice(get_workload("burg", seed=1), 300)
        )

    @pytest.mark.parametrize("name", workload_names())
    def test_generators_leave_no_cyclic_garbage(self, name, collector):
        # What makes the pause safe: nothing a paused build allocates
        # needs the cycle collector to be freed.
        gc.collect()
        gc.disable()
        records = list(itertools.islice(get_workload(name, seed=1), 20_000))
        assert gc.collect() == 0
        assert len(records) == 20_000
