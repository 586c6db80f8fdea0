"""Event-driven fast path vs. cycle stepping: bit-identical, always.

The fast path (``SimConfig.event_driven``) may only change *when* the
core's clock advances, never *what* any cycle does.  These tests pin
that contract for every registered workload: identical
``SimulationResult`` fields, identical golden-model verdicts, identical
behaviour under full invariant checking, and identical mid-run
snapshots (same cycle, same records consumed, and a snapshot taken in
one mode resumes to the other mode's final answer).  Through the
core's idle stretches the prefetcher keeps ticking
(``PrefetcherPort.run``); with invariants off nothing clamps those
stretches, so every prefetching machine is compared that way too.
"""

import dataclasses
import itertools

import pytest

from repro.cli import MACHINES
from repro.config import InvariantLevel
from repro.integrity import golden_check, run_golden
from repro.integrity.snapshot import resume_run
from repro.memory.hierarchy import NEVER, PrefetcherPort
from repro.sim import Simulator, baseline_config, paper_configs
from repro.workloads import get_workload, workload_names

N = 6_000

#: Every machine with a prefetcher, by its ``repro-sim --machine`` name.
PREFETCHING_MACHINES = sorted(name for name in MACHINES if name != "base")


def _records(name, count):
    return list(itertools.islice(get_workload(name, seed=1), count))


def _run(config, records, warmup, snapshot_every=None, snapshot_sink=None):
    return Simulator(config).run(
        iter(records),
        max_instructions=N,
        warmup_instructions=warmup,
        snapshot_every=snapshot_every,
        snapshot_sink=snapshot_sink,
    )


def _pair(config, records, warmup=N // 3, **kwargs):
    """(stepped result, event result) on the same records."""
    stepped = _run(config.with_event_driven(False), records, warmup, **kwargs)
    event = _run(config.with_event_driven(True), records, warmup, **kwargs)
    return stepped, event


def _assert_identical(stepped, event):
    assert dataclasses.asdict(stepped) == dataclasses.asdict(event)


class TestEquivalencePerWorkload:
    @pytest.mark.parametrize("name", workload_names())
    def test_baseline_machine(self, name):
        records = _records(name, N * 2)
        _assert_identical(*_pair(baseline_config(), records))

    @pytest.mark.parametrize("name", workload_names())
    def test_psb_machine_with_full_invariants(self, name):
        # The paper's stream-buffer machine, with every invariant sweep
        # enabled: the checker observes identical machine states in
        # both modes, and neither run trips it.
        config = paper_configs()["ConfAlloc-Priority"].with_invariants(
            InvariantLevel.FULL
        )
        records = _records(name, N * 2)
        stepped, event = _pair(config, records)
        _assert_identical(stepped, event)
        assert event.extra["invariant_checks"] > 0

    @pytest.mark.parametrize("machine", PREFETCHING_MACHINES)
    @pytest.mark.parametrize("name", ["sis", "health", "many_streams"])
    def test_prefetching_machine(self, name, machine):
        # Invariants off: no check stride clamps the skips, so the
        # prefetcher ticks through multi-cycle idle stretches of the
        # core, which full invariant checking never reaches.
        records = _records(name, N * 2)
        _assert_identical(*_pair(MACHINES[machine](), records))

    @pytest.mark.parametrize("name", workload_names())
    def test_golden_check_agrees(self, name):
        # Golden-model validation needs warmup 0 (reset discards events
        # the functional model counts).
        records = _records(name, N * 2)
        golden = run_golden(baseline_config(), iter(records), N)
        stepped, event = _pair(baseline_config(), records, warmup=0)
        _assert_identical(stepped, event)
        for result in (stepped, event):
            report = golden_check(result, golden, warmup_instructions=0)
            assert report.ok, report.summary()
        assert golden_check(stepped, golden).timed_miss_rate == golden_check(
            event, golden
        ).timed_miss_rate


class TestSnapshotEquivalence:
    @pytest.mark.parametrize(
        "name, machine",
        [
            pytest.param("health", "base", id="health"),
            pytest.param("turb3d", "base", id="turb3d"),
            # Snapshots land inside the prefetcher's stretches.
            pytest.param("sis", "psb", id="sis-psb"),
        ],
    )
    def test_snapshots_align_and_resume_across_modes(self, name, machine):
        records = _records(name, N * 2)
        config = MACHINES[machine]()
        every = 2_000

        taken = {}
        for mode in (False, True):
            snaps = []
            taken[mode] = snaps
            _run(
                config.with_event_driven(mode),
                records,
                warmup=0,
                snapshot_every=every,
                snapshot_sink=snaps.append,
            )
        stepped_snaps, event_snaps = taken[False], taken[True]
        assert len(stepped_snaps) == len(event_snaps) > 0
        for left, right in zip(stepped_snaps, event_snaps):
            assert left.cycle == right.cycle
            assert left.cycle % every == 0
            assert left.records_consumed == right.records_consumed

        # A mid-run event-mode snapshot resumes to the same final
        # result an uninterrupted stepped run produces, and vice versa.
        stepped_full = _run(config.with_event_driven(False), records, 0)
        event_full = _run(config.with_event_driven(True), records, 0)
        _assert_identical(stepped_full, event_full)
        middle = len(event_snaps) // 2
        for snapshot in (event_snaps[middle], stepped_snaps[middle]):
            resumed = resume_run(snapshot, iter(records))
            resumed.extra.pop("resumed_from_cycle")
            _assert_identical(stepped_full, resumed)


class _ScriptedPrefetcher(PrefetcherPort):
    """Has work at the cycles in ``events`` and records its ticks."""

    def __init__(self, events=None):
        self.events = events
        self.ticks = []

    def next_event_cycle(self, cycle):
        if self.events is None:
            return cycle  # always has work
        return min((at for at in self.events if at >= cycle), default=NEVER)

    def tick(self, cycle):
        self.ticks.append(cycle)


class TestPrefetcherStretch:
    def test_run_ticks_exactly_the_named_cycles_in_the_stretch(self):
        port = _ScriptedPrefetcher([3, 7, 8, 15, 40])
        port.run(5, 15)
        assert port.ticks == [7, 8]
        port.run(15, 16)
        assert port.ticks == [7, 8, 15]
        port.run(41, 1_000)
        assert port.ticks == [7, 8, 15]

    def test_core_skips_while_the_prefetcher_always_has_work(self):
        # A prefetcher with work on every cycle does not keep the core
        # stepping: the core still skips its idle stretches, and the
        # prefetcher is ticked once at every cycle, in order, as in the
        # stepped loop.
        records = _records("health", N * 2)
        ticks = {}
        for event_driven in (False, True):
            simulator = Simulator(
                baseline_config().with_event_driven(event_driven)
            )
            port = _ScriptedPrefetcher()
            simulator.hierarchy.prefetcher = port
            simulator.run(iter(records), max_instructions=N)
            ticks[event_driven] = port.ticks
        assert simulator.perf.get("core.cycles_skipped") > 0
        assert ticks[True] == ticks[False] == list(range(len(ticks[True])))
