"""Runtime invariant checking for the live simulator.

Every structural component of the machine obeys a conservation law the
timing model can state exactly:

- **MSHR balance** — every allocated fill is either still in flight or
  has been released: ``allocations == releases + len(inflight)``, and
  occupancy never exceeds the file's capacity.
- **Bus occupancy** — a single-transaction bus holds a sorted list of
  non-overlapping, positive-length reservations; any overlap means two
  transactions occupy the wires at once.
- **Stream buffers** — an unallocated buffer holds no entries and no
  stream state; occupied entries never exceed capacity; with overlap
  checking enabled no block is resident in two buffers at once; the
  LRU timestamp never runs ahead of the simulation clock.  Under a
  pooled sharing policy, pool conservation too: entries owned across
  all buffers equal the pool's allocated count, never exceed the pool
  size, and no entry object is owned by two streams at once.  A
  standing predictor-port decision is what a fresh arbitration would
  decide.
- **Saturating counters** — priority/confidence values stay inside
  their ``[minimum, maximum]`` bounds.
- **Caches** — no set holds more blocks than its associativity, and
  ``hits + misses == accesses``.
- **Stats monotonicity** — event counters only grow between checks
  (except across the explicit warm-up reset), and derived pairs stay
  consistent (``misses <= accesses``).

A violation raises :class:`repro.errors.IntegrityError` carrying the
invariant's dotted name and a small JSON-able dump of the offending
component, so a failed campaign run records *what* broke, not just that
a number looked odd afterwards.

The module-level ``check_*`` functions are pure inspections usable on
any component instance (the Hypothesis property tests drive them
directly); :class:`InvariantChecker` wires them to a whole machine and
applies the sampling policy of :class:`repro.config.InvariantLevel`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.config import InvariantLevel, SimConfig
from repro.errors import IntegrityError
from repro.streambuf.controller import ARBITRATE

#: Cycle period for the expensive whole-cache set scans, which would
#: dominate runtime if run every cycle even at ``full`` level.
_CACHE_SCAN_PERIOD = 1024

#: At ``cheap`` level each hook point fires once every this many events
#: (cycles, misses, or prefetches respectively).
_SAMPLE_PERIOD = 64


def _fail(
    invariant: str, message: str, cycle: Optional[int], dump: Dict
) -> None:
    raise IntegrityError(
        f"invariant {invariant!r} violated: {message}",
        invariant=invariant,
        cycle=cycle,
        state_dump=dump,
    )


# ----------------------------------------------------------------------
# Component-level checks (pure functions; property tests call these)
# ----------------------------------------------------------------------


def check_mshr(mshr, name: str = "mshr", cycle: Optional[int] = None) -> None:
    """Allocate/release balance and capacity of one MSHR file."""
    occupancy = len(mshr)
    if occupancy > mshr.num_entries:
        _fail(
            f"{name}.capacity",
            f"{occupancy} in-flight entries in a "
            f"{mshr.num_entries}-entry file",
            cycle,
            {
                "occupancy": occupancy,
                "num_entries": mshr.num_entries,
                "inflight": {hex(b): r for b, r in mshr.in_flight_blocks().items()},
            },
        )
    if mshr.allocations != mshr.releases + occupancy:
        _fail(
            f"{name}.balance",
            f"allocations ({mshr.allocations}) != releases "
            f"({mshr.releases}) + in-flight ({occupancy})",
            cycle,
            {
                "allocations": mshr.allocations,
                "releases": mshr.releases,
                "occupancy": occupancy,
            },
        )


def check_bus(bus, name: str = "bus", cycle: Optional[int] = None) -> None:
    """Reservations are sorted, non-overlapping, positive-length."""
    previous_end = None
    reservations = bus.reservations()
    for start, end in reservations:
        dump = {
            "reservations": reservations,
            "busy_cycles": bus.busy_cycles,
            "transactions": bus.transactions,
        }
        if end <= start:
            _fail(
                f"{name}.reservation",
                f"non-positive reservation [{start}, {end})",
                cycle,
                dump,
            )
        if previous_end is not None and start < previous_end:
            _fail(
                f"{name}.occupancy",
                f"reservation [{start}, {end}) overlaps one ending at "
                f"{previous_end}: two transactions on a "
                "single-transaction bus",
                cycle,
                dump,
            )
        previous_end = end


def check_counter(
    counter, name: str = "counter", cycle: Optional[int] = None
) -> None:
    """A saturating counter's value is inside its clamp range."""
    if not counter.minimum <= counter.value <= counter.maximum:
        _fail(
            f"{name}.bounds",
            f"value {counter.value} escaped "
            f"[{counter.minimum}, {counter.maximum}]",
            cycle,
            {
                "value": counter.value,
                "minimum": counter.minimum,
                "maximum": counter.maximum,
            },
        )


def check_cache(cache, name: str = "cache", cycle: Optional[int] = None) -> None:
    """Set occupancy within associativity; hit/miss accounting closed."""
    if cache.hits + cache.misses != cache.accesses:
        _fail(
            f"{name}.accounting",
            f"hits ({cache.hits}) + misses ({cache.misses}) != "
            f"accesses ({cache.accesses})",
            cycle,
            {
                "hits": cache.hits,
                "misses": cache.misses,
                "accesses": cache.accesses,
            },
        )
    associativity = cache.associativity
    for index, cache_set in enumerate(cache._sets):
        if len(cache_set) > associativity:
            _fail(
                f"{name}.occupancy",
                f"set {index} holds {len(cache_set)} blocks in a "
                f"{associativity}-way cache",
                cycle,
                {
                    "set": index,
                    "blocks": [hex(b) for b in cache_set],
                    "associativity": associativity,
                },
            )


def check_stream_buffers(
    controller, cycle: Optional[int] = None, check_overlap: Optional[bool] = None
) -> None:
    """Structural coherence of every stream buffer in a controller.

    ``check_overlap`` defaults to the controller's own configuration:
    only architectures that forbid overlapping streams (Section 4.1)
    promise the cross-buffer uniqueness invariant.

    Under a pooled sharing policy (:mod:`repro.streambuf.sharing`) the
    pool-conservation laws are checked as well: entries owned across all
    buffers equal the pool's allocated count and never exceed its size,
    and no entry object is owned by two buffers at once.

    Then ``streambuf.index``: each buffer's stored ``occupied_count``
    and the controller's shared ``block_counts`` multiset must equal
    what the entries themselves hold.  Last, ``streambuf.port``: a
    standing predictor-port decision must be what a fresh arbitration
    would decide.  Both run after the structural rules, so a corruption
    those name is reported under their name.
    """
    buffers = getattr(controller, "buffers", None)
    if buffers is None:  # demand-based prefetchers have no buffers
        return
    if check_overlap is None:
        check_overlap = controller.config.check_overlap
    pool = getattr(controller, "pool", None)
    if pool is not None:
        owner_of_entry: Dict[int, int] = {}
        owned = 0
        for buffer in buffers:
            owned += len(buffer.entries)
            for entry in buffer.entries:
                previous = owner_of_entry.get(id(entry))
                if previous is not None:
                    _fail(
                        "streambuf.pool.ownership",
                        f"one entry object owned by buffers {previous} "
                        f"and {buffer.index}",
                        cycle,
                        {"buffers": [previous, buffer.index]},
                    )
                owner_of_entry[id(entry)] = buffer.index
        if owned != pool.allocated:
            _fail(
                "streambuf.pool.conservation",
                f"buffers own {owned} entries but the pool accounts for "
                f"{pool.allocated}",
                cycle,
                {
                    "owned": owned,
                    "allocated": pool.allocated,
                    "per_buffer": [len(b.entries) for b in buffers],
                },
            )
        if pool.allocated > pool.size or pool.allocated < 0:
            _fail(
                "streambuf.pool.capacity",
                f"{pool.allocated} entries allocated from a "
                f"{pool.size}-entry pool",
                cycle,
                {"allocated": pool.allocated, "size": pool.size},
            )
    owner_of_block: Dict[int, int] = {}
    for buffer in buffers:
        name = f"streambuf[{buffer.index}]"
        occupied = buffer.occupied_entries
        if occupied > len(buffer.entries):
            _fail(
                f"{name}.capacity",
                f"{occupied} occupied entries in a "
                f"{len(buffer.entries)}-entry buffer",
                cycle,
                {"occupied": occupied, "entries": len(buffer.entries)},
            )
        if not buffer.allocated and (occupied or buffer.state is not None):
            _fail(
                f"{name}.stale",
                f"unallocated buffer holds {occupied} entries "
                f"(stream state: {buffer.state!r})",
                cycle,
                {
                    "occupied": occupied,
                    "entries": [repr(e) for e in buffer.entries if e.occupied],
                },
            )
        check_counter(buffer.priority, f"{name}.priority", cycle)
        if cycle is not None and buffer.last_use_cycle > cycle:
            _fail(
                f"{name}.lru",
                f"last_use_cycle {buffer.last_use_cycle} is in the "
                f"future (clock at {cycle})",
                cycle,
                {"last_use_cycle": buffer.last_use_cycle},
            )
        if not buffer.allocated:
            continue
        for entry in buffer.entries:
            if not entry.occupied:
                continue
            if check_overlap and entry.block in owner_of_block:
                _fail(
                    "streambuf.overlap",
                    f"block {entry.block:#x} resident in buffers "
                    f"{owner_of_block[entry.block]} and {buffer.index} "
                    "with overlap checking on",
                    cycle,
                    {
                        "block": hex(entry.block),
                        "buffers": [owner_of_block[entry.block], buffer.index],
                    },
                )
            owner_of_block[entry.block] = buffer.index
    _check_occupancy_index(controller, buffers, cycle)
    _check_predictor_port(controller, buffers, cycle)


def _check_occupancy_index(controller, buffers, cycle: Optional[int]) -> None:
    """The stored occupancy index agrees with a recount of the entries."""
    recount: Dict[int, int] = {}
    for buffer in buffers:
        occupied = buffer.occupied_entries
        if buffer.occupied_count != occupied:
            _fail(
                "streambuf.index",
                f"buffer {buffer.index} stores {buffer.occupied_count} "
                f"occupied entries but holds {occupied}",
                cycle,
                {
                    "buffer": buffer.index,
                    "stored": buffer.occupied_count,
                    "recounted": occupied,
                },
            )
        for entry in buffer.entries:
            if entry.occupied:
                recount[entry.block] = recount.get(entry.block, 0) + 1
    stored = controller.block_counts
    if stored != recount:
        _fail(
            "streambuf.index",
            "the shared block map disagrees with the entries",
            cycle,
            {
                "stored": {hex(b): n for b, n in sorted(stored.items())},
                "recounted": {hex(b): n for b, n in sorted(recount.items())},
            },
        )


def _check_predictor_port(controller, buffers, cycle: Optional[int]) -> None:
    """The standing predictor-port decision agrees with a fresh pick.

    ``None`` stands for "no buffer can take a prediction"; a standing
    buffer needs a scheduler whose pick depends only on buffer state,
    and must be that pick.  The fresh pick counts no grant.
    """
    port = controller.predictor_port
    if port is ARBITRATE:
        return
    eligible = controller.sharing.prediction_filter(controller._training_epoch)
    if port is None:
        ready = [buffer.index for buffer in buffers if eligible(buffer)]
        if ready:
            _fail(
                "streambuf.port",
                f"the predictor port idles while buffers {ready} can "
                "take a prediction",
                cycle,
                {"eligible": ready},
            )
        return
    scheduler = controller.scheduler
    if not scheduler.stateless:
        _fail(
            "streambuf.port",
            f"buffer {port.index} stands on the predictor port under "
            f"{type(scheduler).__name__}, whose pick depends on its "
            "earlier grants",
            cycle,
            {"standing": port.index, "scheduler": type(scheduler).__name__},
        )
    fresh = scheduler.pick(buffers, eligible)
    if fresh is not port:
        fresh_index = None if fresh is None else fresh.index
        _fail(
            "streambuf.port",
            f"buffer {port.index} stands on the predictor port but a "
            f"fresh pick names {fresh_index}",
            cycle,
            {"standing": port.index, "fresh": fresh_index},
        )


# ----------------------------------------------------------------------
# The whole-machine checker
# ----------------------------------------------------------------------


class InvariantChecker:
    """Applies the component checks to one machine, on a sampling policy.

    Hook points:

    - :meth:`on_cycle` — the simulator calls this at cycle boundaries;
      at ``full`` level that is every cycle, at ``cheap`` level every
      :data:`_SAMPLE_PERIOD` cycles (the simulator's stepping stride
      already matches :attr:`stride`).
    - :meth:`on_miss` / :meth:`on_prefetch` — fired from inside the
      memory hierarchy on every demand miss / launched prefetch at
      ``full`` level, and on every :data:`_SAMPLE_PERIOD`-th event at
      ``cheap`` level.

    The checker holds only plain references and dicts, so it snapshots
    along with the machine (monotonicity baselines survive a resume).
    """

    def __init__(self, config: SimConfig, hierarchy, controller=None) -> None:
        self.level = config.invariants
        self.hierarchy = hierarchy
        self.controller = controller
        self.checks_run = 0
        self._misses_seen = 0
        self._prefetches_seen = 0
        self._last_cache_scan = -1
        self._stat_floor: Dict[str, int] = {}

    @property
    def stride(self) -> int:
        """Cycle stride the simulator should step at for :meth:`on_cycle`."""
        if self.level is InvariantLevel.FULL:
            return 1
        return _SAMPLE_PERIOD

    # -- hook points ---------------------------------------------------

    def on_cycle(self, cycle: int) -> None:
        """Cycle-boundary sweep over every cheap structural invariant."""
        self.checks_run += 1
        hierarchy = self.hierarchy
        check_mshr(hierarchy.l1_mshr, "l1.mshr", cycle)
        check_mshr(hierarchy.l2_mshr, "l2.mshr", cycle)
        check_bus(hierarchy.l1_l2_bus, "l1_l2_bus", cycle)
        check_bus(hierarchy.l2_mem_bus, "l2_mem_bus", cycle)
        if self.controller is not None:
            check_stream_buffers(self.controller, cycle)
        self._check_stats(cycle)
        # Whole-cache set scans are O(sets); amortize them.
        if cycle - self._last_cache_scan >= _CACHE_SCAN_PERIOD:
            self._last_cache_scan = cycle
            check_cache(hierarchy.l1, "l1", cycle)
            check_cache(hierarchy.l2, "l2", cycle)

    def on_miss(self, cycle: int) -> None:
        """Per-demand-miss hook: MSHRs and the L1 just changed."""
        self._misses_seen += 1
        if (
            self.level is not InvariantLevel.FULL
            and self._misses_seen % _SAMPLE_PERIOD
        ):
            return
        self.checks_run += 1
        check_mshr(self.hierarchy.l1_mshr, "l1.mshr", cycle)
        check_mshr(self.hierarchy.l2_mshr, "l2.mshr", cycle)
        self._check_stats(cycle)

    def on_prefetch(self, cycle: int) -> None:
        """Per-prefetch hook: buses and stream buffers just changed."""
        self._prefetches_seen += 1
        if (
            self.level is not InvariantLevel.FULL
            and self._prefetches_seen % _SAMPLE_PERIOD
        ):
            return
        self.checks_run += 1
        check_bus(self.hierarchy.l1_l2_bus, "l1_l2_bus", cycle)
        check_bus(self.hierarchy.l2_mem_bus, "l2_mem_bus", cycle)
        if self.controller is not None:
            check_stream_buffers(self.controller, cycle)

    def note_reset(self) -> None:
        """Statistics were deliberately reset (warm-up boundary)."""
        self._stat_floor.clear()

    # -- statistics invariants -----------------------------------------

    def _observed_stats(self) -> Dict[str, int]:
        hierarchy = self.hierarchy
        stats = {
            "hierarchy.demand_accesses": hierarchy.demand_accesses,
            "hierarchy.demand_misses": hierarchy.demand_misses,
            "hierarchy.sb_hits": hierarchy.sb_hits,
            "hierarchy.sb_pending_hits": hierarchy.sb_pending_hits,
            "hierarchy.prefetches_issued": hierarchy.prefetches_issued,
            "l1.accesses": hierarchy.l1.accesses,
            "l1.misses": hierarchy.l1.misses,
            "l2.accesses": hierarchy.l2.accesses,
        }
        controller = self.controller
        if controller is not None:
            stats["controller.prefetches_issued"] = controller.prefetches_issued
            stats["controller.prefetches_used"] = controller.prefetches_used
        return stats

    def _check_stats(self, cycle: Optional[int]) -> None:
        hierarchy = self.hierarchy
        if hierarchy.demand_misses > hierarchy.demand_accesses:
            _fail(
                "stats.consistency",
                f"demand_misses ({hierarchy.demand_misses}) exceeds "
                f"demand_accesses ({hierarchy.demand_accesses})",
                cycle,
                {
                    "demand_misses": hierarchy.demand_misses,
                    "demand_accesses": hierarchy.demand_accesses,
                },
            )
        observed = self._observed_stats()
        floor = self._stat_floor
        for key, value in observed.items():
            previous = floor.get(key)
            if previous is not None and value < previous:
                _fail(
                    "stats.monotonic",
                    f"counter {key} went backwards: {previous} -> {value} "
                    "without a warm-up reset",
                    cycle,
                    {"counter": key, "previous": previous, "current": value},
                )
            floor[key] = value


def build_checker(config: SimConfig, hierarchy, controller=None):
    """An :class:`InvariantChecker` for ``config``, or None when off."""
    if config.invariants is InvariantLevel.OFF:
        return None
    return InvariantChecker(config, hierarchy, controller)
