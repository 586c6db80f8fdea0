"""Resilient execution of sweep campaigns.

A *campaign* is an ordered list of :class:`RunSpec` points (one
simulation each).  The :class:`CampaignRunner` executes them with the
failure-handling machinery that a long unattended sweep needs:

- **One scheduler** — every campaign, at every worker count, runs
  through the same scheduler.  Under process isolation (the default) it
  keeps ``min(workers, pending)`` persistent single-process *worker
  slots* (each a long-lived
  ``concurrent.futures.ProcessPoolExecutor(max_workers=1)``), so a
  crashed or wedged simulation cannot take down the campaign, a
  timed-out worker can be killed without disturbing its siblings, and
  interpreter start-up is paid once per slot, not once per attempt.
  Points complete out of order; the in-memory campaign and the manifest
  are re-ordered back to spec order, so ``workers=N`` output is
  directly comparable to ``workers=1``.  ``isolation="inline"`` runs
  the attempts in the runner's own process instead, one at a time, and
  retries them exactly as a worker's.
- **Timeouts** — a wall-clock budget per attempt
  (:class:`~repro.errors.RunTimeoutError` when exceeded), tracked as a
  *deadline* per in-flight attempt — the scheduler never blocks in
  ``future.result(timeout=...)`` — and an expired attempt's worker is
  killed in a targeted way.
- **Bounded retry with exponential backoff** — only errors whose class
  is marked ``retryable`` in the taxonomy are retried; a
  :class:`~repro.errors.ConfigError` or
  :class:`~repro.errors.TraceFormatError` is determinate and fails the
  point immediately.  A backoff never blocks the campaign: the retry is
  *rescheduled* with an eligibility deadline and other points run in
  the meantime, inline or on a worker.
- **Checkpointing** — every terminal outcome is appended to
  ``checkpoint.jsonl`` in the campaign directory; ``resume=True`` skips
  points already recorded there (matching both ``run_id`` and spec
  fingerprint) and reloads their results, so an interrupted campaign
  finishes with results identical to an uninterrupted one.  Entries
  are appended in completion order; resume is keyed by ``run_id``, so
  out-of-order checkpoints replay exactly the same way.
- **Degradation policy** — ``on_error="skip"`` records the failure and
  moves on (the unattended default); ``on_error="fail"`` re-raises after
  recording (fail-fast).
  Fail-fast kills the outstanding workers, drains the scheduler, and
  writes the failed manifest before re-raising.
- **Worker watchdog** — a worker that dies *without raising* (kill -9,
  OOM, segfault) is respawned and its point relaunched with bounded
  backoff, on a kill budget separate from the retry budget; after
  ``max_worker_kills`` deaths the point is finalised as **poisoned**
  (a distinct terminal state in the checkpoint, manifest, and
  progress) and the campaign continues.  If the workers of
  ``inline_fallback_after`` different points die with no completion in
  between, the scheduler falls back to inline execution — slower, but
  the campaign finishes.  A point whose worker died on its own (not
  killed by the chaos engine) never runs inline: it keeps a slot until
  it is poisoned, so it cannot take the driver down.
- **Chaos** — an optional :class:`~repro.runner.chaos.ChaosSpec`
  injects deterministic environment faults (failing checkpoint
  appends, worker kills, cache/snapshot corruption, torn manifest
  writes) for durability testing; see :mod:`repro.runner.chaos`.
- **Progress** — an optional tracker (duck-typed against
  :class:`repro.obs.progress.CampaignProgress`) receives
  ``begin``/``point_started``/``point_finished``/``finish`` hooks, for
  points done/in-flight/failed tallies, per-point elapsed, and an ETA.

Because specs cross a process boundary, a spec's trace is *declarative*:
a :class:`WorkloadSpec` (regenerate from the registry), a
:class:`TraceFileSpec` (reload from disk), or a picklable zero-argument
callable.  Unpicklable callables (lambdas/closures) automatically fall
back to inline execution for that point.

This module imports the simulator, the workload registry and the
integrity layer; none of them imports the runner back.
"""

from __future__ import annotations

import heapq
import itertools
import os
import pickle
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.config import SimConfig
from repro.errors import (
    ConfigError,
    IntegrityError,
    ReproError,
    RunTimeoutError,
    SimulationError,
    TraceFormatError,
    WorkerPoisonedError,
    error_kind,
)
from repro.integrity.golden import golden_check, run_golden
from repro.integrity.snapshot import SimSnapshot, resume_run, run_mode
from repro.runner.chaos import ChaosEngine, ChaosSpec
from repro.runner.checkpoint import (
    CheckpointStore,
    result_from_dict,
    result_to_dict,
    spec_fingerprint,
)
from repro.runner.faults import (
    FaultSpec,
    corrupt_simulator_state,
    inject_faults,
)
from repro.sim.results import SimulationResult
from repro.sim.simulator import Simulator
from repro.trace.io import load_trace
from repro.trace.record import TraceRecord
from repro.workloads import get_workload
from repro.workloads.cache import (
    cache_path,
    cached_workload_trace,
    prewarm_workload_trace,
)

#: Upper bound on how long the scheduler blocks in ``wait`` before
#: re-checking for a requested stop (signal or cross-thread).
_STOP_POLL_INTERVAL = 0.5


@dataclass(frozen=True)
class WorkloadSpec:
    """A trace regenerated from the workload registry (picklable)."""

    name: str
    seed: int = 1
    scale: float = 1.0


@dataclass(frozen=True)
class TraceFileSpec:
    """A trace reloaded from disk (picklable)."""

    path: str
    strict: bool = True


TraceSource = Union[WorkloadSpec, TraceFileSpec, Callable[[], Iterable[TraceRecord]]]


@dataclass(frozen=True)
class RunSpec:
    """One point of a campaign: a config against a trace source."""

    run_id: str
    config: SimConfig
    trace: TraceSource
    max_instructions: Optional[int] = None
    warmup_instructions: int = 0
    #: Deterministic fault schedule (testing/chaos engineering only).
    faults: Optional[FaultSpec] = None
    #: Replay the trace through the golden functional model after the
    #: run and raise :class:`~repro.errors.IntegrityError` on
    #: divergence.  Requires ``warmup_instructions == 0``.
    golden_check: bool = False

    def fingerprint(self) -> str:
        """Stable identity of this spec's *inputs*, for resume matching.

        A checkpointed outcome is only reused when both the ``run_id``
        and this fingerprint match, so editing a spec invalidates its
        old results.
        """
        parts = [
            self.config, self.trace, self.max_instructions,
            self.warmup_instructions, self.faults,
        ]
        if self.golden_check:
            # Appended conditionally so fingerprints of plain specs
            # stay compatible with pre-existing checkpoints.
            parts.append("golden_check")
        return spec_fingerprint(*parts)


@dataclass
class RunOutcome:
    """Terminal result of one campaign point."""

    run_id: str
    status: str  # "ok" | "failed" | "poisoned"
    attempts: int
    result: Optional[SimulationResult] = None
    error_kind: Optional[str] = None
    error_message: Optional[str] = None
    resumed: bool = False
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the point completed with a result."""
        return self.status == "ok"


@dataclass
class CampaignResult:
    """Everything a campaign produced, completed and failed alike."""

    #: The terminal outcome of every finished point, in spec order.
    outcomes: Dict[str, RunOutcome] = field(default_factory=dict)
    manifest: Optional[Dict[str, Any]] = None

    @property
    def results(self) -> Dict[str, SimulationResult]:
        """The completed points' results, keyed by ``run_id``."""
        return {
            run_id: outcome.result
            for run_id, outcome in self.outcomes.items()
            if outcome.ok
        }

    @property
    def failures(self) -> Dict[str, RunOutcome]:
        """The failed and poisoned points' outcomes, keyed by ``run_id``."""
        return {
            run_id: outcome
            for run_id, outcome in self.outcomes.items()
            if not outcome.ok
        }

    @property
    def resumed(self) -> List[str]:
        """The ``run_id``\\ s replayed from the checkpoint, not re-run."""
        return [
            run_id
            for run_id, outcome in self.outcomes.items()
            if outcome.resumed
        ]


def _cacheable(trace: TraceSource, max_instructions: Optional[int]) -> bool:
    """True when the point's trace can come from the compiled cache.

    The cache is keyed ``(name, seed, count)``, so it only applies to
    unscaled workload specs with a bounded run length.
    """
    return (
        isinstance(trace, WorkloadSpec)
        and trace.scale == 1.0
        and max_instructions is not None
        and max_instructions > 0
    )


def _resolve_trace(
    trace: TraceSource,
    faults: Optional[FaultSpec],
    attempt: int,
    errors: Optional[List] = None,
    on_corrupt_state: Optional[Callable[[str], None]] = None,
    max_instructions: Optional[int] = None,
) -> Iterable[TraceRecord]:
    if isinstance(trace, WorkloadSpec):
        if _cacheable(trace, max_instructions):
            # The core consumes at most ``max_instructions`` records, so
            # the cached prefix is exactly the generator's output as far
            # as the run can see — results are bit-identical, the load
            # is an mmap instead of a generator re-run, and a parallel
            # campaign's pre-warmed entry is shared by every worker.
            records: Iterable[TraceRecord] = cached_workload_trace(
                trace.name, seed=trace.seed, instructions=max_instructions
            )
        else:
            records = get_workload(
                trace.name, seed=trace.seed, scale=trace.scale
            )
    elif isinstance(trace, TraceFileSpec):
        records = load_trace(trace.path, strict=trace.strict, errors=errors)
    elif callable(trace):
        records = trace()
    else:
        raise ConfigError(
            f"RunSpec.trace: cannot interpret {type(trace).__name__} "
            "as a trace source",
            field="RunSpec.trace",
        )
    if faults is not None and not faults.is_noop:
        records = inject_faults(
            records, faults, attempt=attempt, on_corrupt_state=on_corrupt_state
        )
    return records


def execute_spec(
    spec: RunSpec,
    attempt: int = 0,
    snapshot_every: Optional[int] = None,
    snapshot_path: Optional[str] = None,
) -> SimulationResult:
    """Run one campaign point to completion in the current process.

    Module-level (not a method) so ``ProcessPoolExecutor`` can pickle it
    into a worker.  Raises taxonomy errors only: the simulator wraps
    unexpected crashes into :class:`~repro.errors.SimulationError`.

    When ``snapshot_path`` names an existing snapshot file the run
    *resumes* from it instead of starting over (the typical case: a
    previous attempt timed out mid-run); a file that cannot be read,
    verified or restored is moved to ``.corrupt`` and the run starts
    over with ``extra["snapshot_quarantined"]`` set.  When
    ``snapshot_every`` is also set, fresh snapshots keep landing at
    ``snapshot_path`` as the run progresses, each one atomically
    replacing the last.
    """
    trace_errors: List = []
    # The live simulator, for the state-corruption fault hook.
    machines: List[Simulator] = []

    def on_corrupt_state(target: str) -> None:
        corrupt_simulator_state(machines[-1], target)

    records = _resolve_trace(
        spec.trace,
        spec.faults,
        attempt,
        errors=trace_errors,
        on_corrupt_state=on_corrupt_state,
        max_instructions=spec.max_instructions,
    )

    snapshot_sink = None
    if snapshot_path is not None and snapshot_every is not None:

        def snapshot_sink(snapshot: SimSnapshot) -> None:
            snapshot.save(snapshot_path)

    snapshot: Optional[SimSnapshot] = None
    snapshot_quarantined = False
    if snapshot_path is not None and os.path.exists(snapshot_path):
        try:
            snapshot = SimSnapshot.load(snapshot_path)
            # A payload can pass its checksum and still not unpickle.
            snapshot.restore()
        except SimulationError:
            # A corrupt/torn/unrestorable snapshot must never poison the
            # retry: move it aside (post-mortem evidence, audit-visible)
            # and run the attempt from scratch — slower, but always
            # correct.
            snapshot = None
            snapshot_quarantined = True
            try:
                os.replace(snapshot_path, snapshot_path + ".corrupt")
            except OSError:
                pass
    if snapshot is not None:
        expected_mode = run_mode(spec.config)
        if snapshot.mode != expected_mode:
            raise IntegrityError(
                f"snapshot for {spec.run_id!r} was captured in "
                f"{snapshot.mode!r} mode but the spec runs in "
                f"{expected_mode!r} mode; refusing a cross-mode resume",
                invariant="snapshot.mode",
            )
        result = resume_run(
            snapshot,
            records,
            label=spec.run_id,
            snapshot_every=snapshot_every,
            snapshot_sink=snapshot_sink,
            on_restore=machines.append,
        )
    else:
        simulator = Simulator(spec.config)
        machines.append(simulator)
        result = simulator.run(
            records,
            max_instructions=spec.max_instructions,
            warmup_instructions=spec.warmup_instructions,
            label=spec.run_id,
            snapshot_every=snapshot_every,
            snapshot_sink=snapshot_sink,
        )
    if snapshot_quarantined:
        result.extra["snapshot_quarantined"] = 1.0
    if trace_errors:
        result.extra["trace_records_skipped"] = float(len(trace_errors))
    if spec.golden_check:
        _golden_validate(spec, result)
    return result


def _golden_validate(spec: RunSpec, result: SimulationResult) -> None:
    """Replay the spec's trace through the golden model and verify."""
    if spec.warmup_instructions:
        raise ConfigError(
            "RunSpec.golden_check requires warmup_instructions == 0 "
            "(a warm-up reset discards events the golden model counts)",
            field="RunSpec.golden_check",
        )
    if spec.config.sampling is not None:
        raise ConfigError(
            "RunSpec.golden_check is incompatible with sampling: the "
            "conservation laws count every instruction, but a sampled "
            "run only measures its detailed windows",
            field="RunSpec.golden_check",
        )
    reference = _resolve_trace(
        spec.trace, None, 0, max_instructions=spec.max_instructions
    )
    golden = run_golden(
        spec.config, reference, max_instructions=spec.max_instructions
    )
    report = golden_check(result, golden)
    result.extra["golden_miss_rate"] = report.golden_miss_rate
    report.verify()


def _is_picklable(spec: RunSpec) -> bool:
    try:
        pickle.dumps(spec)
        return True
    except Exception:
        return False


class CampaignRunner:
    """Runs specs with isolation, retries, and checkpointing.

    See the module docstring for the full behaviour.
    """

    def __init__(
        self,
        campaign_dir: Optional[str] = None,
        *,
        workers: int = 1,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff_base: float = 0.5,
        backoff_max: float = 30.0,
        on_error: str = "skip",
        isolation: str = "process",
        resume: bool = False,
        snapshot_every: Optional[int] = None,
        sleep: Callable[[float], None] = time.sleep,
        progress: Optional[Any] = None,
        chaos: Optional[ChaosSpec] = None,
        max_worker_kills: int = 3,
        inline_fallback_after: Optional[int] = None,
        handle_signals: bool = False,
    ) -> None:
        if workers < 1:
            raise ConfigError(
                f"CampaignRunner.workers: must be >= 1, got {workers}",
                field="CampaignRunner.workers",
            )
        if on_error not in ("skip", "fail"):
            raise ConfigError(
                f"CampaignRunner.on_error: expected 'skip' or 'fail', "
                f"got {on_error!r}",
                field="CampaignRunner.on_error",
            )
        if isolation not in ("process", "inline"):
            raise ConfigError(
                f"CampaignRunner.isolation: expected 'process' or 'inline', "
                f"got {isolation!r}",
                field="CampaignRunner.isolation",
            )
        if retries < 0:
            raise ConfigError(
                "CampaignRunner.retries: must be >= 0",
                field="CampaignRunner.retries",
            )
        if timeout is not None and timeout <= 0:
            raise ConfigError(
                "CampaignRunner.timeout: must be positive",
                field="CampaignRunner.timeout",
            )
        if timeout is not None and isolation != "process":
            raise ConfigError(
                "CampaignRunner.timeout: requires process isolation "
                "(an inline hang cannot be interrupted)",
                field="CampaignRunner.timeout",
            )
        if workers > 1 and isolation != "process":
            raise ConfigError(
                "CampaignRunner.workers: parallel execution requires "
                "process isolation (inline points share one process)",
                field="CampaignRunner.workers",
            )
        if resume and campaign_dir is None:
            raise ConfigError(
                "CampaignRunner.resume: requires a campaign_dir to "
                "resume from",
                field="CampaignRunner.resume",
            )
        if snapshot_every is not None and snapshot_every <= 0:
            raise ConfigError(
                "CampaignRunner.snapshot_every: must be positive",
                field="CampaignRunner.snapshot_every",
            )
        if snapshot_every is not None and campaign_dir is None:
            raise ConfigError(
                "CampaignRunner.snapshot_every: requires a campaign_dir "
                "to store snapshots in",
                field="CampaignRunner.snapshot_every",
            )
        if max_worker_kills < 1:
            raise ConfigError(
                "CampaignRunner.max_worker_kills: must be >= 1",
                field="CampaignRunner.max_worker_kills",
            )
        if inline_fallback_after is not None and inline_fallback_after < 1:
            raise ConfigError(
                "CampaignRunner.inline_fallback_after: must be >= 1",
                field="CampaignRunner.inline_fallback_after",
            )
        if (
            chaos is not None
            and (chaos.kill_points or chaos.poison_points)
            and isolation != "process"
        ):
            raise ConfigError(
                "CampaignRunner.chaos: kill_points/poison_points need "
                "process isolation (inline points have no worker to kill)",
                field="CampaignRunner.chaos",
            )
        self.campaign_dir = campaign_dir
        self.snapshot_every = snapshot_every
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.on_error = on_error
        self.isolation = isolation
        self.resume = resume
        self.chaos = chaos
        self.max_worker_kills = max_worker_kills
        #: How many different points' workers must die with no
        #: completion in between before the scheduler stops trusting the
        #: pool and runs the rest inline.
        self.inline_fallback_after = (
            inline_fallback_after
            if inline_fallback_after is not None
            else 2 * workers + 2
        )
        #: Install SIGTERM/SIGINT handlers around :meth:`run` (main
        #: thread only) that request a graceful stop instead of letting
        #: the default disposition kill the process mid-append.
        self.handle_signals = handle_signals
        self._sleep = sleep
        self._progress = progress
        self._chaos_engine: Optional[ChaosEngine] = None
        self._stop_requested = False

    # -- graceful stop -------------------------------------------------

    def request_stop(self) -> None:
        """Ask a running campaign to stop at the next safe boundary.

        Safe to call from a signal handler or another thread.  The
        scheduler stops launching attempts and kills its outstanding
        workers; an inline attempt in progress finishes (and a terminal
        outcome is checkpointed) first, since there is no worker to
        kill.  Points not yet terminal, a retry backing off included,
        are dropped and re-run on resume.  The runner flushes pending
        checkpoint appends and writes a resumable manifest with status
        ``"interrupted"`` before :meth:`run` returns — nothing recorded
        is lost, nothing torn.
        """
        self._stop_requested = True

    @property
    def stop_requested(self) -> bool:
        """True once :meth:`request_stop` (or a handled signal) fired."""
        return self._stop_requested

    def _snapshot_path(self, spec: RunSpec) -> Optional[str]:
        """Where this spec's within-run snapshot lives, if enabled."""
        if self.snapshot_every is None or self.campaign_dir is None:
            return None
        return os.path.join(
            self.campaign_dir, "snapshots", spec.fingerprint() + ".snap"
        )

    # -- checkpoint plumbing -------------------------------------------

    @staticmethod
    def _entry_of(outcome: RunOutcome, fingerprint: str) -> Dict[str, Any]:
        return {
            "run_id": outcome.run_id,
            "status": outcome.status,
            "fingerprint": fingerprint,
            "attempts": outcome.attempts,
            "elapsed_seconds": round(outcome.elapsed_seconds, 6),
            "result": (
                result_to_dict(outcome.result)
                if outcome.result is not None
                else None
            ),
            "error": (
                {"kind": outcome.error_kind, "message": outcome.error_message}
                if outcome.status != "ok"
                else None
            ),
        }

    @staticmethod
    def _outcome_of(entry: Dict[str, Any]) -> RunOutcome:
        error = entry.get("error") or {}
        result = entry.get("result")
        return RunOutcome(
            run_id=entry["run_id"],
            status=entry["status"],
            attempts=int(entry.get("attempts", 1)),
            result=result_from_dict(result) if result else None,
            error_kind=error.get("kind"),
            error_message=error.get("message"),
            resumed=True,
            elapsed_seconds=float(entry.get("elapsed_seconds", 0.0)),
        )

    # -- campaign entry points -----------------------------------------

    def run_one(self, spec: RunSpec) -> SimulationResult:
        """Execute a single point outside any campaign bookkeeping.

        Drives a one-point campaign with no checkpoint store and no
        progress hooks: isolation, timeout, retry, and the worker
        watchdog apply, and a failure always raises (so callers keep
        plain function semantics).
        """
        self._stop_requested = False
        self._chaos_engine = None  # chaos is a campaign-level plan
        campaign = CampaignResult()
        scheduler = _Scheduler(self, None, campaign, notify=False)
        scheduler.add(0, spec, spec.fingerprint())
        scheduler.drive()
        outcome = campaign.outcomes.get(spec.run_id)
        if outcome is None:
            raise SimulationError(
                f"run {spec.run_id!r} was stopped before it finished"
            )
        if outcome.ok:
            assert outcome.result is not None
            return outcome.result
        raise self._failure_error(outcome)

    @staticmethod
    def _failure_error(outcome: RunOutcome) -> ReproError:
        message = outcome.error_message or "unknown failure"
        kinds = {
            "ConfigError": ConfigError,
            "TraceFormatError": TraceFormatError,
            "RunTimeoutError": RunTimeoutError,
            "IntegrityError": IntegrityError,
            "WorkerPoisonedError": WorkerPoisonedError,
        }
        return kinds.get(outcome.error_kind or "", SimulationError)(message)

    def run(self, specs: Sequence[RunSpec]) -> CampaignResult:
        """Execute a whole campaign; see the module docstring."""
        self._stop_requested = False
        seen: Dict[str, RunSpec] = {}
        for spec in specs:
            if spec.run_id in seen:
                raise ConfigError(
                    f"duplicate run_id {spec.run_id!r} in campaign",
                    field="RunSpec.run_id",
                )
            seen[spec.run_id] = spec

        self._chaos_engine = (
            ChaosEngine(self.chaos)
            if self.chaos is not None and not self.chaos.is_noop
            else None
        )
        store: Optional[CheckpointStore] = None
        prior: Dict[str, Dict[str, Any]] = {}
        if self.campaign_dir is not None:
            store = CheckpointStore(self.campaign_dir, chaos=self._chaos_engine)
            if self.resume:
                prior = store.load()
            else:
                store.clear()

        campaign = CampaignResult()
        if self._progress is not None:
            self._progress.begin(len(specs), workers=self.workers)
        previous_handlers: List[Tuple[int, Any]] = []
        if (
            self.handle_signals
            and threading.current_thread() is threading.main_thread()
        ):
            def _on_signal(signum: int, frame: Any) -> None:
                self.request_stop()

            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    previous_handlers.append(
                        (signum, signal.signal(signum, _on_signal))
                    )
                except (OSError, ValueError):  # pragma: no cover
                    continue
        status = "interrupted"
        pending_error: Optional[BaseException] = None
        try:
            status, pending_error = self._drive(specs, prior, store, campaign)
        except KeyboardInterrupt as interrupt:
            pending_error = interrupt
        finally:
            for signum, handler in previous_handlers:
                try:
                    signal.signal(signum, handler)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        # Completion is out of order; re-keying by the spec list makes
        # the campaign (and the manifest derived from it) independent
        # of scheduling, so ``workers=N`` output is directly comparable
        # to ``workers=1``.
        campaign.outcomes = {
            spec.run_id: campaign.outcomes[spec.run_id]
            for spec in specs
            if spec.run_id in campaign.outcomes
        }
        if store is not None:
            campaign.manifest = self._try_write_manifest(
                store, status, len(specs), campaign
            )
        if self._progress is not None:
            self._progress.finish(status)
        if pending_error is not None:
            raise pending_error
        return campaign

    # -- the schedule --------------------------------------------------

    def _drive(
        self,
        specs: Sequence[RunSpec],
        prior: Dict[str, Dict[str, Any]],
        store: Optional[CheckpointStore],
        campaign: CampaignResult,
    ) -> "Tuple[str, Optional[ReproError]]":
        """Replay checkpointed points, then schedule the rest."""
        scheduler = _Scheduler(self, store, campaign)
        for index, spec in enumerate(specs):
            fingerprint = spec.fingerprint()
            entry = prior.get(spec.run_id)
            if entry is None or entry.get("fingerprint") != fingerprint:
                scheduler.add(index, spec, fingerprint)
            elif scheduler.record(self._outcome_of(entry)):
                return scheduler.status, scheduler.pending_error
        warmed = self._prewarm_caches(
            [point.spec for point in scheduler.ready]
        )
        if self._chaos_engine is not None:
            self._chaos_engine.corrupt_cache_entries(warmed)
        return scheduler.drive()

    def _prewarm_caches(self, specs: Sequence[RunSpec]) -> List[str]:
        """Compile each unique workload-trace prefix once, up front.

        Without this every worker that first touches a given
        ``(workload, seed, length)`` would regenerate — and race to
        compile — the same prefix; warmed in the parent, the workers
        all mmap one shared compiled trace.  The cache stays an
        accelerator: any failure here just means workers fall back to
        the generator.  Returns the paths of the entries warmed — the
        chaos engine's cache-corruption target list.
        """
        warmed = set()
        paths: List[str] = []
        for spec in specs:
            trace = spec.trace
            if not _cacheable(trace, spec.max_instructions):
                continue
            key = (trace.name, trace.seed, spec.max_instructions)
            if key in warmed:
                continue
            warmed.add(key)
            try:
                if prewarm_workload_trace(
                    trace.name, seed=trace.seed,
                    instructions=spec.max_instructions,
                ):
                    paths.append(
                        cache_path(
                            trace.name, trace.seed, spec.max_instructions
                        )
                    )
            except ReproError:
                pass  # e.g. unknown workload: the attempt will report it
        return paths

    def _try_write_manifest(
        self,
        store: CheckpointStore,
        status: str,
        total: int,
        campaign: CampaignResult,
    ) -> Optional[Dict[str, Any]]:
        """Write the manifest, absorbing write failures.

        Atomicity guarantees a failed write leaves the previous
        manifest (if any) intact; the campaign result is already in
        memory, so a manifest that cannot land degrades reporting, not
        correctness.
        """
        try:
            return self._write_manifest(store, status, total, campaign)
        except OSError:
            return None

    def _write_manifest(
        self,
        store: CheckpointStore,
        status: str,
        total: int,
        campaign: CampaignResult,
    ) -> Dict[str, Any]:
        # Give every entry that failed its durable append a second
        # chance before the manifest summarizes the checkpoint; whatever
        # is still stuck is declared as a gap the auditor can excuse.
        store.flush_pending()
        failures = [
            {
                "run_id": outcome.run_id,
                "status": outcome.status,
                "kind": outcome.error_kind,
                "message": outcome.error_message,
                "attempts": outcome.attempts,
            }
            for outcome in campaign.failures.values()
        ]
        # Surface silently skipped trace records (strict=False loads):
        # dropped lines must be visible, not invisible.
        skipped_by_run = {
            run_id: int(result.extra.get("trace_records_skipped", 0))
            for run_id, result in campaign.results.items()
            if result.extra.get("trace_records_skipped")
        }
        # Per-point headline metrics, so a campaign directory is
        # renderable by 'repro-sim report --campaign' without re-loading
        # every checkpointed result.
        metrics = {}
        for run_id, result in campaign.results.items():
            point = {
                "ipc": result.ipc,
                "cycles": result.cycles,
                "instructions": result.instructions,
                "l1_miss_rate": result.l1_miss_rate,
                "prefetch_accuracy": result.prefetch_accuracy,
            }
            if result.extra.get("sampled"):
                # Sampled points are estimates: record the sampling shape
                # and the confidence interval next to the headline IPC.
                point["sampled"] = True
                point["windows"] = int(result.extra.get("windows", 0))
                point["ipc_ci95"] = result.extra.get("ipc_ci95", 0.0)
            metrics[run_id] = point
        extra: Dict[str, Any] = {
            "policy": {
                "timeout": self.timeout,
                "retries": self.retries,
                "on_error": self.on_error,
                "isolation": self.isolation,
                "snapshot_every": self.snapshot_every,
                "workers": self.workers,
                "max_worker_kills": self.max_worker_kills,
            },
            "trace_records_skipped": {
                "total": sum(skipped_by_run.values()),
                "by_run": skipped_by_run,
            },
            "metrics": metrics,
        }
        # Entries whose checkpoint append never landed (disk failure
        # that outlived the end-of-campaign retry): the auditor treats
        # these as *declared* gaps rather than silent corruption.
        if store.pending_ids:
            extra["checkpoint_gaps"] = sorted(store.pending_ids)
        if store.append_failures:
            extra["checkpoint_append_failures"] = store.append_failures
        if self._chaos_engine is not None:
            extra["chaos"] = self._chaos_engine.summary()
        return store.write_manifest(
            status=status,
            total=total,
            completed=list(campaign.results),
            resumed=campaign.resumed,
            failures=failures,
            extra=extra,
        )


class _WorkerSlot:
    """One persistent single-process worker of the scheduler's pool.

    Each slot owns its own ``ProcessPoolExecutor(max_workers=1)``.
    Killing a worker of a *shared* N-process pool marks the whole pool
    broken — every outstanding future raises ``BrokenProcessPool`` —
    so the only way to kill a timed-out attempt without disturbing its
    siblings is one executor per worker.  Between attempts the slot's
    process persists, amortising interpreter start-up and imports over
    the whole campaign instead of paying them per attempt.
    """

    __slots__ = ("executor",)

    def __init__(self) -> None:
        self.executor = ProcessPoolExecutor(max_workers=1)

    def submit(self, fn: Callable[..., Any], *args: Any) -> Any:
        return self.executor.submit(fn, *args)

    def kill_process(self) -> None:
        """SIGKILL the worker process; its future breaks, the slot stays."""
        for process in list((self.executor._processes or {}).values()):
            process.kill()

    def kill(self) -> None:
        """Kill the worker process and respawn a fresh one.

        Used for deadline expiry (the worker is wedged or over budget)
        and for crash recovery (the pool is broken either way).
        """
        self.shutdown()
        self.executor = ProcessPoolExecutor(max_workers=1)

    # A broken pool is discarded exactly like a killed one.
    reset = kill

    def shutdown(self) -> None:
        """Tear the slot down for good (kills a still-busy worker)."""
        self.kill_process()
        # The worker is idle or just killed, so a synchronous shutdown
        # is immediate — and it lets the executor's management thread
        # exit cleanly instead of tripping over closed pipes at exit.
        self.executor.shutdown(wait=True, cancel_futures=True)


@dataclass
class _PointState:
    """Scheduler-side state of one not-yet-terminal campaign point."""

    spec: RunSpec
    fingerprint: str
    snapshot_path: Optional[str]
    #: Position of the spec in the campaign's spec list (scheduling-
    #: independent, which is what keys chaos worker kills).
    index: int = 0
    #: 0-based index of the next attempt to launch.
    attempt: int = 0
    #: Monotonic time of the first launch (None until then).
    start: Optional[float] = None
    #: How many times this point's worker died without an exception
    #: crossing back (kill -9, segfault).  Budgeted separately from
    #: ``attempt``: worker deaths do not consume the retry policy.
    worker_kills: int = 0
    #: Whether the chaos engine killed the in-flight attempt's worker.
    chaos_killed: bool = False
    #: Set once the point's worker died without the scheduler killing
    #: it (exit, signal, OOM).  Such a point may take any process that
    #: runs it down with it, so it never runs inline in the scheduler.
    kills_its_worker: bool = False


class _Scheduler:
    """The campaign schedule, at every worker count.

    Every attempt, inline or on a worker, ends in :meth:`_absorb`: one
    exception classifier, one backoff helper and one terminal-outcome
    builder serve every point.  Under process isolation the scheduler
    keeps up to N points in flight across ``min(N, pending)``
    :class:`_WorkerSlot`\\ s:

    - **Timeouts** are *deadlines* recorded at submission.  The scheduler
      never blocks in ``future.result(timeout=...)``; it waits with
      ``concurrent.futures.wait`` bounded by the earliest deadline (or
      retry-eligibility time) and kills only the expired slot.
    - **Backoff** never blocks the campaign: a retryable failure pushes
      the point onto a min-heap keyed by its eligibility time, and the
      scheduler immediately takes other work.  The backoff schedule is
      ``min(max, base * 2**n)``.  Only when *nothing* is running or
      ready does the scheduler actually sleep, for the time left to the
      earliest eligibility (through the runner's injectable ``sleep``,
      so tests with a no-op sleep make progress instead of spinning).
    - **Fail-fast** (``on_error="fail"``) finalises the failing point
      (checkpoint, record, progress), then stops scheduling; the
      ``finally`` teardown kills the outstanding workers and drains
      their executors before the failed manifest is written.
    - **Inline points** — every point under ``isolation="inline"``,
      unpicklable specs (legacy lambda traces), and, after the
      watchdog's inline fallback, every point whose worker never died
      on its own — run one attempt at a time, synchronously in the
      scheduler.  A failed inline attempt backs off on the same heap as
      a worker's, so other points run while it waits.

    Checkpoint entries are appended in completion order; resume is
    keyed by ``run_id``, so the out-of-order file replays identically.
    ``notify=False`` silences the progress hooks
    (:meth:`CampaignRunner.run_one` is not a campaign).
    """

    def __init__(
        self,
        runner: CampaignRunner,
        store: Optional[CheckpointStore],
        campaign: CampaignResult,
        notify: bool = True,
    ) -> None:
        self.runner = runner
        self.store = store
        self.campaign = campaign
        self.progress = runner._progress if notify else None
        #: Points ready to launch now, first come first served.
        self.ready: List[_PointState] = []
        #: ``(eligible_time, seq, point)`` min-heap of backing-off retries.
        self.waiting: List[Tuple[float, int, _PointState]] = []
        self._seq = itertools.count()
        self.status = "complete"
        self.pending_error: Optional[ReproError] = None
        #: Indices of the points whose workers died since a worker last
        #: delivered a value or an exception.  One hostile point dying
        #: again and again says nothing about the pool; at
        #: ``runner.inline_fallback_after`` *different* points the pool
        #: is declared unsalvageable (``pool_dead``).
        self.dying_points: Set[int] = set()
        self.pool_dead = False
        self.inline = runner.isolation == "inline"

    def add(self, index: int, spec: RunSpec, fingerprint: str) -> None:
        """Queue ``spec``, position ``index`` in the campaign, to run."""
        self.ready.append(
            _PointState(
                spec, fingerprint, self.runner._snapshot_path(spec),
                index=index,
            )
        )

    def drive(self) -> Tuple[str, Optional[ReproError]]:
        runner = self.runner
        slots = (
            []
            if self.inline
            else [
                _WorkerSlot()
                for _ in range(min(runner.workers, len(self.ready)))
            ]
        )
        idle = list(slots)
        #: future -> (point, slot, deadline | None)
        running: Dict[Any, Tuple[_PointState, _WorkerSlot, Optional[float]]] = {}
        try:
            while self.ready or self.waiting or running:
                if runner._stop_requested:
                    # Graceful stop: drop everything not yet terminal.
                    # In-flight attempts are killed by the slot teardown
                    # below; their points were never checkpointed, so a
                    # resume re-runs exactly them and nothing else.
                    self.status = "interrupted"
                    break
                now = time.monotonic()
                while self.waiting and self.waiting[0][0] <= now:
                    self.ready.append(heapq.heappop(self.waiting)[2])
                while self.ready and not runner._stop_requested:
                    inline = self._runs_inline(self.ready[0])
                    if not (inline or idle):
                        break
                    if self._launch(self.ready.pop(0), inline, idle, running):
                        return self.status, self.pending_error
                if not running:
                    if not (self.ready or self.waiting):
                        break
                    if not self.ready:
                        # Everything is backing off.  Sleep out the head
                        # delay, then launch it unconditionally — the
                        # sleep is injectable and may be a no-op.
                        eligible, _, point = heapq.heappop(self.waiting)
                        delay = max(0.0, eligible - time.monotonic())
                        if delay:
                            runner._sleep(delay)
                        self.ready.append(point)
                    continue
                done, _ = futures_wait(
                    running,
                    timeout=self._wait_timeout(running),
                    return_when=FIRST_COMPLETED,
                )
                now = time.monotonic()
                for future, (point, slot, deadline) in list(running.items()):
                    if future in done or future.done():
                        continue
                    if deadline is not None and deadline <= now:
                        del running[future]
                        slot.kill()
                        idle.append(slot)
                        error = RunTimeoutError(
                            f"run {point.spec.run_id!r} exceeded "
                            f"{runner.timeout:g}s (attempt {point.attempt + 1})"
                        )
                        if self._attempt_failed(point, error, now):
                            return self.status, self.pending_error
                for future in done:
                    point, slot, _ = running.pop(future)
                    idle.append(slot)
                    if self._absorb(point, future.result, slot):
                        return self.status, self.pending_error
            return self.status, self.pending_error
        finally:
            for slot in slots:
                slot.shutdown()

    # -- scheduling steps ----------------------------------------------

    def _runs_inline(self, point: _PointState) -> bool:
        """Whether the point's next launch runs inside the scheduler.

        Inline isolation was asked for, the spec cannot cross the
        process boundary, or the pool has proven it cannot stay alive.
        Inline fallback trades parallelism (and timeouts) for forward
        progress — slower beats stuck — but never for a point whose
        worker died on its own: it stays on a slot until its kill
        budget is spent, so it cannot take the scheduler down.
        """
        if self.inline or not _is_picklable(point.spec):
            return True
        return self.pool_dead and not point.kills_its_worker

    def _launch(
        self,
        point: _PointState,
        inline: bool,
        idle: List[_WorkerSlot],
        running: Dict[Any, Tuple[_PointState, _WorkerSlot, Optional[float]]],
    ) -> bool:
        """Dispatch one attempt; True when fail-fast stops the campaign."""
        runner = self.runner
        if point.start is None:
            point.start = time.monotonic()
            if self.progress is not None:
                self.progress.point_started(point.spec.run_id)
        args = (
            point.spec, point.attempt, runner.snapshot_every,
            point.snapshot_path,
        )
        if inline:
            return self._absorb(point, lambda: execute_spec(*args))
        slot = idle.pop()
        deadline = (
            None if runner.timeout is None
            else time.monotonic() + runner.timeout
        )
        future = slot.submit(execute_spec, *args)
        running[future] = (point, slot, deadline)
        point.chaos_killed = (
            runner._chaos_engine is not None
            and runner._chaos_engine.kill_attempt(
                point.index, point.worker_kills
            )
        )
        if point.chaos_killed:
            slot.kill_process()
        return False

    def _absorb(
        self,
        point: _PointState,
        attempt: Callable[[], SimulationResult],
        slot: Optional[_WorkerSlot] = None,
    ) -> bool:
        """Classify one finished attempt; True when fail-fast stops.

        ``attempt`` returns the attempt's result or raises its error: a
        worker future's ``result``, or the inline attempt itself.
        """
        try:
            result = attempt()
        except BrokenProcessPool as broken:
            # The worker vanished without raising (kill -9, OOM,
            # segfault).  Respawn the slot; the watchdog decides
            # whether the *point* gets another launch.
            slot.reset()
            return self._worker_died(point, broken, time.monotonic())
        except ReproError as raised:
            error: Optional[ReproError] = raised
        except Exception as raised:
            # The trace source itself can raise before the simulator
            # classifies anything: treat it as a simulation failure.
            error = SimulationError(
                f"run {point.spec.run_id!r} raised "
                f"{type(raised).__name__}: {raised}"
            )
        else:
            error = None
        now = time.monotonic()
        if slot is not None:
            # The worker is demonstrably alive (it delivered a value or
            # a real exception), so the pool-health streak resets.
            self.dying_points.clear()
        if error is not None:
            return self._attempt_failed(point, error, now)
        return self._finish(point, now, "ok", point.attempt + 1, result=result)

    def _worker_died(
        self, point: _PointState, broken: BrokenProcessPool, now: float
    ) -> bool:
        """The watchdog: absorb a worker death without raising.

        A death consumes the point's *kill* budget, not its retry
        budget (the attempt never reported anything to retry *from*).
        Within budget the point is rescheduled with the same bounded
        backoff as a retry; past ``max_worker_kills`` it is finalised
        as **poisoned** — a distinct terminal state, so one hostile
        point degrades to a single failure record instead of hanging
        or sinking the campaign.  The point also joins the set of dying
        points whose size triggers inline fallback.
        """
        runner = self.runner
        point.worker_kills += 1
        if not point.chaos_killed:
            point.kills_its_worker = True
        self.dying_points.add(point.index)
        if len(self.dying_points) >= runner.inline_fallback_after:
            self.pool_dead = True
        if point.worker_kills < runner.max_worker_kills:
            self._back_off(point, point.worker_kills - 1, now)
            return False
        poisoned = WorkerPoisonedError(
            f"run {point.spec.run_id!r}: worker died "
            f"{point.worker_kills} times "
            f"(max_worker_kills={runner.max_worker_kills}); "
            f"point poisoned: {broken}"
        )
        return self._finish(
            point, now, "poisoned", point.attempt + point.worker_kills,
            error=poisoned,
        )

    def _attempt_failed(
        self, point: _PointState, error: ReproError, now: float
    ) -> bool:
        """Retry or finalise a failed attempt; True when fail-fast stops."""
        runner = self.runner
        if error.retryable and point.attempt < runner.retries:
            self._back_off(point, point.attempt, now)
            point.attempt += 1
            if (
                runner._chaos_engine is not None
                and point.snapshot_path is not None
            ):
                runner._chaos_engine.maybe_corrupt_snapshot(
                    point.snapshot_path
                )
            return False
        return self._finish(
            point, now, "failed", point.attempt + 1, error=error
        )

    def _back_off(self, point: _PointState, retry: int, now: float) -> None:
        """Make ``point`` eligible again after its ``retry``-th backoff.

        ``retry`` counts from 0; the delay is ``min(backoff_max,
        backoff_base * 2**retry)``.
        """
        runner = self.runner
        delay = min(runner.backoff_max, runner.backoff_base * (2.0 ** retry))
        heapq.heappush(self.waiting, (now + delay, next(self._seq), point))

    def _finish(
        self,
        point: _PointState,
        now: float,
        status: str,
        attempts: int,
        result: Optional[SimulationResult] = None,
        error: Optional[ReproError] = None,
    ) -> bool:
        """Build, checkpoint and record a launched point's terminal outcome.

        Returns True when the outcome triggers ``on_error="fail"`` —
        the caller must stop scheduling and let teardown kill the rest.
        """
        # The point is done, so its within-run snapshot goes: success no
        # longer needs it, and after a terminal failure a later resume
        # could fast-forward from a snapshot captured under a different
        # attempt's fault schedule.  Mid-retry snapshots (a timed-out
        # attempt resuming where it stopped) never reach here.
        if point.snapshot_path is not None:
            try:
                os.remove(point.snapshot_path)
            except OSError:
                pass
        assert point.start is not None
        outcome = RunOutcome(
            run_id=point.spec.run_id,
            status=status,
            attempts=attempts,
            result=result,
            error_kind=None if error is None else error_kind(error),
            error_message=None if error is None else str(error),
            elapsed_seconds=now - point.start,
        )
        if self.store is not None:
            self.store.append(self.runner._entry_of(outcome, point.fingerprint))
        return self.record(outcome)

    def record(self, outcome: RunOutcome) -> bool:
        """Record and announce one terminal outcome, run or replayed.

        Returns True when the outcome triggers ``on_error="fail"``.
        """
        runner = self.runner
        self.campaign.outcomes[outcome.run_id] = outcome
        if self.progress is not None:
            self.progress.point_finished(outcome)
        if not outcome.ok and runner.on_error == "fail":
            self.status = "failed"
            self.pending_error = runner._failure_error(outcome)
            return True
        return False

    def _wait_timeout(
        self,
        running: Dict[Any, Tuple[_PointState, _WorkerSlot, Optional[float]]],
    ) -> Optional[float]:
        """How long ``wait`` may block: to the nearest deadline or the
        nearest retry-eligibility time, whichever comes first — capped
        at half a second so a cross-thread :meth:`CampaignRunner.request_stop`
        (or a handled signal) is noticed promptly even when every
        worker is deep in a long point."""
        marks = [
            deadline
            for _, _, deadline in running.values()
            if deadline is not None
        ]
        if self.waiting:
            marks.append(self.waiting[0][0])
        if not marks:
            return _STOP_POLL_INTERVAL
        return max(0.0, min(min(marks) - time.monotonic(), _STOP_POLL_INTERVAL))
