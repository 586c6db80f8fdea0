"""Structured exception taxonomy for the whole package.

Every error the library raises deliberately derives from
:class:`ReproError`, so callers (the CLI, the campaign runner) can
distinguish "this experiment is broken" from a genuine bug and react
with a policy instead of a traceback:

- :class:`ConfigError` — a configuration value is invalid.  Determinate:
  retrying the same run can never succeed.
- :class:`TraceFormatError` — a trace file or record stream does not
  parse.  Determinate for the same input.
- :class:`SimulationError` — the simulation itself crashed (a bug, a
  poisoned machine state, a killed worker).  Treated as *retryable*
  because transient causes (a dying worker process, an injected fault)
  are indistinguishable from the outside.
- :class:`RunTimeoutError` — a run exceeded its wall-clock budget.
  Retryable: a hang may be load-dependent.
- :class:`IntegrityError` — the simulator violated one of its own
  runtime invariants (an MSHR leak, bus over-subscription, a counter
  escaping its saturation bounds) or disagreed with the golden
  reference model.  *Never* retryable: the state is provably wrong and
  re-running the same deterministic simulation reproduces the same
  corruption; any number it would report is untrustworthy.

The ``retryable`` class attribute drives the campaign runner's
retry-with-backoff policy; ``exit_code`` drives the CLI.

This module is a leaf: it must not import anything else from
:mod:`repro`, so every layer can depend on it without cycles.  All
classes pickle cleanly because failures must cross process boundaries
(``concurrent.futures.ProcessPoolExecutor``).
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all deliberate errors raised by this package."""

    #: Whether the campaign runner should retry a run that failed this way.
    retryable = False
    #: Process exit status the CLI maps this error to.
    exit_code = 1


class ConfigError(ReproError, ValueError):
    """A configuration value is invalid (caught at construction time).

    ``field`` names the offending dataclass field, e.g.
    ``"CacheConfig.size_bytes"``.
    """

    retryable = False

    def __init__(self, message: str, field: Optional[str] = None) -> None:
        super().__init__(message)
        self.field = field

    def __reduce__(self):
        return (type(self), (self.args[0], self.field))


class TraceFormatError(ReproError, ValueError):
    """A trace file or record stream does not parse.

    ``line_number`` is 1-based (the header is line 1); ``line`` holds the
    offending text.  Both are ``None`` when the error is not tied to a
    specific line (e.g. an unreadable file).
    """

    retryable = False

    def __init__(
        self,
        message: str,
        line_number: Optional[int] = None,
        line: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.line_number = line_number
        self.line = line

    def __reduce__(self):
        return (type(self), (self.args[0], self.line_number, self.line))


class SimulationError(ReproError):
    """The simulation crashed while running (not an input problem)."""

    retryable = True


class RunTimeoutError(SimulationError):
    """A run exceeded its wall-clock timeout and was killed."""

    retryable = True


class WorkerPoisonedError(SimulationError):
    """A campaign point's worker died ``max_worker_kills`` times.

    The watchdog stops feeding the point to fresh workers once the kill
    budget is spent: whatever the point does, it takes its host process
    down with it, so the campaign marks it *poisoned* and moves on.
    Not retryable — the budget already was the retry policy.
    """

    retryable = False


class IntegrityError(ReproError):
    """The simulation reached a provably inconsistent state.

    ``invariant`` names the violated check (e.g. ``"mshr.balance"``),
    ``cycle`` is the simulation cycle at which the violation was
    detected (``None`` for post-run differential checks), and
    ``state_dump`` is a small JSON-able snapshot of the offending
    component's state, captured at detection time for post-mortems.
    """

    retryable = False

    def __init__(
        self,
        message: str,
        invariant: Optional[str] = None,
        cycle: Optional[int] = None,
        state_dump: Optional[dict] = None,
    ) -> None:
        super().__init__(message)
        self.invariant = invariant
        self.cycle = cycle
        self.state_dump = state_dump if state_dump is not None else {}

    def __reduce__(self):
        return (
            type(self),
            (self.args[0], self.invariant, self.cycle, self.state_dump),
        )


def error_kind(error: BaseException) -> str:
    """Stable name used for failures in checkpoints and manifests."""
    return type(error).__name__
