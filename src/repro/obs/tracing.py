"""Ring-buffered structured event tracing.

An :class:`EventTrace` records *discrete* simulator events — stream
allocations, prefetch issue/fill/hit, priority bumps and agings, demand
misses, invariant-checker sweeps — as small dicts in a bounded ring
buffer.  It complements the metrics registry: metrics answer "how much,
over time", the trace answers "what exactly happened around cycle X".

Components hold an optional trace reference (``None`` when tracing is
off) and guard every emission site with one ``is not None`` check plus
a :meth:`EventTrace.wants` category test, so the disabled path costs a
single attribute load per candidate event and the filtered path skips
building the event dict entirely.

The buffer is a ``collections.deque(maxlen=capacity)``: once full, the
oldest events fall off.  :meth:`EventTrace.write_jsonl` dumps whatever
the ring currently holds as JSON Lines, one event per line, suitable
for ``jq``/pandas post-processing; :func:`read_jsonl` loads such a file
back.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import ConfigError
from repro.ioutil import atomic_write

#: Every event category the simulator emits.  ``alloc``: stream-buffer
#: allocation decisions; ``prefetch``: issue/fill/hit/drop lifecycle;
#: ``priority``: counter bumps and agings; ``demand``: demand L1 misses;
#: ``integrity``: invariant-checker sweeps; ``pool``: shared entry-pool
#: steals under a pooled buffer-sharing policy.
CATEGORIES = ("alloc", "prefetch", "priority", "demand", "integrity", "pool")

#: Default ring capacity: large enough to hold every event of a typical
#: 50k-instruction run, small enough to stay out of memory trouble.
DEFAULT_CAPACITY = 65_536


class EventTrace:
    """A bounded, category-filtered log of structured simulator events."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        categories: Optional[Iterable[str]] = None,
    ) -> None:
        if capacity <= 0:
            raise ConfigError(
                f"EventTrace.capacity: must be positive, got {capacity}",
                field="EventTrace.capacity",
            )
        wanted = frozenset(categories) if categories is not None else frozenset(
            CATEGORIES
        )
        unknown = wanted - frozenset(CATEGORIES)
        if unknown:
            raise ConfigError(
                f"EventTrace.categories: unknown {sorted(unknown)}; "
                f"known: {', '.join(CATEGORIES)}",
                field="EventTrace.categories",
            )
        self.capacity = capacity
        self.categories = wanted
        self._events: deque = deque(maxlen=capacity)
        #: Total emissions accepted, including any that have since
        #: fallen off the ring — so reports can state the loss honestly.
        self.emitted = 0

    def wants(self, category: str) -> bool:
        """True when events of ``category`` pass the filter.

        Emission sites call this *before* assembling event fields so a
        filtered-out category costs one set lookup, nothing more.
        """
        return category in self.categories

    def emit(self, cycle: int, category: str, event: str, **fields: Any) -> None:
        """Record one event (silently dropped if its category is filtered)."""
        if category not in self.categories:
            return
        record: Dict[str, Any] = {
            "cycle": cycle,
            "category": category,
            "event": event,
        }
        if fields:
            record.update(fields)
        self._events.append(record)
        self.emitted += 1

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events lost to ring overflow (emitted but no longer held)."""
        return self.emitted - len(self._events)

    def events(self, category: Optional[str] = None) -> List[Dict[str, Any]]:
        """The buffered events, oldest first, optionally one category."""
        if category is None:
            return list(self._events)
        return [e for e in self._events if e["category"] == category]

    def counts(self) -> Dict[str, int]:
        """Buffered event count per ``category/event`` key."""
        tally: Counter = Counter(
            f"{e['category']}/{e['event']}" for e in self._events
        )
        return dict(sorted(tally.items()))

    def clear(self) -> None:
        """Drop all buffered events and reset the emission counter."""
        self._events.clear()
        self.emitted = 0

    # -- persistence ---------------------------------------------------

    def write_jsonl(self, path: str) -> int:
        """Write the buffered events to ``path`` as JSON Lines.

        Returns the number of events written.  The file is replaced
        atomically: a kill mid-write leaves the previous file intact.
        """
        atomic_write(
            path,
            "".join(
                json.dumps(event, sort_keys=True) + "\n"
                for event in self._events
            ),
        )
        return len(self._events)

    def __repr__(self) -> str:
        return (
            f"EventTrace({len(self._events)}/{self.capacity} buffered, "
            f"{self.emitted} emitted, categories={sorted(self.categories)})"
        )


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL event file written by :meth:`EventTrace.write_jsonl`.

    A missing file, or a line that is not valid JSON (a torn write),
    raises :class:`ConfigError` naming the file and the line.
    """
    events: List[Dict[str, Any]] = []
    try:
        with open(path) as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ConfigError(
                        f"event file {path!r}, line {number}: not valid "
                        f"JSON (torn write?): {exc}",
                        field="report.events",
                    ) from exc
    except OSError as exc:
        raise ConfigError(
            f"event file {path!r}: {exc}", field="report.events"
        ) from exc
    return events


def parse_categories(spec: Optional[str]) -> Optional[List[str]]:
    """Parse a CLI ``--trace-filter`` value (comma-separated categories).

    ``None`` or ``"all"`` selects every category.
    """
    if spec is None or spec.strip() in ("", "all"):
        return None
    return [part.strip() for part in spec.split(",") if part.strip()]
