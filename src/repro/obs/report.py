"""Render metrics payloads and campaign manifests into run reports.

Input is the JSON document ``repro-sim run --metrics`` writes (see
:func:`repro.obs.metrics_payload`), optionally joined with a JSONL event
trace, or a campaign directory: the manifest ``repro-sim sweep`` keeps
there, or the ``paired.json`` that ``repro-sim compare --sample
--paired-out DIR/paired.json`` writes.  Output is a self-contained
markdown report — or single-file HTML via a small built-in converter —
with the evaluation views the paper leans on:

- hit-rate breakdown (L1 / stream buffer / L2 / memory, Figure 5 shape),
- bus occupancy timelines (busy-cycle deltas between samples),
- per-buffer hit/allocation tables and priority-counter traces
  (the Figure 7/8 dynamics),
- predictor accuracy over time,
- a demand miss-latency histogram.

Timelines are drawn as unicode sparklines so the report needs no
plotting dependency and renders in any terminal or browser.
"""

from __future__ import annotations

import html
import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

#: Format tag stamped into (and required of) every metrics payload.
PAYLOAD_FORMAT = "repro-obs-metrics-v1"

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def _load_json(path: str, what: str, field: str) -> Dict[str, Any]:
    """Read a report input that must hold one JSON object.

    A missing or unreadable file, a torn write and valid JSON that is
    not an object all raise :class:`ConfigError` naming ``what`` and
    ``path``; ``field`` tags the error.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"{what} {path!r}: {exc}", field=field) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{what} {path!r} is not valid JSON (torn write?): {exc}",
            field=field,
        ) from exc
    if not isinstance(payload, dict):
        raise ConfigError(
            f"{what} {path!r}: expected a JSON object, got "
            f"{type(payload).__name__}",
            field=field,
        )
    return payload


def load_metrics(path: str) -> Dict[str, Any]:
    """Load and validate a metrics payload written by ``run --metrics``."""
    payload = _load_json(path, "metrics file", "report.metrics")
    if payload.get("format") != PAYLOAD_FORMAT:
        raise ConfigError(
            f"metrics file {path!r}: expected format {PAYLOAD_FORMAT!r}, "
            f"got {payload.get('format')!r} — was it written by "
            f"'repro-sim run --metrics'?",
            field="report.metrics",
        )
    return payload


def sparkline(values: Sequence[float], width: int = 48) -> str:
    """Draw ``values`` as a fixed-width unicode sparkline.

    Longer series are downsampled by averaging evenly sized chunks; the
    vertical scale is min..max of the (downsampled) series.
    """
    if not values:
        return ""
    if len(values) > width:
        chunk = len(values) / width
        values = [
            _mean(values[int(i * chunk): max(int((i + 1) * chunk), int(i * chunk) + 1)])
            for i in range(width)
        ]
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _SPARK_LEVELS[0] * len(values)
    top = len(_SPARK_LEVELS) - 1
    return "".join(
        _SPARK_LEVELS[int((v - lo) / span * top + 0.5)] for v in values
    )


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _series(payload: Dict[str, Any], key: str) -> List[Tuple[int, float]]:
    """The ``(cycle, value)`` series of one metric from a payload."""
    return [
        (row["cycle"], row["values"][key])
        for row in payload.get("samples", ())
        if key in row.get("values", {})
    ]


def _deltas(series: List[Tuple[int, float]]) -> List[float]:
    """Per-interval increases of a cumulative series.

    Clamped at zero: the one negative step a warm-up stats reset causes
    would otherwise dominate the timeline's vertical scale.
    """
    return [max(0.0, b[1] - a[1]) for a, b in zip(series, series[1:])]


def _fmt(value: float) -> str:
    """Render a metric value compactly (integers without decimals)."""
    if value == int(value):
        return str(int(value))
    return f"{value:.4f}"


def _pct(numerator: float, denominator: float) -> str:
    if denominator <= 0:
        return "n/a"
    return f"{100.0 * numerator / denominator:.1f}%"


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    """A GitHub-flavoured markdown table as a list of lines."""
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return lines


# ---------------------------------------------------------------------------
# Single-run report
# ---------------------------------------------------------------------------


def run_report(
    payload: Dict[str, Any],
    events: Optional[List[Dict[str, Any]]] = None,
    title: str = "Run report",
) -> str:
    """Render one run's metrics payload (and optional events) to markdown."""
    final = payload.get("final", {})
    result = payload.get("result", {})
    meta = payload.get("meta", {})
    out: List[str] = [f"# {title}", ""]
    out.extend(_section_summary(meta, result, payload))
    out.extend(_section_sampling(result))
    out.extend(_section_hit_rates(final, result))
    out.extend(_section_stream_buffers(payload, final))
    out.extend(_section_buffer_sharing(payload, final))
    out.extend(_section_bus(payload, final))
    out.extend(_section_predictor(payload, final))
    out.extend(_section_latency(payload))
    if events is not None:
        out.extend(_section_events(events))
    return "\n".join(out).rstrip() + "\n"


def _section_summary(
    meta: Dict[str, Any], result: Dict[str, Any], payload: Dict[str, Any]
) -> List[str]:
    rows = []
    for label, key in (
        ("Workload", "workload"),
        ("Machine", "machine"),
        ("Seed", "seed"),
    ):
        if key in meta:
            rows.append((label, meta[key]))
    for label, key in (
        ("Instructions", "instructions"),
        ("Cycles", "cycles"),
        ("IPC", "ipc"),
        ("L1 miss rate", "l1_miss_rate"),
        ("Avg load latency", "avg_load_latency"),
        ("Prefetch accuracy", "prefetch_accuracy"),
        ("Prefetch coverage", "prefetch_coverage"),
    ):
        if key in result and result[key] is not None:
            value = result[key]
            rows.append((label, _fmt(float(value))))
    interval = payload.get("interval")
    samples = payload.get("samples", ())
    rows.append(("Samples", f"{len(samples)} (every {interval} cycles)"))
    lines = ["## Summary", ""]
    lines.extend(_table(("Quantity", "Value"), rows))
    lines.append("")
    return lines


def _section_sampling(result: Dict[str, Any]) -> List[str]:
    """The sampled-run panel: CI bar plus the per-window breakdown.

    Present only for results produced by the SMARTS-style sampling
    driver (``extra.sampled``); detailed runs render nothing here.
    """
    extra = result.get("extra", {})
    if not extra.get("sampled"):
        return []
    ipc = float(result.get("ipc", 0.0))
    ci = float(extra.get("ipc_ci95", 0.0))
    windows = int(extra.get("windows", 0))
    lines = ["## Sampling", ""]
    lines.append(
        f"Systematic sample: **{windows} windows** of "
        f"{_fmt(extra.get('sample_window', 0))} measured instructions "
        f"(+{_fmt(extra.get('sample_warmup', 0))} warm-up) every "
        f"{_fmt(extra.get('sample_period', 0))} records; "
        f"{_fmt(extra.get('ff_instructions', 0))} instructions "
        "fast-forwarded between windows."
    )
    lines.append("")
    strata = int(extra.get("sample_strata", 1))
    warm = bool(extra.get("sample_warm_confidence", 0.0))
    if strata > 1 or warm:
        knobs = []
        if strata > 1:
            knobs.append(
                f"stratified placement ({strata} sub-windows per period)"
            )
        if warm:
            knobs.append("timing-aware predictor warm-up")
        lines.append(f"Cold-start controls: {'; '.join(knobs)}.")
        lines.append("")
    lines.append(
        f"Estimated IPC **{ipc:.4f} ± {ci:.4f}** (95% CI over "
        "per-window IPC; the whole-trace estimate is "
        "instruction-weighted)."
    )
    lines.append("")
    rows = []
    ipcs = []
    for index in range(windows):
        key = f"win.{index}.ipc"
        if key not in extra:
            break  # rows past the export cap (_MAX_WINDOW_ROWS)
        ipcs.append(float(extra[key]))
        rows.append(
            (
                str(index),
                f"{extra[key]:.4f}",
                _fmt(extra.get(f"win.{index}.instructions", 0)),
                _fmt(extra.get(f"win.{index}.cycles", 0)),
                f"{extra.get(f'win.{index}.miss_rate', 0.0):.4f}",
            )
        )
    truncated = int(extra.get("windows_truncated", 0))
    if rows:
        if truncated or len(rows) < windows:
            dropped = truncated or windows - len(rows)
            lines.append(
                f"**{dropped} window row(s) not exported** (per-window "
                f"extras cap): the table shows the first {len(rows)} of "
                f"{windows} windows; the stitched estimate above covers "
                "all of them."
            )
            lines.append("")
        lines.extend(
            _table(
                ("Window", "IPC", "Instructions", "Cycles", "L1 miss rate"),
                rows,
            )
        )
        lines.append("")
    if len(ipcs) >= 2:
        lines.append(f"Window IPC over the trace: `{sparkline(ipcs)}`")
        lines.append("")
    return lines


def _section_hit_rates(
    final: Dict[str, float], result: Dict[str, Any]
) -> List[str]:
    accesses = final.get("hierarchy.demand_accesses", 0)
    if not accesses:
        return []
    l1_hits = accesses - final.get("hierarchy.demand_misses", 0)
    sb_hits = final.get("hierarchy.sb_hits", 0) + final.get(
        "hierarchy.sb_pending_hits", 0
    )
    l2 = final.get("hierarchy.demand_l2_fetches", 0)
    mem = final.get("hierarchy.demand_mem_fetches", 0)
    rows = [
        ("L1 cache", _fmt(l1_hits), _pct(l1_hits, accesses)),
        ("Stream buffers", _fmt(sb_hits), _pct(sb_hits, accesses)),
        ("L2 cache", _fmt(l2), _pct(l2, accesses)),
        ("Memory", _fmt(mem), _pct(mem, accesses)),
        ("Total demand accesses", _fmt(accesses), "100.0%"),
    ]
    lines = ["## Hit-rate breakdown", ""]
    lines.append(
        "Where demand loads were served (the Figure 5 view: stream-buffer "
        "hits are misses the prefetcher removed)."
    )
    lines.append("")
    lines.extend(_table(("Served by", "Accesses", "Share"), rows))
    lines.append("")
    return lines


def _buffer_components(final: Dict[str, float]) -> List[str]:
    names = sorted(
        {k.split(".")[0] for k in final if k.startswith("sb")},
        key=lambda s: int(s[2:]) if s[2:].isdigit() else 0,
    )
    return [n for n in names if n[2:].isdigit()]


def _section_stream_buffers(
    payload: Dict[str, Any], final: Dict[str, float]
) -> List[str]:
    buffers = _buffer_components(final)
    if not buffers:
        return []
    rows = []
    total_hits = sum(final.get(f"{b}.hits", 0) for b in buffers) or 1
    for b in buffers:
        hits = final.get(f"{b}.hits", 0)
        rows.append(
            (
                b,
                _fmt(final.get(f"{b}.allocations", 0)),
                _fmt(hits),
                _pct(hits, total_hits),
                _fmt(final.get(f"{b}.priority", 0)),
            )
        )
    lines = ["## Stream buffers", ""]
    lines.extend(
        _table(
            ("Buffer", "Allocations", "Hits", "Hit share", "Final priority"),
            rows,
        )
    )
    lines.append("")
    traces = []
    for b in buffers:
        series = _series(payload, f"{b}.priority")
        if len(series) >= 2:
            traces.append((b, sparkline([v for _, v in series])))
    if traces:
        lines.append("Priority-counter traces (sampled; Figure 7/8 dynamics):")
        lines.append("")
        lines.append("```")
        width = max(len(b) for b, _ in traces)
        for b, spark in traces:
            lines.append(f"{b:<{width}}  {spark}")
        lines.append("```")
        lines.append("")
    return lines


def _section_buffer_sharing(
    payload: Dict[str, Any], final: Dict[str, float]
) -> List[str]:
    """The shared-pool panel, present only under a pooled sharing policy.

    Fixed partitioning registers no ``pool.*`` metrics, so the section
    disappears rather than showing a table of zeros.
    """
    if "pool.allocated" not in final:
        return []
    grants = final.get("pool.acquires", 0) + final.get("pool.steals", 0)
    rows = [
        ("Entries in use", _fmt(final.get("pool.allocated", 0))),
        ("Grants from free credit", _fmt(final.get("pool.acquires", 0))),
        ("Grants by eviction (steals)", _fmt(final.get("pool.steals", 0))),
        ("Requests denied", _fmt(final.get("pool.denials", 0))),
        ("Entries released", _fmt(final.get("pool.releases", 0))),
        ("Live prefetches evicted", _fmt(final.get("pool.evicted_inflight", 0))),
        (
            "Steal share of grants",
            _pct(final.get("pool.steals", 0), grants or 1),
        ),
    ]
    lines = ["## Buffer sharing (entry pool)", ""]
    lines.extend(_table(("Pool statistic", "Value"), rows))
    lines.append("")
    series = _series(payload, "pool.allocated")
    if len(series) >= 2:
        lines.append("Pool occupancy trace (sampled):")
        lines.append("")
        lines.append("```")
        lines.append(sparkline([v for _, v in series]))
        lines.append("```")
        lines.append("")
    return lines


def _section_bus(payload: Dict[str, Any], final: Dict[str, float]) -> List[str]:
    interval = payload.get("interval") or 0
    lines: List[str] = []
    for component, label in (
        ("bus_l1_l2", "L1–L2 bus"),
        ("bus_l2_mem", "L2–memory bus"),
    ):
        key = f"{component}.busy_cycles"
        series = _series(payload, key)
        busy = final.get(key)
        if busy is None:
            continue
        if not lines:
            lines = ["## Bus occupancy", ""]
        deltas = _deltas(series)
        cycles = payload.get("result", {}).get("cycles", 0)
        summary = f"- **{label}**: {_fmt(busy)} busy cycles"
        if cycles:
            summary += f" ({_pct(busy, cycles)} of the run)"
        txn = final.get(f"{component}.transactions")
        if txn is not None:
            summary += f", {_fmt(txn)} transactions"
        lines.append(summary)
        if deltas and interval:
            peak = max(deltas)
            lines.append(
                f"  - occupancy per {interval}-cycle window "
                f"(peak {_pct(peak, interval)}): `{sparkline(deltas)}`"
            )
    if lines:
        lines.append("")
    return lines


def _section_predictor(
    payload: Dict[str, Any], final: Dict[str, float]
) -> List[str]:
    lines: List[str] = []
    rows = []
    for label, key in (
        ("Predictor trains", "predictor.trains"),
        ("Correct trains", "predictor.correct_trains"),
        ("Predictor accuracy", "predictor.accuracy"),
        ("Predictions made", "prefetcher.predictions_made"),
        ("Prefetches issued", "prefetcher.prefetches_issued"),
        ("Prefetches used", "prefetcher.prefetches_used"),
        ("Allocations", "prefetcher.allocations"),
        ("Allocations denied", "prefetcher.allocations_denied"),
    ):
        if key in final:
            rows.append((label, _fmt(final[key])))
    if not rows:
        return lines
    lines = ["## Predictor and prefetcher", ""]
    lines.extend(_table(("Quantity", "Value"), rows))
    lines.append("")
    series = _series(payload, "predictor.accuracy")
    if len(series) >= 2:
        lines.append(
            f"Accuracy over time: `{sparkline([v for _, v in series])}` "
            f"(cycles {series[0][0]}..{series[-1][0]})"
        )
        lines.append("")
    return lines


def _section_latency(payload: Dict[str, Any]) -> List[str]:
    hist = payload.get("histograms", {}).get("hierarchy.miss_latency")
    if not hist or not hist.get("total"):
        return []
    lines = ["## Demand miss latency", ""]
    lines.append(
        f"{hist['total']} misses, mean {hist['mean']:.1f} cycles."
    )
    lines.append("")
    buckets = hist.get("buckets", {})
    total = hist["total"]
    rows = [
        (label, str(count), _pct(count, total))
        for label, count in buckets.items()
        if count
    ]
    lines.extend(_table(("Bucket (cycles)", "Misses", "Share"), rows))
    lines.append("")
    return lines


def _section_events(events: List[Dict[str, Any]]) -> List[str]:
    lines = ["## Event trace", ""]
    if not events:
        lines.append("No events captured.")
        lines.append("")
        return lines
    tally: Dict[str, int] = {}
    for event in events:
        key = f"{event.get('category', '?')}/{event.get('event', '?')}"
        tally[key] = tally.get(key, 0) + 1
    rows = [(key, str(count)) for key, count in sorted(tally.items())]
    lines.append(
        f"{len(events)} events, cycles "
        f"{events[0].get('cycle')}..{events[-1].get('cycle')}."
    )
    lines.append("")
    lines.extend(_table(("Category/event", "Count"), rows))
    lines.append("")
    return lines


# ---------------------------------------------------------------------------
# Paired sampling
# ---------------------------------------------------------------------------


def paired_section(payload: Dict[str, Any]) -> List[str]:
    """The "Paired sampling" panel for a matched-pair comparison.

    ``payload`` is a :meth:`repro.sampling.paired.PairedResult.to_dict`
    manifest, as ``compare --sample --paired-out`` writes it.
    """
    if not payload.get("paired"):
        return []
    baseline = payload.get("baseline", "?")
    sample = payload.get("sample", {})
    results = payload.get("results", {})
    pairs = payload.get("pairs", {})
    window_rows = payload.get("window_rows", {})
    base_windows = len(window_rows.get(baseline, ()))
    lines = ["## Paired sampling", ""]
    lines.append(
        f"Matched-pair comparison against **{baseline}**: every machine "
        f"sampled over the same {base_windows}-window grid "
        f"({_fmt(sample.get('sample_window', 0))} measured instructions "
        f"every {_fmt(sample.get('sample_period', 0))} records) from one "
        "shared trace cursor, so the fast-forward cold-start bias is "
        "common to both legs and cancels in the IPC ratios."
    )
    lines.append("")
    rows = []
    for label, result in results.items():
        if label == baseline:
            rows.append(
                (label, f"{result.get('ipc', 0.0):.4f}",
                 "1.0000 (baseline)", "-", "-")
            )
            continue
        stats = pairs.get(label, {})
        rows.append(
            (
                label,
                f"{result.get('ipc', 0.0):.4f}",
                f"{stats.get('rel_ipc', 0.0):.4f}",
                f"{stats.get('speedup_percent', 0.0):+.1f}%",
                f"{stats.get('ratio_mean', 0.0):.4f} ± "
                f"{stats.get('ratio_ci95', 0.0):.4f} "
                f"(n={stats.get('windows', 0)})",
            )
        )
    lines.extend(
        _table(
            ("Machine", "Sampled IPC", "Rel. IPC", "Speedup",
             "Window ratio (95% CI)"),
            rows,
        )
    )
    lines.append("")
    for label, rows_ in window_rows.items():
        if label == baseline or len(rows_) < 2:
            continue
        base_rows = window_rows.get(baseline, ())
        ratios = [
            row["ipc"] / base_row["ipc"]
            for base_row, row in zip(base_rows, rows_)
            if base_row.get("ipc")
        ]
        if len(ratios) >= 2:
            lines.append(
                f"`{label}`/`{baseline}` window ratios: "
                f"`{sparkline(ratios)}`"
            )
    if lines[-1] != "":
        lines.append("")
    return lines


# ---------------------------------------------------------------------------
# Campaign report
# ---------------------------------------------------------------------------


def _load_campaign_file(path: str) -> Dict[str, Any]:
    """A campaign directory's ``manifest.json`` or ``paired.json``."""
    return _load_json(path, "campaign file", "report.campaign")


def campaign_report(campaign_dir: str) -> str:
    """Render a campaign directory's manifest to markdown.

    Needs the ``manifest.json`` that :class:`~repro.runner.campaign.
    CampaignRunner` maintains, or the ``paired.json`` of a matched-pair
    comparison, or both; per-point metrics appear when the sweep
    recorded them.
    """
    manifest_path = os.path.join(campaign_dir, "manifest.json")
    paired_path = os.path.join(campaign_dir, "paired.json")
    name = os.path.basename(os.path.abspath(campaign_dir))
    out: List[str] = [f"# Campaign report: {name}", ""]
    if not os.path.exists(manifest_path) and os.path.isfile(paired_path):
        # A matched-pair comparison (`compare --sample --paired-out
        # DIR/paired.json`) leaves only paired.json; render that panel
        # on its own.
        out.extend(paired_section(_load_campaign_file(paired_path)))
        return "\n".join(out).rstrip() + "\n"
    manifest = _load_campaign_file(manifest_path)
    rows = [
        ("Status", manifest.get("status", "?")),
        ("Total points", manifest.get("total_points", "?")),
        ("Completed", manifest.get("ok", "?")),
        ("Failed", manifest.get("failed", "?")),
        ("Resumed from checkpoint",
         manifest.get("resumed_from_checkpoint", 0)),
    ]
    out.extend(_table(("Quantity", "Value"), rows))
    out.append("")
    metrics = manifest.get("metrics", {})
    if metrics:
        out.append("## Per-point metrics")
        out.append("")
        any_sampled = any(point.get("sampled") for point in metrics.values())
        point_rows = []
        for run_id in sorted(metrics):
            point = metrics[run_id]
            ipc_cell = _fmt(point.get("ipc", 0.0))
            if point.get("sampled"):
                # A sampled point's IPC is an estimate: show its CI and
                # window count so it is never mistaken for an exact run.
                ipc_cell = (
                    f"{point.get('ipc', 0.0):.4f} ± "
                    f"{point.get('ipc_ci95', 0.0):.4f} "
                    f"(sampled, n={point.get('windows', 0)})"
                )
            point_rows.append(
                (
                    run_id,
                    ipc_cell,
                    _fmt(point.get("l1_miss_rate", 0.0)),
                    _fmt(point.get("prefetch_accuracy", 0.0)),
                    _fmt(point.get("cycles", 0)),
                )
            )
        out.extend(
            _table(
                ("Run", "IPC", "L1 miss rate", "Prefetch accuracy", "Cycles"),
                point_rows,
            )
        )
        if any_sampled:
            out.append("")
            out.append(
                "Sampled points report the instruction-weighted estimate "
                "with a 95% confidence interval over per-window IPC."
            )
        out.append("")
        ipcs = [(rid, metrics[rid].get("ipc", 0.0)) for rid in sorted(metrics)]
        if len(ipcs) >= 2:
            out.append(f"IPC across points: `{sparkline([v for _, v in ipcs])}`")
            out.append("")
    if os.path.isfile(paired_path):
        out.extend(paired_section(_load_campaign_file(paired_path)))
    failures = manifest.get("failures", [])
    if failures:
        out.append("## Failures")
        out.append("")
        for failure in failures[:20]:
            out.append(
                f"- `{failure.get('run_id', '?')}`: "
                f"{failure.get('kind', '?')} — {failure.get('message', '')}"
            )
        if len(failures) > 20:
            out.append(f"- … and {len(failures) - 20} more")
        out.append("")
    return "\n".join(out).rstrip() + "\n"


# ---------------------------------------------------------------------------
# HTML rendering
# ---------------------------------------------------------------------------

_HTML_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       max-width: 60rem; margin: 2rem auto; padding: 0 1rem; color: #1a202c; }
table { border-collapse: collapse; margin: 0.75rem 0; }
th, td { border: 1px solid #cbd5e0; padding: 0.3rem 0.7rem; text-align: left; }
th { background: #edf2f7; }
code, pre { font-family: 'SF Mono', Menlo, Consolas, monospace;
            background: #f7fafc; }
pre { padding: 0.75rem; border: 1px solid #e2e8f0; overflow-x: auto; }
h1, h2 { border-bottom: 1px solid #e2e8f0; padding-bottom: 0.25rem; }
"""


def markdown_to_html(markdown: str, title: str = "Run report") -> str:
    """Convert report markdown to a single self-contained HTML page.

    Deliberately minimal: it understands exactly the markdown this
    module emits, not the full spec.
    """
    body: List[str] = []
    lines = markdown.splitlines()
    index = 0
    while index < len(lines):
        line = lines[index]
        if line.startswith("```"):
            fence: List[str] = []
            index += 1
            while index < len(lines) and not lines[index].startswith("```"):
                fence.append(html.escape(lines[index]))
                index += 1
            body.append("<pre>" + "\n".join(fence) + "</pre>")
            index += 1
            continue
        if line.startswith("|"):
            table: List[str] = []
            while index < len(lines) and lines[index].startswith("|"):
                table.append(lines[index])
                index += 1
            body.append(_html_table(table))
            continue
        if line.startswith("#"):
            level = len(line) - len(line.lstrip("#"))
            text = _html_inline(line[level:].strip())
            body.append(f"<h{level}>{text}</h{level}>")
        elif line.startswith("- "):
            items: List[str] = []
            while index < len(lines) and lines[index].lstrip().startswith("- "):
                stripped = lines[index].lstrip()
                items.append(f"<li>{_html_inline(stripped[2:])}</li>")
                index += 1
            body.append("<ul>" + "".join(items) + "</ul>")
            continue
        elif line.strip():
            body.append(f"<p>{_html_inline(line.strip())}</p>")
        index += 1
    return (
        "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
        f"<title>{html.escape(title)}</title>\n"
        f"<style>{_HTML_CSS}</style>\n</head>\n<body>\n"
        + "\n".join(body)
        + "\n</body>\n</html>\n"
    )


def _html_inline(text: str) -> str:
    """Escape text and apply inline code/bold markup."""
    out: List[str] = []
    escaped = html.escape(text)
    for index, chunk in enumerate(escaped.split("`")):
        if index % 2:
            out.append(f"<code>{chunk}</code>")
        else:
            parts = chunk.split("**")
            for j, part in enumerate(parts):
                out.append(f"<strong>{part}</strong>" if j % 2 else part)
    return "".join(out)


def _html_table(rows: List[str]) -> str:
    out = ["<table>"]
    for row_index, row in enumerate(rows):
        cells = [c.strip() for c in row.strip().strip("|").split("|")]
        if row_index == 1 and all(set(c) <= {"-", ":", " "} for c in cells):
            continue
        tag = "th" if row_index == 0 else "td"
        out.append(
            "<tr>"
            + "".join(f"<{tag}>{_html_inline(c)}</{tag}>" for c in cells)
            + "</tr>"
        )
    out.append("</table>")
    return "".join(out)


def write_report(markdown: str, path: str, title: str = "Run report") -> str:
    """Write ``markdown`` to ``path``; ``.html``/``.htm`` renders HTML.

    Returns the kind written (``"html"`` or ``"markdown"``).
    """
    if path.lower().endswith((".html", ".htm")):
        with open(path, "w") as handle:
            handle.write(markdown_to_html(markdown, title))
        return "html"
    with open(path, "w") as handle:
        handle.write(markdown)
    return "markdown"
