"""Run reports: payload loading, markdown sections, HTML, campaigns."""

import json

import pytest

from repro.cli import MACHINES, main
from repro.errors import ConfigError
from repro.obs import EventTrace, metrics_payload
from repro.obs.report import (
    campaign_report,
    load_metrics,
    markdown_to_html,
    run_report,
    sparkline,
    write_report,
)
from repro.sim.simulator import Simulator
from repro.workloads import get_workload


#: The smallest payload ``load_metrics`` accepts.
_METRICS = json.dumps({"format": "repro-obs-metrics-v1"})


def _observed_run(tmp_path, machine="psb", instructions=6_000):
    trace = EventTrace()
    simulator = Simulator(
        MACHINES[machine]().with_metrics(500), event_trace=trace
    )
    result = simulator.run(
        get_workload("health", seed=1), max_instructions=instructions
    )
    payload = metrics_payload(
        simulator, result,
        meta={"workload": "health", "machine": machine, "seed": 1},
    )
    return payload, trace


class TestSparkline:
    def test_constant_series_is_flat(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_scales_to_range(self):
        line = sparkline([0.0, 1.0])
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_downsamples_to_width(self):
        assert len(sparkline(list(range(1000)), width=40)) == 40

    def test_empty(self):
        assert sparkline([]) == ""


class TestRunReport:
    def test_sections_present(self, tmp_path):
        payload, trace = _observed_run(tmp_path)
        document = run_report(payload, events=trace.events())
        for heading in (
            "## Summary",
            "## Hit-rate breakdown",
            "## Stream buffers",
            "## Bus occupancy",
            "## Predictor and prefetcher",
            "## Demand miss latency",
            "## Event trace",
        ):
            assert heading in document, heading
        # Acceptance criteria: per-buffer hit rates, bus occupancy
        # timeline, predictor accuracy.
        assert "| sb0 |" in document
        assert "busy cycles" in document
        assert "Predictor accuracy" in document

    def test_no_prefetcher_run_omits_buffer_sections(self, tmp_path):
        payload, __ = _observed_run(tmp_path, machine="base")
        document = run_report(payload)
        assert "## Stream buffers" not in document
        assert "## Hit-rate breakdown" in document

    def test_load_metrics_round_trip(self, tmp_path):
        payload, __ = _observed_run(tmp_path)
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(payload))
        assert load_metrics(str(path))["format"] == payload["format"]

    def test_load_metrics_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ConfigError):
            load_metrics(str(path))

    def test_load_metrics_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_metrics(str(tmp_path / "absent.json"))

    def test_load_metrics_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_metrics(str(path))


class TestHtml:
    def test_markdown_to_html_self_contained(self, tmp_path):
        payload, trace = _observed_run(tmp_path)
        document = run_report(payload, events=trace.events())
        page = markdown_to_html(document, title="t")
        assert page.startswith("<!DOCTYPE html>")
        assert "<style>" in page
        assert "<table>" in page
        assert "<h2>Stream buffers</h2>" in page

    def test_inline_markup(self):
        page = markdown_to_html("plain `code` and **bold** text")
        assert "<code>code</code>" in page
        assert "<strong>bold</strong>" in page

    def test_escapes_html(self):
        page = markdown_to_html("a <script> tag")
        assert "<script>" not in page
        assert "&lt;script&gt;" in page

    def test_write_report_picks_format_by_extension(self, tmp_path):
        markdown = "# Title\n\nbody\n"
        md_path = str(tmp_path / "r.md")
        html_path = str(tmp_path / "r.html")
        assert write_report(markdown, md_path) == "markdown"
        assert write_report(markdown, html_path) == "html"
        assert open(md_path).read() == markdown
        assert open(html_path).read().startswith("<!DOCTYPE html>")


class TestCampaignReport:
    def test_renders_manifest_metrics(self, tmp_path):
        campaign = tmp_path / "camp"
        campaign.mkdir()
        (campaign / "manifest.json").write_text(json.dumps({
            "status": "complete",
            "total_points": 2,
            "ok": 1,
            "failed": 1,
            "resumed_from_checkpoint": 0,
            "failures": [
                {"run_id": "health/psb", "kind": "RunTimeoutError",
                 "message": "timed out", "attempts": 2},
            ],
            "metrics": {
                "health/base": {
                    "ipc": 0.07, "cycles": 1000, "instructions": 70,
                    "l1_miss_rate": 0.4, "prefetch_accuracy": 0.0,
                },
            },
        }))
        document = campaign_report(str(campaign))
        assert "## Per-point metrics" in document
        assert "health/base" in document
        assert "## Failures" in document
        assert "RunTimeoutError" in document

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            campaign_report(str(tmp_path))

    # A paired-only directory (``compare --sample --paired-out``) has
    # no manifest.json, so its paired.json is the file read.
    @pytest.mark.parametrize("name", ["manifest.json", "paired.json"])
    def test_torn_campaign_file_is_a_clean_error(self, tmp_path, capsys,
                                                 name):
        (tmp_path / name).write_text('{"status": "compl')
        with pytest.raises(ConfigError, match=name):
            campaign_report(str(tmp_path))
        assert main(["report", "--campaign", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-sim: error:")
        assert "Traceback" not in err


class TestCliRoundTrip:
    def test_run_metrics_then_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "run", "health", "--instructions", "4000",
            "--metrics", "--trace-events", "ev.jsonl",
        ]) == 0
        assert main(["report", "--events", "ev.jsonl"]) == 0
        document = (tmp_path / "report.md").read_text()
        assert "## Stream buffers" in document
        assert "## Event trace" in document

    def test_report_html_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "run", "health", "--instructions", "4000", "--metrics",
        ]) == 0
        assert main(["report", "--out", "report.html"]) == 0
        assert (tmp_path / "report.html").read_text().startswith(
            "<!DOCTYPE html>"
        )

    def test_trace_filter_flag(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "run", "health", "--instructions", "4000",
            "--trace-events", "ev.jsonl", "--trace-filter", "prefetch",
        ]) == 0
        lines = (tmp_path / "ev.jsonl").read_text().splitlines()
        assert lines
        assert all(json.loads(l)["category"] == "prefetch" for l in lines)

    def test_report_missing_metrics_errors_cleanly(self, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["report"]) == 1
        assert "metrics" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "files, argv, named",
        [
            pytest.param(
                {"metrics.json": _METRICS, "ev.jsonl": '{"cycle": 1}\n{"cyc'},
                ["--events", "ev.jsonl"], ("ev.jsonl", "line 2"),
                id="torn-events",
            ),
            pytest.param(
                {"metrics.json": _METRICS},
                ["--events", "absent.jsonl"], ("absent.jsonl",),
                id="missing-events",
            ),
            pytest.param(
                {"metrics.json": "[1, 2]"}, [], ("metrics.json", "object"),
                id="metrics-not-an-object",
            ),
            pytest.param(
                {"camp/manifest.json": "[]"}, ["--campaign", "camp"],
                ("manifest.json", "object"),
                id="manifest-not-an-object",
            ),
            pytest.param(
                {
                    "camp/manifest.json": '{"status": "complete"}',
                    "camp/paired.json": '{"paired": tr',
                },
                ["--campaign", "camp"], ("paired.json",),
                id="torn-paired-beside-manifest",
            ),
        ],
    )
    def test_bad_input_errors_cleanly(
        self, tmp_path, monkeypatch, capsys, files, argv, named
    ):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            path = tmp_path / name
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
        assert main(["report", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-sim: error:")
        assert "Traceback" not in err
        for fragment in named:
            assert fragment in err

    def test_campaign_report_cli(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "sweep", "health", "--machines", "base", "--campaign-dir",
            "camp", "--instructions", "2000", "--no-isolate",
        ]) == 0
        assert main([
            "report", "--campaign", "camp", "--out", "camp.md",
        ]) == 0
        assert "Per-point metrics" in (tmp_path / "camp.md").read_text()
