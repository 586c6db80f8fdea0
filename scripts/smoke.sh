#!/usr/bin/env bash
# Smoke check through the real CLI entry points: invariant-checked
# simulations, a golden-model differential check, trace compilation,
# the bench gate, sampled and paired runs, observability reports, the
# docs gates, a parallel sweep and a chaos-injected one (at one and two
# workers) verified by the offline auditor, and one tiny end-to-end
# fault-injected campaign (crash + hang + checkpointed resume).  Exits
# non-zero on the first problem.  The tier-1 test suite runs on its own:
# PYTHONPATH=src python -m pytest -x -q -m "not slow"
#
# Usage: scripts/smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== full invariant checking on the PSB machine =="
python -m repro run health --machine psb --instructions 5000 \
    --invariants full

echo
echo "== full invariant checking through a duplicate-prediction streak =="
python -m repro run sis --machine psb --instructions 5000 --invariants full

echo
echo "== full invariant checking on a deeply booked bus (pooled sharing) =="
python -m repro run many_streams --machine psb-harmonic --instructions 4000 \
    --warmup 1000 --invariants full

echo
echo "== golden-model differential check =="
python -m repro check health --machine psb --instructions 5000

echo
echo "== trace compilation round trip =="
trace_dir="$(mktemp -d)"
python -m repro trace compile health --out "$trace_dir/health.rtb" \
    --instructions 2000
REPRO_TRACE_CACHE="$trace_dir/cache" python - "$trace_dir/health.rtb" <<'EOF'
import sys
from repro.trace import load_binary_trace_list
from repro.workloads import cache_path, cache_stats, cached_workload_trace
records = load_binary_trace_list(sys.argv[1])
assert len(records) == 2000, len(records)
print("smoke: compiled trace loads back", len(records), "records")
# A cold cache call builds the records once and compiles the same bytes.
cold = cached_workload_trace("health", seed=1, instructions=2000)
with open(sys.argv[1], "rb") as compiled, \
        open(cache_path("health", 1, 2000), "rb") as entry:
    assert entry.read() == compiled.read(), "cache entry != trace compile"
hit = cached_workload_trace("health", seed=1, instructions=2000)
assert hit == cold == records
assert cache_stats() == {"hits": 1, "misses": 1, "corrupt_recompiled": 0}, \
    cache_stats()
print("smoke: cold cache entry equals trace compile byte for byte;"
      " the hit returns equal records")
EOF
rm -rf "$trace_dir"

echo
echo "== bench fast path vs baseline (25% tolerance) =="
bench_out="$(mktemp -d)"
python -m repro bench --quick --out "$bench_out/BENCH_core.json" \
    --check benchmarks/BENCH_core.json
rm -rf "$bench_out"

echo
echo "== sampled simulation (SMARTS windows over fast-forward) =="
sample_dir="$(mktemp -d)"
python -m repro run health --machine psb --instructions 120000 \
    --sample 40000:1000:500 \
    --metrics --metrics-out "$sample_dir/metrics.json"
python -m repro report --metrics "$sample_dir/metrics.json" \
    --out "$sample_dir/sampled.md"
grep -q '## Sampling' "$sample_dir/sampled.md"
grep -q '95% CI' "$sample_dir/sampled.md"
# A sampled run has no metrics timeline, so no whole-run or last-window
# panel sits beside the stitched estimate.
if grep -q '## Hit-rate breakdown' "$sample_dir/sampled.md"; then
    echo "smoke: sampled report renders a hit-rate breakdown" >&2
    exit 1
fi
python - "$sample_dir/metrics.json" <<'EOF'
import json, sys
extra = json.load(open(sys.argv[1]))["result"]["extra"]
assert extra["sampled"] == 1.0, extra
assert extra["windows"] == 3.0, extra
assert extra["ff_instructions"] > 100000, extra
print("smoke: sampled run measured", int(extra["windows"]),
      "windows over", int(extra["ff_instructions"]), "fast-forwarded records")
EOF
# A demand prefetcher's queue through detuned sampled warming.
python -m repro run health --machine demand-markov --instructions 120000 \
    --sample 40000:1000:500 --warm-confidence --invariants full \
    --metrics --metrics-out "$sample_dir/markov.json"
python - "$sample_dir/markov.json" <<'EOF'
import json, sys
extra = json.load(open(sys.argv[1]))["result"]["extra"]
assert extra["windows"] == 3.0, extra
assert extra["invariant_checks"] > 0, extra
print("smoke: demand-markov sampled run warmed", int(extra["ff_l1_misses"]),
      "fast-forwarded misses under", int(extra["invariant_checks"]),
      "invariant checks")
EOF
# The psb controller's detuned warming (the tuned shape the sampling
# bench gates): one bulk predictor call and closed-form priority aging
# per fast-forward stretch.
python -m repro run health --machine psb --instructions 120000 \
    --sample 40000:1000:500 --sample-strata 4 --warm-confidence \
    --invariants full --metrics --metrics-out "$sample_dir/tuned.json"
python - "$sample_dir/tuned.json" <<'EOF'
import json, sys
extra = json.load(open(sys.argv[1]))["result"]["extra"]
assert extra["windows"] == 12.0, extra
assert extra["measured_instructions"] == 3000.0, extra
assert extra["ff_l1_misses"] > 0, extra
assert extra["invariant_checks"] > 0, extra
print("smoke: tuned psb sampled run measured", int(extra["windows"]),
      "windows after warming", int(extra["ff_l1_misses"]),
      "fast-forwarded misses at the detuned rate")
EOF
rm -rf "$sample_dir"

echo
echo "== observability: metrics, event trace, reports =="
obs_dir="$(mktemp -d)"
python -m repro run health --machine psb --instructions 5000 \
    --metrics --metrics-out "$obs_dir/metrics.json" \
    --trace-events "$obs_dir/ev.jsonl"
python -m repro report --metrics "$obs_dir/metrics.json" \
    --events "$obs_dir/ev.jsonl" --out "$obs_dir/report.md"
python -m repro report --metrics "$obs_dir/metrics.json" \
    --out "$obs_dir/report.html"
grep -q '## Hit-rate breakdown' "$obs_dir/report.md"
grep -q '| sb0 |' "$obs_dir/report.md"
grep -q 'busy cycles' "$obs_dir/report.md"
grep -q 'Predictor accuracy' "$obs_dir/report.md"
head -1 "$obs_dir/report.html" | grep -q '<!DOCTYPE html>'
echo "smoke: observability reports render"
rm -rf "$obs_dir"

echo
echo "== buffer-sharing mini-sweep (fixed vs harmonic) + report =="
sharing_dir="$(mktemp -d)"
python -m repro sweep many_streams --machines psb,psb-harmonic \
    --instructions 4000 --warmup 1000 --no-isolate \
    --campaign-dir "$sharing_dir/camp"
python -m repro report --campaign "$sharing_dir/camp" \
    --out "$sharing_dir/sharing.md"
grep -q 'psb-harmonic' "$sharing_dir/sharing.md"
python -m repro run many_streams --machine psb-harmonic \
    --instructions 4000 --warmup 1000 \
    --metrics --metrics-out "$sharing_dir/metrics.json"
python -m repro report --metrics "$sharing_dir/metrics.json" \
    --out "$sharing_dir/pool.md"
grep -q '## Buffer sharing (entry pool)' "$sharing_dir/pool.md"
grep -q 'free credit' "$sharing_dir/pool.md"
echo "smoke: buffer-sharing sweep + pool report render"
rm -rf "$sharing_dir"

echo
echo "== matched-pair sampled comparison + paired report panel =="
paired_dir="$(mktemp -d)"
python -m repro compare health --machines base,psb \
    --instructions 120000 --sample 40000:1000:500 \
    --paired-out "$paired_dir/camp/paired.json"
python -m repro report --campaign "$paired_dir/camp" \
    --out "$paired_dir/paired.md"
grep -q '## Paired sampling' "$paired_dir/paired.md"
grep -q 'window grid' "$paired_dir/paired.md"
echo "smoke: paired sampled comparison + report panel render"
rm -rf "$paired_dir"

echo
echo "== docs: links, snippets, documented commands, docstrings =="
python scripts/check_docs.py --run
python scripts/check_docstrings.py

echo
echo "== parallel sweep (--workers 2) =="
parallel_dir="$(mktemp -d)"
python -m repro sweep health --machines base,stride,psb,jouppi \
    --instructions 2000 --warmup 500 --workers 2 --progress \
    --campaign-dir "$parallel_dir"
python - "$parallel_dir" <<'EOF'
import json, os, sys
manifest = json.load(open(os.path.join(sys.argv[1], "manifest.json")))
assert manifest["status"] == "complete", manifest
assert manifest["ok"] == 4, manifest
assert manifest["failed"] == 0, manifest
assert manifest["policy"]["workers"] == 2, manifest
print("smoke: parallel sweep manifest checks passed")
EOF
rm -rf "$parallel_dir"

echo
echo "== chaos-injected sweep (--chaos-seed 7, 1 poisoned point) at 1 and 2 workers =="
chaos_dir="$(mktemp -d)"
for workers in 1 2; do
    python -m repro sweep health --machines base,stride,psb,jouppi \
        --instructions 2000 --warmup 500 --workers "$workers" --progress \
        --chaos-seed 7 --chaos-poison 1 --max-worker-kills 2 \
        --campaign-dir "$chaos_dir/workers$workers"
    python -m repro audit "$chaos_dir/workers$workers"
done
python - "$chaos_dir/workers1" "$chaos_dir/workers2" <<'EOF'
import json, os, sys
counters = []
for campaign_dir in sys.argv[1:]:
    manifest = json.load(open(os.path.join(campaign_dir, "manifest.json")))
    assert manifest["status"] == "complete", manifest
    assert manifest["ok"] == 3, manifest
    assert manifest["failed"] == 0, manifest
    assert manifest["poisoned"] == 1, manifest
    fired = manifest["chaos"]["counters"]
    assert fired["checkpoint_enospc"] == 1, fired
    assert fired["checkpoint_torn"] == 1, fired
    assert fired["worker_kills"] >= 1, fired
    assert fired["cache_corrupted"] >= 1, fired
    counters.append(fired)
# Every fault fires the same way at any worker count.
assert counters[0] == counters[1], counters
print("smoke: chaos sweep manifest + audit checks passed at 1 and 2 workers")
EOF
rm -rf "$chaos_dir"

echo
echo "== end-to-end campaign with fault injection =="
campaign_dir="$(mktemp -d)"
trap 'rm -rf "$campaign_dir"' EXIT

python examples/resilient_campaign.py \
    --instructions 2000 --campaign-dir "$campaign_dir"
echo
echo "== resume from checkpoint =="
python examples/resilient_campaign.py \
    --instructions 2000 --campaign-dir "$campaign_dir" --resume

python - "$campaign_dir" <<'EOF'
import json, os, sys
manifest = json.load(open(os.path.join(sys.argv[1], "manifest.json")))
assert manifest["status"] == "complete", manifest
assert manifest["ok"] == 3, manifest
assert manifest["failed"] == 2, manifest
assert manifest["resumed_from_checkpoint"] == 5, manifest
kinds = sorted(f["kind"] for f in manifest["failures"])
assert kinds == ["RunTimeoutError", "SimulationError"], kinds
print("smoke: campaign manifest checks passed")
EOF

echo
echo "smoke: OK"
