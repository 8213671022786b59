#!/usr/bin/env bash
# One-command gate for builders: the tier-1 test suite (twice: serial
# and under threaded shard execution; pyproject.toml turns every
# DeprecationWarning into a failure in both) plus seconds-scale smoke
# runs of the Fig. 1 pipeline bench, the X9
# parallel-shards bench, the X10 async-ingestion bench, the X11
# autoscale-convergence bench, the X12 elastic-resharding bench, the
# X13 multi-tenant-gateway bench, the X14 tracing-overhead bench, the
# X15 semantic-tier bench, the X16 profiling-overhead bench (with a
# schema check of every machine-readable BENCH_*.json snapshot the
# smokes wrote plus the EVAL_semantic_tier.json quality table), a
# smoke of bench_e2e (the benchmark BENCHMARK.json declares: five
# workloads checked against the serial per-record oracle), the
# perf-trajectory gate (TRAJECTORY.jsonl schema, the perf_diff
# self-test proving the gate fires, then the real latest-vs-median
# diff), a spec-file-driven CLI pipeline run (examples/pipeline.toml)
# and a second one with the semantic-tier `lof` detector, a
# telemetry-exposition smoke (`repro stats` JSON + a --metrics-port
# Prometheus scrape over real HTTP), a profiling smoke (`repro
# profile` JSON hotspots + a collapsed-stack dump), a tracing smoke
# (`repro pipeline --trace` then `repro explain` on the first alert
# id), a /healthz + /readyz probe of a live `repro serve --once`, and
# a framed-TLS `repro serve` round-trip over an ephemeral self-signed
# certificate.
#
#   scripts/check.sh            # full gate
#   scripts/check.sh -k drain   # extra args go to the tier-1 pytest
#
# The tier-1 invocation matches ROADMAP.md exactly; the second run
# exports MONILOG_EXECUTOR=thread (the suite-wide equivalent of the
# CLI's --executor flag) so every default-constructed sharded runtime
# executes its shards on a thread pool — results must not change, and
# a run that deadlocks, races, or diverges here is a concurrency
# regression.  The ingestion tests additionally run as their own
# threaded pass: the async front-end layers an event loop over the
# executor machinery, which is exactly where loop/pool interactions
# would deadlock.  Bench smokes run with MONILOG_BENCH_SMOKE=1
# (shrunken fixtures, see benchmarks/conftest.py) so each finishes in
# seconds while still exercising the full parse → detect → classify
# path, the sharded runtime, the >=1.5x concurrent-shard throughput
# claim, and X10's >=2x concurrent-ingestion claim with byte-identical
# alerts.
#
# A green run leaves the working tree as it found it: the bench smokes
# append to a temporary copy of benchmarks/results/TRAJECTORY.jsonl
# (MONILOG_BENCH_TRAJECTORY, honoured by benchmarks/conftest.py), the
# trajectory gate reads that copy, and the last step fails if
# `git status --porcelain` differs from what it was at the start.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
tree_before="$(git status --porcelain 2> /dev/null || true)"
spec_tmp="$(mktemp -d)"
trap 'rm -rf "$spec_tmp"' EXIT

echo "== tier-1: python -m pytest -x -q =="
python -m pytest -x -q "$@"

echo
echo "== tier-1 under the threaded executor: MONILOG_EXECUTOR=thread =="
MONILOG_EXECUTOR=thread python -m pytest -x -q "$@"

# The threaded tier-1 pass above already collects every ingestion
# test; re-run them explicitly only when the caller filtered tier-1
# (e.g. `check.sh -k drain`), so the async-over-executor coverage is
# never silently deselected but default runs pay for it once.
if [ "$#" -gt 0 ]; then
    echo
    echo "== ingestion tests under the threaded executor =="
    MONILOG_EXECUTOR=thread python -m pytest -x -q \
        tests/test_ingest_merge.py tests/test_ingest_sources.py \
        tests/test_ingest_service.py tests/test_ingest_failures.py
fi

trajectory="$spec_tmp/TRAJECTORY.jsonl"
cp benchmarks/results/TRAJECTORY.jsonl "$trajectory"
export MONILOG_BENCH_TRAJECTORY="$trajectory"

echo
echo "== smoke: benchmarks/bench_fig1_pipeline.py =="
MONILOG_BENCH_SMOKE=1 python -m pytest benchmarks/bench_fig1_pipeline.py \
    -q -p no:cacheprovider --benchmark-disable

echo
echo "== smoke: benchmarks/bench_x9_parallel_shards.py =="
MONILOG_BENCH_SMOKE=1 python -m pytest benchmarks/bench_x9_parallel_shards.py \
    -q -p no:cacheprovider --benchmark-disable

echo
echo "== smoke: benchmarks/bench_x10_async_ingestion.py =="
MONILOG_BENCH_SMOKE=1 python -m pytest \
    benchmarks/bench_x10_async_ingestion.py \
    -q -p no:cacheprovider --benchmark-disable

echo
echo "== smoke: benchmarks/bench_x11_autoscale.py =="
MONILOG_BENCH_SMOKE=1 python -m pytest \
    benchmarks/bench_x11_autoscale.py \
    -q -p no:cacheprovider --benchmark-disable

echo
echo "== smoke: benchmarks/bench_x12_elastic_resharding.py =="
MONILOG_BENCH_SMOKE=1 python -m pytest \
    benchmarks/bench_x12_elastic_resharding.py \
    -q -p no:cacheprovider --benchmark-disable

echo
echo "== smoke: benchmarks/bench_x13_multitenant_gateway.py =="
MONILOG_BENCH_SMOKE=1 python -m pytest \
    benchmarks/bench_x13_multitenant_gateway.py \
    -q -p no:cacheprovider --benchmark-disable

echo
echo "== smoke: benchmarks/bench_x14_tracing_overhead.py =="
MONILOG_BENCH_SMOKE=1 python -m pytest \
    benchmarks/bench_x14_tracing_overhead.py \
    -q -p no:cacheprovider --benchmark-disable

echo
echo "== smoke: benchmarks/bench_x15_semantic_tier.py =="
MONILOG_BENCH_SMOKE=1 python -m pytest \
    benchmarks/bench_x15_semantic_tier.py \
    -q -p no:cacheprovider --benchmark-disable

echo
echo "== smoke: benchmarks/bench_x16_profiling_overhead.py =="
MONILOG_BENCH_SMOKE=1 python -m pytest \
    benchmarks/bench_x16_profiling_overhead.py \
    -q -p no:cacheprovider --benchmark-disable

# The benches persist machine-readable snapshots next to their printed
# tables (benchmarks/conftest.py `snapshot` fixture); validate every
# BENCH_*.json against the shared schema — a `smoke` bool plus numeric
# headline fields (optionally one level of nested numeric tables) — so
# CI can diff the numbers across runs, then pin the two headline
# claims of the newest subsystems.
python -c '
import glob, json
paths = sorted(glob.glob("benchmarks/results/BENCH_*.json"))
assert paths, "bench smokes wrote no snapshots"
for path in paths:
    with open(path) as fh:
        payload = json.load(fh)
    assert isinstance(payload.get("smoke"), bool), path
    for key, value in payload.items():
        if key == "smoke":
            continue
        if isinstance(value, dict):
            assert all(isinstance(inner, (int, float)) and
                       not isinstance(inner, bool)
                       for inner in value.values()), (path, key)
        else:
            assert isinstance(value, (int, float)) and \
                not isinstance(value, bool), (path, key)
with open("benchmarks/results/BENCH_x12_elastic_resharding.json") as fh:
    assert json.load(fh)["speedup"] >= 1.5
with open("benchmarks/results/BENCH_x13_multitenant_gateway.json") as fh:
    x13 = json.load(fh)
assert x13["noisy_credit_waits"] > 0, x13
ratio = x13["quiet_noisy_ratio"]
assert ratio <= 0.75, x13
with open("benchmarks/results/BENCH_x14_tracing_overhead.json") as fh:
    x14 = json.load(fh)
tratio = x14["throughput_ratio"]
assert tratio >= 0.95, x14
assert x14["explained"] == x14["alerts"] > 0, x14
with open("benchmarks/results/BENCH_x15_semantic_tier.json") as fh:
    x15 = json.load(fh)
assert x15["cache_speedup"] >= 5.0, x15
assert x15["embeds_double"] == x15["embeds_single"] == x15["templates"], x15
# lof scores are threshold-normalized (>= 1.0 means anomalous); the
# pca score is its raw Q-statistic, so pin its verdict, not its scale.
assert x15["lof_planted_score"] >= 1.0, x15
assert x15["pca_planted_anomalous"] == 0, x15
# The quality table rides along as EVAL_semantic_tier.json: per-dataset
# per-detector precision/recall/f1, every value a probability.
with open("benchmarks/results/EVAL_semantic_tier.json") as fh:
    quality = json.load(fh)
assert isinstance(quality.get("smoke"), bool), quality
datasets = quality["datasets"]
assert set(datasets) == {"bgl", "hdfs"}, sorted(datasets)
for dataset, per_detector in datasets.items():
    assert {"lof", "rollingwindow"} <= set(per_detector), (
        dataset, sorted(per_detector))
    for detector, row in per_detector.items():
        assert {"precision", "recall", "f1"} <= set(row), (dataset, detector)
        for metric, value in row.items():
            assert isinstance(value, (int, float)) and 0.0 <= value <= 1.0, \
                (dataset, detector, metric, value)
with open("benchmarks/results/BENCH_x16_profiling_overhead.json") as fh:
    x16 = json.load(fh)
pratio = x16["throughput_ratio"]
attributed = x16["attributed_fraction"]
assert pratio >= 0.95, x16
assert attributed >= 0.8, x16
assert x16["identity_cells"] == 6 and x16["alerts"] > 0, x16
speedup = x15["cache_speedup"]
print(f"{len(paths)} bench snapshots well-formed "
      f"(x13 quiet/noisy drain ratio {ratio:.2f}, "
      f"x14 traced throughput ratio {tratio:.2f}, "
      f"x15 cache speedup {speedup:.1f}x, "
      f"x16 profiled throughput ratio {pratio:.2f} at "
      f"{attributed:.0%} attribution); "
      f"EVAL quality table covers {len(datasets)} datasets x "
      f"{len(next(iter(datasets.values())))} detectors")'

# bench_e2e is the benchmark a Pipeline change is judged by
# (BENCHMARK.json): one short pass of each of its five workloads —
# four run the pipeline dark, gateway_live runs it with telemetry on —
# exits non-zero when any pass's alerts differ from the serial
# per-record oracle or the load generator ran late.  Numbers from a
# smoke are never compared; this gates correctness only.
echo
echo "== smoke: benchmarks/e2e/run.py --smoke (bytes in -> alerts out) =="
python3 benchmarks/e2e/run.py --smoke

# The bench smokes above appended their headline numbers to the copy
# of the perf-trajectory ledger; validate every line against the shared
# schema, prove the regression gate can fire (self-test synthesizes a
# regression in a scratch ledger and demands a non-zero exit), then
# gate the copy: the latest entry of each bench against the
# median of its own history, per-metric, within tolerance bands.
echo
echo "== perf trajectory: schema + self-test + regression gate =="
python -c '
import os
from repro.perf.trajectory import load_entries
entries = load_entries(os.environ["MONILOG_BENCH_TRAJECTORY"])
assert entries, "the bench smokes appended no trajectory entries"
for entry in entries:  # load_entries schema-checks; assert the shape
    assert isinstance(entry["bench"], str) and entry["bench"]
    assert isinstance(entry["sha"], str)
    assert isinstance(entry["smoke"], bool)
    assert entry["metrics"] and all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in entry["metrics"].values())
benches = {entry["bench"] for entry in entries}
print(f"TRAJECTORY.jsonl well-formed: {len(entries)} entries, "
      f"{len(benches)} benches")'
python scripts/perf_diff.py --self-test
python scripts/perf_diff.py --trajectory "$trajectory"

echo
echo "== smoke: repro pipeline --spec examples/pipeline.toml =="
python -m repro generate --dataset cloud --sessions 60 --anomaly-rate 0.0 \
    --seed 1 --output "$spec_tmp/history.log" > /dev/null
python -m repro generate --dataset cloud --sessions 30 --anomaly-rate 0.1 \
    --seed 2 --output "$spec_tmp/live.log" > /dev/null
python -m repro pipeline --history "$spec_tmp/history.log" \
    --live "$spec_tmp/live.log" --spec examples/pipeline.toml \
    | tail -n 1

echo
echo "== smoke: repro pipeline --spec with the semantic-tier lof detector =="
# The semantic tier resolves from an ordinary spec like any detector:
# same pipeline, `detector = "lof"` — end-to-end through the CLI.
cat > "$spec_tmp/lof.toml" << 'TOML'
detector = "lof"
session_timeout = 30.0
[detector_options]
k = 3
TOML
python -m repro pipeline --history "$spec_tmp/history.log" \
    --live "$spec_tmp/live.log" --spec "$spec_tmp/lof.toml" \
    | tail -n 1

echo
echo "== smoke: repro stats (JSON snapshot + Prometheus scrape) =="
# The JSON surface must parse and carry the pipeline counters...
python -m repro stats --history "$spec_tmp/history.log" \
    --live "$spec_tmp/live.log" 2> /dev/null \
    | python -c '
import json, sys
snapshot = json.load(sys.stdin)
metrics = snapshot["metrics"]
assert "monilog_records_parsed_total" in metrics, sorted(metrics)
assert metrics["monilog_parse_seconds"]["values"][0]["count"] > 0
print(f"stats JSON well-formed: {len(metrics)} metric families")'
# ...and --metrics-port --scrape must serve a well-formed Prometheus
# exposition through a real HTTP round-trip (server + urllib client).
python -m repro stats --history "$spec_tmp/history.log" \
    --live "$spec_tmp/live.log" --metrics-port 0 --scrape --autoscale \
    2> /dev/null \
    | python -c '
import sys
text = sys.stdin.read()
assert text.startswith("# HELP "), text[:80]
assert "# TYPE monilog_records_parsed_total counter" in text
assert "monilog_parse_seconds_bucket{le=" in text
assert "monilog_autoscale_ticks_total 1" in text
for line in text.splitlines():
    if line and not line.startswith("#"):
        float(line.rpartition(" ")[2])
print(f"Prometheus exposition well-formed: {len(text.splitlines())} lines")'

echo
echo "== smoke: repro profile (stage-attributed hotspots + collapsed dump) =="
# The profiling CLI end to end: force the sampler on at a high rate,
# drain repeatedly so it accumulates samples, and demand the JSON
# profile carries stage-attributed samples plus a well-formed
# collapsed-stack dump (every line "frame;frame;... count").  One pass
# over the 148-line live file takes ~1 ms and the sampler achieves
# ~130 of the 500 Hz, so 10 passes gave two samples — one of them
# always the final join — and the stage assertion below failed about
# one run in ten; 500 passes (~0.3 s) give ~30.
python -m repro profile --history "$spec_tmp/history.log" \
    --live "$spec_tmp/live.log" --detector keyword --profile-hz 500 \
    --repeat 500 --json --collapsed "$spec_tmp/collapsed.txt" \
    2> /dev/null \
    | python -c '
import json, sys
profile = json.load(sys.stdin)
stats = profile["stats"]
assert stats["samples"] > 0, stats
stages = set()
for key in stats["stage_samples"]:
    tenant, _, stage = key.rpartition("/")
    stages.add(stage)
assert stages & {"parse", "sessionize", "detect", "classify", "fit"}, stats
assert profile["hotspots"], "no hotspot stacks ranked"
samples = stats["samples"]
print(f"profile JSON well-formed: {samples} samples "
      f"across stages {sorted(stages)}")'
python -c '
import sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, "collapsed dump is empty"
for line in lines:
    stack, _, count = line.rpartition(" ")
    assert stack and int(count) > 0, line
print(f"collapsed dump well-formed: {len(lines)} stacks")' \
    "$spec_tmp/collapsed.txt"

echo
echo "== smoke: repro pipeline --trace -> repro explain (alert provenance) =="
# End-to-end causality: trace a run, dump the span + provenance JSON,
# and resolve the first printed alert id back to source offsets and
# template ids through `repro explain` — plus byte-identity of the
# alert lines against the same run untraced.
trace_out="$(python -m repro pipeline --history "$spec_tmp/history.log" \
    --live "$spec_tmp/live.log" --detector keyword \
    --trace --trace-dump "$spec_tmp/trace.json")"
dark_out="$(python -m repro pipeline --history "$spec_tmp/history.log" \
    --live "$spec_tmp/live.log" --detector keyword)"
[ "$(echo "$trace_out" | grep 'pool=')" = "$(echo "$dark_out" | grep 'pool=')" ] \
    || { echo "tracing changed the printed alerts"; exit 1; }
alert_id="$(echo "$trace_out" | grep -o 'report #[0-9]*' | head -n 1 \
    | grep -o '[0-9]*')"
[ -n "$alert_id" ] || { echo "traced run produced no alerts"; exit 1; }
explain_out="$(python -m repro explain "$alert_id" \
    --trace-file "$spec_tmp/trace.json")"
echo "$explain_out" | grep -q "alert #$alert_id" \
    || { echo "explain did not resolve alert #$alert_id"; exit 1; }
echo "$explain_out" | grep -q "source offsets:" \
    || { echo "explain carried no source offsets"; exit 1; }
echo "$explain_out" | grep -q "templates (" \
    || { echo "explain carried no template inventory"; exit 1; }
echo "alert #$alert_id explained to offsets + templates; traced run byte-identical"

echo
echo "== smoke: /healthz + /readyz during repro serve --once =="
# Liveness/readiness over real HTTP while the gateway serves: a plain
# framed-socket emitter holds its connection open a few seconds so the
# serve stays up long enough to probe both endpoints.
python - "$spec_tmp/plainport" << 'PY' &
import asyncio, sys
from repro.ingest import render_framed_record
from repro.logs.record import LogRecord, Severity

portfile = sys.argv[1]
records = []
for session in range(6):
    sid = f"s{session}"
    messages = [f"request {session * 10 + i} handled fine" for i in range(5)]
    if session == 4:
        messages[2:2] = ["backend timeout error detected"] * 3
    for sequence, message in enumerate(messages):
        records.append(LogRecord(
            timestamp=float(session * 100 + sequence), source="shipper",
            severity=Severity.ERROR if "error" in message else Severity.INFO,
            message=message, session_id=sid, sequence=sequence))

async def main():
    served = asyncio.Event()

    async def handle(reader, writer):
        for record in records:
            writer.write(render_framed_record(record, tenant="acme"))
        await writer.drain()
        # Hold the stream open so --once keeps serving while the
        # health probes run, then close to let it drain and exit.
        await asyncio.sleep(3.0)
        writer.close()
        served.set()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    with open(portfile, "w") as handle_:
        handle_.write(str(server.sockets[0].getsockname()[1]))
    try:
        await asyncio.wait_for(served.wait(), timeout=30)
    finally:
        server.close()
        await server.wait_closed()

asyncio.run(main())
PY
health_emitter_pid=$!
for _ in $(seq 1 100); do
    [ -s "$spec_tmp/plainport" ] && break
    sleep 0.1
done
[ -s "$spec_tmp/plainport" ] || { echo "health emitter never bound"; exit 1; }
cat > "$spec_tmp/health.toml" << TOML
detector = "keyword"
session_timeout = 10.0
history = "$spec_tmp/history.log"
[telemetry]
tracing = true
[tenants.acme]
[[tenants.acme.sources]]
type = "socket"
host = "127.0.0.1"
port = $(cat "$spec_tmp/plainport")
framing = "framed"
TOML
python -m repro serve --spec "$spec_tmp/health.toml" --once \
    --metrics-port 0 > "$spec_tmp/serve.out" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q "serving metrics on" "$spec_tmp/serve.out" 2> /dev/null && break
    sleep 0.1
done
metrics_url="$(grep -o 'http://[^/]*' "$spec_tmp/serve.out" | head -n 1)"
[ -n "$metrics_url" ] || { echo "serve never announced its endpoint"; exit 1; }
python - "$metrics_url" << 'PY'
import json, sys, time, urllib.error, urllib.request
url = sys.argv[1]
with urllib.request.urlopen(f"{url}/healthz", timeout=10) as response:
    assert json.load(response)["status"] == "alive"
# Readiness converges once the ingest loop beats and the socket source
# connects; poll until it does (the emitter holds the stream open).
deadline = time.monotonic() + 10.0
body = None
while time.monotonic() < deadline:
    try:
        with urllib.request.urlopen(f"{url}/readyz", timeout=10) as response:
            body = json.load(response)
    except urllib.error.HTTPError as error:
        body = json.load(error)
    if (body["status"] == "ready"
            and any(probe.endswith("ingest") for probe in body["probes"])):
        break
    time.sleep(0.1)
assert body is not None and body["status"] == "ready", body
assert any(probe.endswith("ingest") for probe in body["probes"]), body
print(f"healthz alive, readyz ready ({len(body['probes'])} probes)")
PY
wait "$serve_pid"
wait "$health_emitter_pid"
grep -q "tenant=acme" "$spec_tmp/serve.out" \
    || { echo "no tenant-tagged alert during the health smoke"; exit 1; }
echo "health probes answered during a live serve"

echo
echo "== smoke: repro serve (framed TLS socket -> multi-tenant gateway) =="
# End-to-end secure ingestion: mint an ephemeral self-signed cert,
# stream framed records through a real TLS socket in the background,
# and drain it with `repro serve --once` over a [tenants.*] spec —
# the full tenant-tagged alert path under real ssl.
if command -v openssl > /dev/null 2>&1; then
    openssl req -x509 -newkey rsa:2048 -keyout "$spec_tmp/key.pem" \
        -out "$spec_tmp/cert.pem" -days 1 -nodes -subj "/CN=localhost" \
        -addext "subjectAltName=DNS:localhost,IP:127.0.0.1" \
        > /dev/null 2>&1
    python - "$spec_tmp/cert.pem" "$spec_tmp/key.pem" "$spec_tmp/port" << 'PY' &
import asyncio, ssl, sys
from repro.ingest import render_framed_record
from repro.logs.record import LogRecord, Severity

cert, key, portfile = sys.argv[1:4]
records = []
for session in range(6):
    sid = f"s{session}"
    messages = [f"request {session * 10 + i} handled fine" for i in range(5)]
    if session == 4:
        messages[2:2] = ["backend timeout error detected"] * 3
    for sequence, message in enumerate(messages):
        records.append(LogRecord(
            timestamp=float(session * 100 + sequence), source="shipper",
            severity=Severity.ERROR if "error" in message else Severity.INFO,
            message=message, session_id=sid, sequence=sequence))

async def main():
    served = asyncio.Event()

    async def handle(reader, writer):
        for record in records:
            writer.write(render_framed_record(record, tenant="acme"))
        await writer.drain()
        writer.close()
        served.set()

    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    server = await asyncio.start_server(handle, "127.0.0.1", 0, ssl=context)
    with open(portfile, "w") as handle_:
        handle_.write(str(server.sockets[0].getsockname()[1]))
    try:
        await asyncio.wait_for(served.wait(), timeout=30)
    finally:
        server.close()
        await server.wait_closed()

asyncio.run(main())
PY
    emitter_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$spec_tmp/port" ] && break
        sleep 0.1
    done
    [ -s "$spec_tmp/port" ] || { echo "TLS emitter never bound"; exit 1; }
    cat > "$spec_tmp/gateway.toml" << TOML
detector = "keyword"
session_timeout = 10.0
history = "$spec_tmp/history.log"
[tenants.acme]
[[tenants.acme.sources]]
type = "socket"
host = "127.0.0.1"
port = $(cat "$spec_tmp/port")
framing = "framed"
tls = true
tls_cafile = "$spec_tmp/cert.pem"
TOML
    serve_out="$(python -m repro serve --spec "$spec_tmp/gateway.toml" --once)"
    wait "$emitter_pid"
    echo "$serve_out" | grep -q "serving tenants: acme" \
        || { echo "serve never announced its tenant"; exit 1; }
    echo "$serve_out" | grep -q "tenant=acme" \
        || { echo "no tenant-tagged alert over framed TLS"; exit 1; }
    echo "$serve_out" | grep "total alerts:"
    echo "framed TLS round-trip through repro serve verified"
else
    echo "openssl not on PATH; skipping the TLS serve smoke"
fi

echo
echo "== the working tree is unchanged by this run =="
tree_after="$(git status --porcelain 2> /dev/null || true)"
if [ "$tree_after" != "$tree_before" ]; then
    echo "check.sh changed the working tree:"
    diff <(echo "$tree_before") <(echo "$tree_after") || true
    exit 1
fi
echo "git status unchanged"

echo
echo "check.sh: all gates passed"
