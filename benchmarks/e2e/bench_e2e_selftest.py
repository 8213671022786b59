"""Self-tests of the end-to-end benchmark's own arithmetic and plumbing.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

They check the definitions README.md gives (percentiles, trigger-line
latency, self time, failure counting, generator lag) on hand-built
inputs, and that one ``--smoke`` run of the real command prints every
metric and workload ``BENCHMARK.json`` names.  Smoke sizes only: nothing
here measures the system.
"""

import json
import re
import socket
import subprocess
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import e2e_loadgen
import e2e_stats
import e2e_sut
import e2e_tracer
import run as e2e_run

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- the contract file ---------------------------------------------------------


def test_benchmark_json_is_within_the_contract_limits():
    contract = e2e_run.load_contract()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/e2e"]
    assert 1 <= contract["run_seconds"] <= 60
    assert [w["name"] for w in contract["workloads"]] == list(
        e2e_run.WORKLOADS)
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in contract[section]]
    assert len(names) == len(set(names))
    assert all(_NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for entry in contract["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in contract["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in contract["end_to_end"] + contract["per_layer"]:
        assert _UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    setup = [entry for entry in contract["end_to_end"]
             if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(entry["bound"]
                                    for entry in contract["end_to_end"])


def test_smoke_run_prints_every_contract_metric_with_its_unit():
    """One real ``--smoke --json`` run over all five workloads."""
    contract = e2e_run.load_contract()
    done = subprocess.run(
        [sys.executable, e2e_run.__file__, "--smoke", "--json", "--seed", "5"],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    document = json.loads(done.stdout)
    assert document["seed"] == 5 and document["smoke"] is True
    assert {"sha", "python", "nproc"} <= set(document)
    for workload in contract["workloads"]:
        printed = document["workloads"][workload["name"]]
        for entry in contract["end_to_end"] + contract["per_layer"]:
            assert entry["name"] in printed, (workload["name"], entry["name"])
            assert printed[entry["name"]]["unit"] == entry["unit"]
            assert "samples" in printed[entry["name"]]
        assert printed["failed_fraction"]["value"] == 0


def test_table_rows_carry_value_unit_and_sample_count(capsys):
    measurement = e2e_run.Measurement()
    measurement.metrics["lines_per_s"] = (123.4, 3)
    measurement.metrics["alert_latency_p95_ms"] = (None, 4)
    e2e_run.print_table("end-to-end (untraced)", measurement,
                        {"lines_per_s": "lines/s"})
    out = capsys.readouterr().out
    assert re.search(r"lines_per_s\s+123\.4 lines/s\s+n=3", out)
    assert re.search(r"alert_latency_p95_ms\s+n/a", out)


# -- percentiles ---------------------------------------------------------------


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError, match="9 beyond"):
        e2e_stats.percentile(list(range(180)), 95)
    assert e2e_stats.percentile(list(range(200)), 95) == 189
    with pytest.raises(ValueError):
        e2e_stats.percentile(list(range(999)), 99)
    assert e2e_stats.percentile(list(range(1000)), 99) == 989
    assert e2e_stats.percentile_or_none([1.0] * 5, 50) is None
    assert e2e_stats.percentile([3, 1, 2] * 10, 50) == 2


# -- trigger-line latency --------------------------------------------------------


def test_trigger_line_latency_on_a_hand_built_schedule():
    epoch = 1000.0
    # One line every half second of event time, ten lines.
    line_times = [epoch + 0.5 * index for index in range(10)]
    schedule_start = 50.0         # monotonic time of line 0's due send
    alerts = [
        # Last event at +1.0 s: the session times out at +3.0 s, line 6
        # (due 53.0) is the trigger; the alert fired at 53.25.
        (53.25, epoch + 1.0),
        # Last event at +1.2 s: timeout at +3.2 s, the first line at or
        # after it is line 7 (+3.5 s, due 53.5); fired at 53.6.
        (53.6, epoch + 1.2),
        # Last event at +3.0 s: no line at or after +5.0 s — only the
        # end-of-stream flush can close it.
        (60.0, epoch + 3.0),
    ]
    samples, flush_only = e2e_stats.trigger_latencies_ms(
        alerts, line_times, 2.0, schedule_start, epoch)
    assert samples == pytest.approx([250.0, 100.0])
    assert flush_only == 1


# -- self time -------------------------------------------------------------------


class _FakeClock:
    """``time`` stand-in: every reading is set by the test."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def thread_time(self):
        return self.now


def test_self_time_subtracts_each_child_once(monkeypatch):
    clock = _FakeClock()
    monkeypatch.setattr(e2e_tracer, "time", clock)
    tracer = e2e_tracer.Tracer()
    with tracer.span("process"):
        clock.now += 1                       # process self
        with tracer.span("parse"):
            clock.now += 2                   # parse self
            with tracer.span("mask"):
                clock.now += 3
            with tracer.span("parse"):       # re-entrant: not re-timed
                clock.now += 4
        with tracer.span("detect"):
            clock.now += 5
        clock.now += 6                       # process self
    spans = tracer.report()["spans"]
    assert spans["process"] == {"s": 21, "self_s": 7, "calls": 1}
    assert spans["parse"] == {"s": 9, "self_s": 6, "calls": 1}
    assert spans["mask"] == {"s": 3, "self_s": 3, "calls": 1}
    assert spans["detect"] == {"s": 5, "self_s": 5, "calls": 1}
    # Self times partition the root span: nothing counted twice.
    assert tracer.report()["self_total_s"] == 21
    assert tracer.report()["root_cpu_s"] == 21


def test_worker_spans_are_charged_to_the_open_fan_out():
    tracer = e2e_tracer.Tracer()
    pool = ThreadPoolExecutor(max_workers=2)
    owner = types.SimpleNamespace(
        work=lambda task: time.sleep(0.05),
        map=lambda function, tasks: list(pool.map(function, tasks)))
    assert tracer.wrap(owner, "work", "shard", worker=True)
    assert tracer.wrap(owner, "map", "fan_out", adopt=True)
    try:
        owner.map(owner.work, [1, 2])
    finally:
        pool.shutdown(wait=True)
    spans = tracer.report()["spans"]
    assert spans["shard"]["calls"] == 2
    assert spans["shard"]["s"] >= 0.09
    # Two 50 ms children ran in parallel under a ~50 ms fan-out: its own
    # share is dispatch only, far below its duration.
    assert spans["fan_out"]["s"] >= 0.045
    assert spans["fan_out"]["self_s"] < 0.02


def test_tallies_survive_more_threads_than_cores():
    tracer = e2e_tracer.Tracer()
    owner = types.SimpleNamespace(step=lambda: [None])
    tracer.wrap(owner, "step", "step", count=("steps", len))
    threads, each = 8, 2000
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(
            target=lambda: [owner.step() for _ in range(each)])
            for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(worker.is_alive() for worker in workers)
    report = tracer.report()
    assert report["spans"]["step"]["calls"] == threads * each
    assert report["counts"]["steps"] == threads * each


def test_a_missing_attribute_is_reported_not_raised():
    tracer = e2e_tracer.Tracer()
    bare = types.SimpleNamespace()           # a pipeline with nothing on it
    e2e_sut.install_pipeline_shims(tracer, bare)
    assert {"api.process", "parsing.parse", "parsing.mask",
            "core.executor_map", "classify.classify"} <= set(tracer.missing)
    assert e2e_sut.pipeline_counters([bare])["caches_seen"] is False

    class Slotted:
        __slots__ = ()

        def mask(self, message):
            return message

    assert not tracer.wrap(Slotted(), "mask", "slotted.mask")
    assert "slotted.mask" in tracer.missing


# -- failure counting and the exit code -----------------------------------------


def _key(report_id, tenant=""):
    return [tenant, report_id, f"s{report_id}", "default", "low", 3, "abc"]


def test_a_dropped_alert_or_line_is_a_failure():
    oracle = [_key(0), _key(1), _key(2)]
    assert e2e_stats.alert_mismatches(oracle, oracle) == 0
    assert e2e_stats.alert_mismatches(oracle, oracle[:2]) == 1
    assert e2e_stats.alert_mismatches(oracle, oracle + [_key(3)]) == 1
    assert e2e_stats.alert_mismatches(oracle, oracle[::-1]) == 1
    clean = dict(lines_offered=100, lines_processed=100, frame_errors=0,
                 late_records=0, alert_mismatch=0, oracle_alerts=3)
    assert e2e_stats.failures(**clean) == (0, 103)
    assert e2e_stats.failures(**{**clean, "lines_processed": 99})[0] == 1
    assert e2e_stats.failures(**{**clean, "alert_mismatch": 1})[0] == 1
    assert e2e_stats.failures(**{**clean, "late_records": 2})[0] == 2


def test_losing_one_oracle_alert_fails_the_command(monkeypatch, capsys):
    """The real command over a smoke ``hdfs_batch`` whose oracle has one
    alert more than the system will ever raise."""
    real = e2e_run.Prepared.run_child

    def tampered(self, role, **extra):
        result = real(self, role, **extra)
        if role == "oracle":
            result["alerts"].append(_key(10 ** 6))
        return result

    monkeypatch.setattr(e2e_run.Prepared, "run_child", tampered)
    code = e2e_run.main(["--workload", "hdfs_batch", "--smoke"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILED" in out
    assert out.index("end-to-end (untraced)") < out.index("per-layer (traced)")
    failed = re.search(r"failed_fraction\s+(\S+)", out).group(1)
    assert float(failed) > 0


# -- the load generator -----------------------------------------------------------


def test_a_stalled_generator_shows_up_as_lag_not_latency():
    frames, size, rate = 4000, 512, 20_000.0
    data = bytes(size) * frames
    offsets = [index * size for index in range(frames + 1)]
    sender, receiver = socket.socketpair()
    sender.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    receiver.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)

    def slow_reader():
        time.sleep(0.6)                      # the peer stops reading
        while receiver.recv(1 << 16):
            pass

    reader = threading.Thread(target=slow_reader)
    reader.start()
    try:
        result = e2e_loadgen.send_schedule(
            {"t": (data, offsets)}, {"t": sender}, rate)
    finally:
        sender.close()
        reader.join(timeout=30)
        receiver.close()
    assert not reader.is_alive()
    assert result["offered_lines"] == frames
    assert result["lag_max_ms"] > 100
    assert result["lag_p95_ms"] > e2e_run.MAX_GENERATOR_LAG_P95_MS
    # Latency is taken from the due time, so the stall cannot hide in it:
    # whatever the generator did, the same alert gives the same sample.
    samples, _ = e2e_stats.trigger_latencies_ms(
        [(result["start"] + 2.5, 1000.0)], [1000.0 + index / rate
                                            for index in range(frames)],
        0.1, result["start"], 1000.0)
    assert samples == pytest.approx([2400.0])
