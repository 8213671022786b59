"""bench_e2e: bytes in → alerts out, with a per-layer budget.

    python3 benchmarks/e2e/run.py                       # all workloads
    python3 benchmarks/e2e/run.py --workload hdfs_batch --seed 12
    python3 benchmarks/e2e/run.py --smoke --json
    python3 benchmarks/e2e/run.py --workload gateway_live --seed 3 \\
        --seconds 10 --trace 0                          # driver contract

Without ``--trace`` each workload is measured twice — untraced for the
end-to-end table, traced for the per-layer table — and the command exits
non-zero when any pass disagrees with the oracle.  With ``--trace 0|1``
one workload runs in one mode and the last stdout line is the JSON
object ``BENCHMARK.json``'s contract asks for.  README.md defines every
name printed here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    raise SystemExit(f"bench_e2e: no system to measure under {SRC}")
sys.path.insert(0, SRC)

import e2e_stats  # noqa: E402
from e2e_workloads import (  # noqa: E402
    EVENT_EPOCH,
    GATEWAY_RATE,
    REFERENCE_SECONDS,
    WORKLOADS,
    Workload,
    gateway_line_times,
)

SMOKE_SECONDS = 2.0
#: Closed-loop passes repeat until their timed windows add up to
#: ``--seconds``; the cap bounds a run on a tree that got much faster.
MAX_PASSES = 12
MIN_SETUP_SAMPLES = 3
#: A generator later than this (p95, ms) did not offer the open-loop
#: schedule it promised: the run is invalid, not slow.
MAX_GENERATOR_LAG_P95_MS = 20.0
_CHILD_TIMEOUT = 150.0

#: Units of the metrics printed beside the ones BENCHMARK.json names.
EXTRA_UNITS = {"failed_fraction": "ratio",
               "emit.alert_latency_p99_ms": "ms"}


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- child processes -----------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("MONILOG_EXECUTOR", None)     # the specs name their executor
    return env


def _cpus() -> tuple[int | None, int | None]:
    """``(sut, generator)`` cores, or ``(None, None)`` when unpinnable."""
    if not hasattr(os, "sched_getaffinity"):
        return None, None
    cores = sorted(os.sched_getaffinity(0))
    return (cores[0], cores[1]) if len(cores) >= 2 else (None, None)


class Prepared:
    """One workload's inputs on disk plus the oracle's alerts."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 workdir: str) -> None:
        self.workload = workload
        self.workdir = workdir
        self._jobs = 0
        started = time.perf_counter()
        self.inputs = workload.build(seed, seconds, workdir)
        self.corpus_gen_s = time.perf_counter() - started
        started = time.perf_counter()
        self.oracle_alerts = self.run_child("oracle")["alerts"]
        self.oracle_s = time.perf_counter() - started

    @property
    def lines(self) -> int:
        return self.inputs["lines"]

    def _job(self, role: str, **extra) -> dict:
        self._jobs += 1
        job = {
            **{key: value for key, value in self.inputs.items()
               if key not in ("frames", "lengths")},
            "workload": self.workload.name, "kind": self.workload.kind,
            "spec": self.workload.spec, "role": role, "src": SRC,
            "result": os.path.join(self.workdir,
                                   f"result-{self._jobs}-{role}.json"),
            **extra,
        }
        path = os.path.join(self.workdir, f"job-{self._jobs}-{role}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        job["path"] = path
        return job

    def run_child(self, role: str, **extra) -> dict:
        job = self._job(role, **extra)
        subprocess.run(
            [sys.executable, os.path.join(HERE, "e2e_sut.py"), job["path"]],
            check=True, timeout=_CHILD_TIMEOUT, env=_child_env(),
            stdout=subprocess.DEVNULL)
        with open(job["result"], encoding="utf-8") as handle:
            return json.load(handle)

    def run_live(self, role: str) -> tuple[dict, dict]:
        """An open-loop pass: generator process + SUT process."""
        sut_cpu, generator_cpu = _cpus()
        self._jobs += 1
        stem = os.path.join(self.workdir, f"generator-{self._jobs}")
        generator_job = {
            "tenants": self.inputs["tenants"], "rate": self.inputs["rate"],
            "frames": self.inputs["frames"],
            "lengths": self.inputs["lengths"],
            "ports_file": stem + ".ports.json", "result": stem + ".json",
            "cpu": generator_cpu,
        }
        with open(stem + ".job.json", "w", encoding="utf-8") as handle:
            json.dump(generator_job, handle)
        generator = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "e2e_loadgen.py"),
             stem + ".job.json"], env=_child_env())
        try:
            deadline = time.monotonic() + 30.0
            while not os.path.exists(generator_job["ports_file"]):
                if generator.poll() is not None:
                    raise RuntimeError("load generator exited before "
                                       "publishing its ports")
                if time.monotonic() > deadline:
                    raise RuntimeError("load generator never became ready")
                time.sleep(0.01)
            with open(generator_job["ports_file"], encoding="utf-8") as handle:
                ports = json.load(handle)
            result = self.run_child(role, ports=ports, cpu=sut_cpu)
            if generator.wait(timeout=_CHILD_TIMEOUT) != 0:
                raise RuntimeError("load generator failed")
        finally:
            if generator.poll() is None:
                generator.kill()
            generator.wait()
        with open(generator_job["result"], encoding="utf-8") as handle:
            return result, json.load(handle)


# -- one pass → numbers ---------------------------------------------------------


def evaluate_pass(prepared: Prepared, result: dict,
                  generator: dict | None) -> dict:
    """Correctness, rates and latency samples of one timed/traced pass."""
    workload = prepared.workload
    lines = prepared.lines
    ingest = result.get("ingest", {})
    by_tenant: dict[str, list] = {}
    for key in result["alerts"]:
        by_tenant.setdefault(key[0], []).append(key)
    expected: dict[str, list] = {}
    for key in prepared.oracle_alerts:
        expected.setdefault(key[0], []).append(key)
    # Delivery order across tenants is a race; within a tenant it is not.
    mismatch = sum(
        e2e_stats.alert_mismatches(expected.get(tenant, []),
                                   by_tenant.get(tenant, []))
        for tenant in sorted(set(expected) | set(by_tenant)))
    failed, attempted = e2e_stats.failures(
        lines_offered=lines,
        lines_processed=result["lines_processed"],
        frame_errors=sum(entry["frame_errors"] for entry in ingest.values()),
        late_records=sum(entry["late_records"] for entry in ingest.values()),
        alert_mismatch=mismatch,
        oracle_alerts=len(prepared.oracle_alerts),
    )
    started = result["started"]
    ended = started + result["wall_s"]
    tenant_samples: dict[str, list[float]] = {}
    flush_only = 0
    if workload.open_loop:
        # First byte read: the schedule's start, not the idle dial-in.
        started = max(started, generator["start"])
        times = gateway_line_times(lines // len(prepared.inputs["tenants"]))
        for tenant in prepared.inputs["tenants"]:
            fired = [(when, last)
                     for when, last, key in zip(result["fired_at"],
                                                result["last_event_ts"],
                                                result["alerts"])
                     if key[0] == tenant]
            tenant_samples[tenant], missed = e2e_stats.trigger_latencies_ms(
                fired, times, prepared.inputs["session_timeout"],
                generator["start"], EVENT_EPOCH)
            flush_only += missed
    else:
        # Closed loop: the whole input exists at t0, so every line is due
        # at t0 and the sample is time-to-alert from the first byte read.
        tenant_samples[""] = [(when - started) * 1e3
                              for when in result["fired_at"]]
    wall = ended - started
    return {
        "failed": failed, "attempted": attempted, "mismatch": mismatch,
        "wall_s": wall,
        "lines_per_s": lines / wall,
        "cpu_us_per_line": result["cpu_s"] / lines * 1e6,
        "latency_ms": [sample for samples in tenant_samples.values()
                       for sample in samples],
        "tenant_latency_ms": tenant_samples,
        "flush_only": flush_only,
        "invalid": (generator is not None
                    and generator["lag_p95_ms"] > MAX_GENERATOR_LAG_P95_MS),
    }


def _span(trace: dict, name: str, field: str = "s"):
    entry = trace["spans"].get(name)
    return entry[field] if entry is not None else 0.0


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else None


def layer_metrics(prepared: Prepared, result: dict, scored: dict,
                  generator: dict | None, untraced_cpu_us: float) -> dict:
    """Every per-layer metric of one traced pass (``None`` = not
    measurable on this workload or tree)."""
    trace, setup = result["trace"], result["setup_trace"]
    missing = set(result["missing"])
    counters, before = result["counters"], result["counters_before"]
    ingest = result.get("ingest", {})
    wall = scored["wall_s"]
    batch = prepared.workload.kind == "batch"

    def span(name, field="s", source=trace):
        return None if name in missing else _span(source, name, field)

    def delta(name):
        return counters[name] - before[name]

    def ingested(name, combine=sum):
        return combine(entry[name] for entry in ingest.values()) \
            if ingest else None

    cached = counters["caches_seen"]
    loads = counters["shard_loads"]
    parse_s, mask_s = span("parsing.parse"), span("parsing.mask")
    busy = ingested("handoff_busy_s")
    self_cpu = result["cpu_s"] - trace["root_cpu_s"] if ingest else None
    samples = result.get("processed_samples")
    backlog_peak = backlog_end = None
    if samples:
        backlog = [_offered(prepared, generator, when) - processed
                   for when, processed in samples]
        backlog_peak, backlog_end = max(backlog), backlog[-1]
    medians = [statistics.median(samples) for samples
               in scored["tenant_latency_ms"].values() if samples]
    processed = [entry["records_processed"] for entry in ingest.values()]
    gateway = prepared.workload.kind == "gateway"
    return {
        "logs.read_s": span("logs.read") if batch else None,
        "logs.read_lines": prepared.lines if batch else None,
        "logs.session_assign_s":
            span("logs.session_assign") if batch else None,
        "parsing.parse_s": parse_s,
        "parsing.mask_s": mask_s,
        "parsing.mask_calls": span("parsing.mask", "calls"),
        "parsing.parse_self_s":
            None if parse_s is None or mask_s is None else parse_s - mask_s,
        "parsing.records": delta("records_parsed"),
        "parsing.line_hit_ratio": _ratio(
            delta("line_hits"), delta("line_hits") + delta("line_misses"))
            if cached else None,
        "parsing.template_hit_ratio": _ratio(
            delta("template_hits"),
            delta("template_hits") + delta("template_misses"))
            if cached else None,
        "parsing.tree_match_calls":
            delta("template_misses") if cached else None,
        "parsing.cache_invalidations":
            delta("invalidations") if cached else None,
        "parsing.templates": counters["templates"],
        "parsing.shard_skew":
            max(loads) / statistics.mean(loads) if loads else None,
        "core.sessionize_s": span("core.sessionize"),
        "core.sessionize_calls": span("core.sessionize", "calls"),
        "core.sessions_closed": trace["counts"].get("core.sessions_closed", 0)
            if "core.sessionize" not in missing else None,
        "core.executor_map_s": span("core.executor_map"),
        "core.executor_map_calls": span("core.executor_map", "calls"),
        "core.handoff_busy_s": busy,
        "core.handoff_busy_fraction": _ratio(busy, wall) if busy is not None
            else None,
        "core.handoff_batches": ingested("handoff_batches"),
        "core.handoff_peak_depth": ingested("handoff_peak_depth", max),
        "detection.detect_s": span("detection.detect"),
        "detection.detect_calls": span("detection.detect", "calls"),
        "detection.anomalous": delta("anomalous"),
        "detection.fit_s": span("detection.fit", source=setup),
        "classify.classify_s": span("classify.classify"),
        "classify.alerts": delta("alerts"),
        "api.process_s": _sum(span("api.process"), span("api.flush")),
        "api.process_calls": span("api.process", "calls"),
        "api.process_self_s": _sum(span("api.process", "self_s"),
                                   span("api.flush", "self_s")),
        "api.fit_s": span("api.fit", source=setup),
        "ingest.records_in": ingested("records_in"),
        "ingest.records_processed": ingested("records_processed"),
        "ingest.batches": ingested("batches"),
        "ingest.size_flushes": ingested("size_flushes"),
        "ingest.age_flushes": ingested("age_flushes"),
        "ingest.late_records": ingested("late_records"),
        "ingest.credit_waits": ingested("credit_waits"),
        "ingest.credit_wait_s": ingested("credit_wait_s"),
        "ingest.forced_drains": ingested("forced_drains"),
        "ingest.self_cpu_s": self_cpu,
        "ingest.backlog_peak_lines": backlog_peak,
        "ingest.backlog_end_lines": backlog_end,
        "gateway.tenants": len(ingest) if gateway else None,
        "gateway.tenant_lines_skew":
            max(processed) / statistics.mean(processed) if gateway else None,
        "gateway.tenant_latency_gap_ms":
            max(medians) - min(medians) if gateway and len(medians) > 1
            else None,
        "emit.render_s": _span(trace, "emit.render"),
        "emit.alerts": len(result["alerts"]),
        "emit.alert_latency_p99_ms":
            e2e_stats.percentile_or_none(scored["latency_ms"], 99),
        "emit.alert_latency_samples": len(scored["latency_ms"]),
        "emit.flush_only_alerts": scored["flush_only"],
        "loadgen.offered_lines":
            generator["offered_lines"] if generator else None,
        "loadgen.lag_p95_ms": generator["lag_p95_ms"] if generator else None,
        "loadgen.lag_max_ms": generator["lag_max_ms"] if generator else None,
        "bench.trace_overhead_ratio":
            scored["cpu_us_per_line"] / untraced_cpu_us,
        "bench.unattributed_fraction":
            1 - (trace["self_total_s"] + (self_cpu or 0.0)) / wall,
        "bench.calibration_kops_per_s": result["calibration_kops_per_s"],
        "bench.corpus_gen_s": prepared.corpus_gen_s,
        "bench.oracle_s": prepared.oracle_s,
    }


def _sum(*values):
    present = [value for value in values if value is not None]
    return sum(present) if present else None


def _offered(prepared: Prepared, generator: dict | None, when: float) -> int:
    """Lines offered to the system by monotonic time ``when``."""
    if generator is None:
        return prepared.lines            # closed loop: all there at t0
    tenants = len(prepared.inputs["tenants"])
    per_tenant = prepared.lines // tenants
    elapsed = when - generator["start"]
    if elapsed < 0:
        return 0
    return tenants * min(per_tenant, int(elapsed * GATEWAY_RATE) + 1)


# -- one workload, one mode ------------------------------------------------------


class Measurement:
    """Metrics of one workload in one mode, plus the verdict."""

    def __init__(self) -> None:
        #: name -> (value or None, samples behind it)
        self.metrics: dict[str, tuple[float | None, int]] = {}
        self.failed = 0
        self.attempted = 0
        self.invalid = False
        self.passes = 0
        self.warnings: list[str] = []

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.invalid


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            *, smoke: bool = False) -> Measurement:
    """Run one workload untraced (end-to-end) or traced (per-layer)."""
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-",
                               dir=os.path.join(HERE, ".work"))
    try:
        # Traced mode times an untraced pass too (the overhead ratio's
        # base); an open-loop schedule is split between the two.
        open_loop = workload.open_loop
        prepared = Prepared(
            workload, seed, seconds / 2 if open_loop and trace else seconds,
            workdir)
        measurement = Measurement()
        timed: list[dict] = []
        setups: list[float] = []
        calibrations: list[float] = []
        layers: list[dict] = []

        def take(role: str) -> dict:
            result, generator = (prepared.run_live(role) if open_loop
                                 else (prepared.run_child(role), None))
            scored = evaluate_pass(prepared, result, generator)
            measurement.failed += scored["failed"]
            measurement.attempted += scored["attempted"]
            measurement.invalid |= scored["invalid"]
            measurement.passes += 1
            calibrations.append(result["calibration_kops_per_s"])
            if role == "timed":
                setups.append(result["setup_s"])
                scored["rss_mb"] = result["rss_mb"]
                timed.append(scored)
            else:
                layers.append(layer_metrics(
                    prepared, result, scored, generator,
                    timed[0]["cpu_us_per_line"]))
                for name in result["missing"]:
                    warning = f"no shim for {name}: its metrics are null"
                    if warning not in measurement.warnings:
                        measurement.warnings.append(warning)
            return scored

        spent = take("timed")["wall_s"]
        limit = 1 if smoke or open_loop else MAX_PASSES
        role = "traced" if trace else "timed"
        while (trace and not layers) or (spent < seconds
                                         and measurement.passes < limit):
            spent += take(role)["wall_s"]
        if trace:
            for name in layers[0]:
                values = [layer[name] for layer in layers
                          if layer[name] is not None]
                measurement.metrics[name] = (
                    statistics.median(values) if values else None,
                    len(values))
            return measurement
        while not smoke and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(prepared.run_child("setup")["setup_s"])
        latencies = [sample for scored in timed
                     for sample in scored["latency_ms"]]
        for name in ("lines_per_s", "cpu_us_per_line"):
            measurement.metrics[name] = (
                statistics.median(scored[name] for scored in timed),
                len(timed))
        for name, q in (("alert_latency_p50_ms", 50),
                        ("alert_latency_p95_ms", 95)):
            measurement.metrics[name] = (
                e2e_stats.percentile_or_none(latencies, q), len(latencies))
        measurement.metrics["peak_rss_mb"] = (
            statistics.median(scored["rss_mb"] for scored in timed),
            len(timed))
        measurement.metrics["setup_s"] = (statistics.median(setups),
                                          len(setups))
        measurement.metrics["failed_fraction"] = (
            measurement.failed / measurement.attempted, measurement.attempted)
        measurement.metrics["bench.calibration_kops_per_s"] = (
            statistics.median(calibrations), len(calibrations))
        return measurement
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- output ----------------------------------------------------------------------


def _units(contract: dict) -> dict[str, str]:
    units = dict(EXTRA_UNITS)
    for section in ("end_to_end", "per_layer"):
        units.update({entry["name"]: entry["unit"]
                      for entry in contract[section]})
    return units


def contract_line(contract: dict, measurement: Measurement,
                  trace: bool) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    metrics = {}
    for entry in contract["per_layer" if trace else "end_to_end"]:
        value, _ = measurement.metrics[entry["name"]]
        if value is None:
            if not trace:
                raise SystemExit(
                    f"{entry['name']} has too few samples at this size")
            value = 0          # not applicable on this workload (README)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps({
        "correct": measurement.correct,
        "attempted": max(1, measurement.attempted),
        "failed": measurement.failed,
        "metrics": metrics,
    })


def print_table(title: str, measurement: Measurement,
                units: dict[str, str]) -> None:
    print(f"  {title}")
    for name, (value, samples) in measurement.metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"    {name:<34s} {shown:>12s} {units.get(name, ''):<8s} "
              f"n={samples}")


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=10.0).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def append_trajectory(path: str, workload: str, measurement: Measurement,
                      smoke: bool) -> None:
    """One ``e2e.<workload>`` ledger entry (opt-in, ``--trajectory``)."""
    try:
        from repro.perf.trajectory import append_entry
    except ImportError:
        print("warning: repro.perf.trajectory is gone; --trajectory ignored",
              file=sys.stderr)
        return
    append_entry(path, f"e2e.{workload}",
                 {name: value for name, (value, _)
                  in measurement.metrics.items() if value is not None},
                 smoke=smoke, sha=git_sha())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload and mode "
                             f"(default {REFERENCE_SECONDS:g}; "
                             f"{SMOKE_SECONDS:g} with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: one workload, one mode, result "
                             "object on the last line")
    parser.add_argument("--smoke", action="store_true",
                        help="one short pass per mode; never compare with "
                             "full-size numbers")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON document instead of tables")
    parser.add_argument("--trajectory", metavar="PATH",
                        help="append one e2e.<workload> entry per workload")
    args = parser.parse_args(argv)
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke
                               else REFERENCE_SECONDS)
    contract = load_contract()
    units = _units(contract)

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        measurement = measure(WORKLOADS[args.workload], args.seed, seconds,
                              bool(args.trace), smoke=args.smoke)
        for warning in measurement.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if args.trajectory and not args.trace:
            append_trajectory(args.trajectory, args.workload, measurement,
                              args.smoke)
        print(contract_line(contract, measurement, bool(args.trace)))
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    document = {"seed": args.seed, "sha": git_sha(), "smoke": args.smoke,
                "seconds": seconds, "python": platform.python_version(),
                "nproc": os.cpu_count(), "workloads": {}}
    correct = True
    for name in names:
        end_to_end = measure(WORKLOADS[name], args.seed, seconds, False,
                             smoke=args.smoke)
        per_layer = measure(WORKLOADS[name], args.seed, seconds, True,
                            smoke=args.smoke)
        correct &= end_to_end.correct and per_layer.correct
        if args.trajectory:
            append_trajectory(args.trajectory, name, end_to_end, args.smoke)
        document["workloads"][name] = {
            metric: {"value": value, "unit": units.get(metric, ""),
                     "samples": samples}
            for measurement in (end_to_end, per_layer)
            for metric, (value, samples) in measurement.metrics.items()
        }
        if args.json:
            continue
        verdict = "ok" if end_to_end.correct and per_layer.correct else (
            "INVALID (generator lag)"
            if end_to_end.invalid or per_layer.invalid else "FAILED")
        print(f"== {name}  seed={args.seed} seconds={seconds:g} "
              f"passes={end_to_end.passes}+{per_layer.passes}  {verdict}")
        print_table("end-to-end (untraced)", end_to_end, units)
        print_table("per-layer (traced)", per_layer, units)
        for warning in per_layer.warnings:
            print(f"  warning: {warning}")
    if args.json:
        print(json.dumps(document, indent=2))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
