"""Command-line interface: ``python -m repro <command>``.

Eleven commands covering the adoption path of a downstream user:

* ``generate`` — write a synthetic ground-truthed corpus to a log file
  (dashed Fig. 2 layout) for trying the tools on disk;
* ``parse``    — structure a log file with any registered template
  miner and print the discovered template inventory;
* ``detect``   — train a registered detector on the head of a log file
  and report anomalous sessions in the tail;
* ``pipeline`` — run the full MoniLog system over a history file and a
  live file, printing classified alerts;
* ``tail``     — train on a history file, then *live-ingest* N files
  and/or sockets concurrently through the async front-end
  (:mod:`repro.ingest`): watermark merge, micro-batching, credit-based
  back-pressure, and per-source checkpoints for exact resume;
* ``stats``    — run the pipeline with telemetry enabled and print the
  JSON metric snapshot (or, with ``--metrics-port``/``--scrape``, the
  Prometheus exposition fetched through the real HTTP endpoint).  On a
  multi-tenant spec the whole gateway runs and ``--tenant NAME`` cuts
  the exposition down to one tenant's samples;
* ``serve``    — run the multi-tenant gateway of a spec with
  ``[tenants.*]`` tables: every tenant's sources ingest concurrently
  through per-tenant back-pressured services over shared executor
  pools, alerts print tagged with their tenant, and one ``/metrics``
  endpoint serves every tenant with a ``tenant`` label (see
  ``docs/gateway.md``);
* ``trace``    — run the pipeline with end-to-end tracing enabled and
  print the sampled span table (source read → merge → parse → detect →
  classify), with ``--stage``/``--last`` filters, ``--json``, and
  ``--dump PATH`` for the full trace+provenance JSON;
* ``explain``  — resolve one alert id to its full provenance: source
  names and byte offsets, template ids, detector window and score,
  and the pool decision — from a ``--trace-file`` dump or by rerunning
  ``--history``/``--live`` with tracing forced on;
* ``profile``  — run the pipeline with the continuous sampling
  profiler forced on and print the top-N hottest stacks,
  stage-attributed, with ``--collapsed FILE`` dumping the full
  flamegraph.pl-ready collapsed-stack text (see
  ``docs/profiling.md``);
* ``perf``     — diff the append-only perf-trajectory ledger
  (``benchmarks/results/TRAJECTORY.jsonl``): the latest entry of each
  bench against the median of its history, exiting non-zero on a
  regression beyond the tolerance band (the same code path as
  ``scripts/perf_diff.py``).

``--telemetry`` / ``--metrics-port`` / ``--autoscale`` arm the
observability subsystem on ``pipeline`` and ``tail``: metrics serve at
``http://127.0.0.1:<port>/metrics`` (Prometheus) and ``/telemetry``
(JSON) while the command runs, and the autoscale controller adapts
batch/credit knobs live (see ``docs/telemetry.md``).

The CLI is a thin veneer over the unified pipeline API
(:mod:`repro.api`): component menus come from the registry, and the
``pipeline``/``tail`` flags map 1:1 onto
:class:`~repro.api.spec.PipelineSpec` fields.  ``--spec path.toml``
loads a full spec file; precedence is **flags > MONILOG_* environment
> spec file > defaults**, so a checked-in spec can be nudged per run.
Output is identical across batch sizes, shard counts, and executors —
those knobs change wall-clock only.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from collections.abc import Sequence

from repro.api.pipeline import Pipeline
from repro.api.registry import REGISTRY
from repro.api.spec import PipelineSpec
from repro.core.executors import default_executor_name
from repro.core.validation import ConfigError
from repro.datasets import generate_bgl, generate_cloud_platform, generate_hdfs
from repro.detection import sessions_from_parsed
from repro.eval import Table
from repro.logs.formats import read_log_lines, render_line
from repro.logs.sessions import SessionKeyExtractor
from repro.parsing import (
    BATCH_PARSERS,
    LogramParser,
    default_masker,
    no_masker,
    parse_in_batches,
)

#: Parser menu for single-instance construction sites: the distributed
#: Drain is reached via --shards (it wraps per-shard Drains), not by
#: name.
_SINGLE_PARSERS = [name for name in REGISTRY.names("parser")
                   if name != "drain-distributed"]

_GENERATORS = {
    "hdfs": lambda args: generate_hdfs(
        sessions=args.sessions, anomaly_rate=args.anomaly_rate, seed=args.seed
    ),
    "bgl": lambda args: generate_bgl(
        records=args.sessions * 15, seed=args.seed
    ),
    "cloud": lambda args: generate_cloud_platform(
        sessions=args.sessions, anomaly_rate=args.anomaly_rate, seed=args.seed
    ),
}


def _read_records(path: str, sessionize: bool = False):
    with open(path, encoding="utf-8") as handle:
        records = list(read_log_lines(handle))
    if sessionize:
        records = list(SessionKeyExtractor().assign(records))
    return records


def _batch_size(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"batch size must be >= 0 (0 disables batching), got {value}"
        )
    return value


def _shard_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"shard count must be >= 0 (0 disables sharding), got {value}"
        )
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected > 0, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected >= 0, got {value}")
    return value


def _sample_rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"sample rate must be in 0.0..1.0, got {value}"
        )
    return value


def _socket_spec(text: str) -> tuple[str, int]:
    host, separator, port = text.rpartition(":")
    if not separator or not host:
        raise argparse.ArgumentTypeError(
            f"socket spec must be host:port, got {text!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"socket port must be an integer, got {port!r}"
        ) from None


#: ``pipeline``/``tail`` argparse dest -> PipelineSpec field.  Every
#: flag defaults to None so "user said nothing" is distinguishable and
#: the spec file / environment / dataclass default shows through.
_SPEC_FLAGS = {
    "parser": "parser",
    "detector": "detector",
    "masking": "masking",
    "extract": "extract_structured",
    "batch_size": "batch_size",
    "shards": "shards",
    "detector_shards": "detector_shards",
    "executor": "executor",
    # tail-only knobs
    "ingest_batch_size": "ingest_batch_size",
    "max_batch_age": "max_batch_age",
    "lateness": "lateness",
    "credits": "credits",
    "poll_interval": "poll_interval",
    "checkpoint": "checkpoint",
    "session_timeout": "session_timeout",
}


def _spec_from_args(args: argparse.Namespace, **forced) -> PipelineSpec:
    """flags > MONILOG_* env > ``--spec`` file > defaults, aggregated.

    ``forced`` fields (e.g. ``streaming=True`` for ``tail``) apply
    last — they are part of the command's contract, not user knobs.
    The observability flags merge *into* the spec's tables instead of
    replacing them: ``--metrics-port`` on top of a ``[telemetry]``
    table changes the port and keeps the rest.
    """
    try:
        spec = (PipelineSpec.from_file(args.spec) if getattr(args, "spec", None)
                else PipelineSpec())
        spec = spec.with_env()
        overrides = {
            field: getattr(args, flag)
            for flag, field in _SPEC_FLAGS.items()
            if getattr(args, flag, None) is not None
        }
        telemetry = dict(spec.telemetry)
        if getattr(args, "telemetry", None):
            telemetry["enabled"] = True
        if getattr(args, "metrics_port", None) is not None:
            telemetry["enabled"] = True
            telemetry["metrics_port"] = args.metrics_port
        if getattr(args, "trace", None):
            telemetry["enabled"] = True
            telemetry["tracing"] = True
        if getattr(args, "trace_sample_rate", None) is not None:
            telemetry["enabled"] = True
            telemetry["tracing"] = True
            telemetry["trace_sample_rate"] = args.trace_sample_rate
        if getattr(args, "profile", None):
            telemetry["enabled"] = True
            telemetry["profile"] = True
        if getattr(args, "profile_hz", None) is not None:
            telemetry["enabled"] = True
            telemetry["profile"] = True
            telemetry["profile_hz"] = args.profile_hz
        if telemetry != spec.telemetry:
            overrides["telemetry"] = telemetry
        autoscale = dict(spec.autoscale)
        if getattr(args, "autoscale", None):
            autoscale["enabled"] = True
        if getattr(args, "autoscale_reshard", None):
            autoscale["enabled"] = True
            autoscale["reshard"] = True
        if autoscale != spec.autoscale:
            overrides["autoscale"] = autoscale
        overrides.update(forced)
        return spec.replace(**overrides) if overrides else spec
    except (ConfigError, ValueError, OSError) as error:
        raise SystemExit(f"repro: {error}") from None


def _add_spec_flags(command: argparse.ArgumentParser,
                    ingestion: bool = False) -> None:
    """The PipelineSpec-mapped flags shared by ``pipeline`` and ``tail``."""
    command.add_argument(
        "--spec", metavar="PATH",
        help="PipelineSpec file (.toml or .json); flags override it",
    )
    command.add_argument(
        "--parser", choices=_SINGLE_PARSERS,
        help="stage-1 template miner (spec field: parser; default drain)",
    )
    command.add_argument(
        "--detector", choices=REGISTRY.names("detector"),
        help="stage-2 anomaly detector (spec field: detector; "
             "default deeplog; catalog in docs/detectors.md)",
    )
    command.add_argument("--masking", action="store_true", default=None,
                         help="apply the expert regex masker before mining")
    command.add_argument("--extract", action="store_true", default=None,
                         help="run JSON/XML payload extraction first "
                              "(spec field: extract_structured)")
    command.add_argument(
        "--batch-size", type=_batch_size,
        help="micro-batch size for the amortized parse path "
             "(0 = per-record; alerts are identical either way; "
             "spec field: batch_size, default 512)",
    )
    command.add_argument(
        "--shards", type=_shard_count,
        help="run the sharded pipeline with this many parser shards "
             "(0 = single instance; spec field: shards)",
    )
    command.add_argument(
        "--detector-shards", type=_positive_int,
        help="detector replicas in the sharded runtime (with --shards; "
             "spec field: detector_shards)",
    )
    command.add_argument(
        "--executor", choices=REGISTRY.names("executor"),
        help="how shard work runs with --shards: serially, on a thread "
             "pool, or on a process pool (output is identical; default "
             "honors MONILOG_EXECUTOR)",
    )
    command.add_argument(
        "--telemetry", action="store_true", default=None,
        help="enable runtime telemetry (spec table: [telemetry]); "
             "alerts are byte-identical with it on or off",
    )
    command.add_argument(
        "--metrics-port", type=int, metavar="PORT",
        help="serve Prometheus metrics at /metrics and the JSON "
             "snapshot at /telemetry on this port while running "
             "(0 = free ephemeral port; implies --telemetry)",
    )
    command.add_argument(
        "--trace", action="store_true", default=None,
        help="enable sampled end-to-end tracing and alert provenance "
             "(spec key: [telemetry] tracing; implies --telemetry); "
             "alerts stay byte-identical, see `repro explain`",
    )
    command.add_argument(
        "--trace-sample-rate", type=_sample_rate, metavar="RATE",
        help="fraction of batches/records that carry a full span tree "
             "(deterministic counter sampling, no RNG; 1.0 = all, "
             "implies --trace; spec key: [telemetry] trace_sample_rate)",
    )
    command.add_argument(
        "--profile", action="store_true", default=None,
        help="run the continuous sampling profiler for the lifetime "
             "of the run (spec key: [telemetry] profile; implies "
             "--telemetry); stage-attributed hotspots at /profile and "
             "`repro profile`, alerts stay byte-identical",
    )
    command.add_argument(
        "--profile-hz", type=_positive_float, metavar="HZ",
        help="profiler sampling rate in samples/second (implies "
             "--profile; spec key: [telemetry] profile_hz, "
             "default 100)",
    )
    command.add_argument(
        "--autoscale", action="store_true", default=None,
        help="adapt batch sizes and ingestion credits at runtime from "
             "measured rates and latencies (spec table: [autoscale]); "
             "alerts stay byte-identical",
    )
    command.add_argument(
        "--autoscale-reshard", action="store_true", default=None,
        help="let the autoscaler also resize the parser shard count "
             "live (implies --autoscale; spec key: [autoscale] "
             "reshard; template state migrates with relocated keys "
             "and alerts stay byte-identical)",
    )
    if not ingestion:
        return
    command.add_argument(
        "--ingest-batch-size", dest="ingest_batch_size", type=_positive_int,
        help="records per micro-batch handed to the pipeline "
             "(spec field: ingest_batch_size, default 256)",
    )
    command.add_argument(
        "--max-batch-age", type=_positive_float,
        help="seconds a non-empty batch may wait before flushing "
             "(spec field: max_batch_age)",
    )
    command.add_argument(
        "--lateness", type=_nonnegative_float,
        help="out-of-order tolerance of the live merge in event seconds "
             "(spec field: lateness)",
    )
    command.add_argument(
        "--credits", type=_positive_int,
        help="max records in flight between readers and the pipeline "
             "(spec field: credits)",
    )
    command.add_argument(
        "--poll-interval", type=_positive_float,
        help="idle-poll cadence for file tails in seconds "
             "(spec field: poll_interval)",
    )
    command.add_argument(
        "--checkpoint", metavar="PATH",
        help="offset checkpoint file; resume skips processed records "
             "(spec field: checkpoint)",
    )
    command.add_argument(
        "--session-timeout", type=_positive_float,
        help="idle seconds of stream time before a session closes "
             "(spec field: session_timeout, default 30)",
    )
    command.add_argument(
        "--socket-framing", choices=["lines", "jsonl", "framed"],
        default=None,
        help="framing of --socket streams: 'lines' (trusted newline "
             "protocol), 'jsonl' (JSON-lines; messages containing "
             "newlines survive, since JSON escapes them in the frame), "
             "or 'framed' (length-prefixed binary frames carrying a "
             "tenant id; see docs/gateway.md)",
    )


def _print_alert(alert) -> None:
    print(
        f"[{alert.criticality:>8s}] pool={alert.pool} "
        f"{alert.report.summary()}",
        flush=True,
    )


def _command_generate(args: argparse.Namespace) -> int:
    dataset = _GENERATORS[args.dataset](args)
    with open(args.output, "w", encoding="utf-8") as handle:
        for record in dataset.records:
            handle.write(render_line(record) + "\n")
    print(
        f"wrote {len(dataset.records)} records "
        f"({len(dataset.anomalous_sessions())} anomalous sessions) "
        f"to {args.output}"
    )
    if args.labels:
        with open(args.labels, "w", encoding="utf-8") as handle:
            for session_id, truth in dataset.sessions.items():
                label = truth.kind or ("anomaly" if truth.anomalous else "normal")
                handle.write(f"{session_id}\t{int(truth.anomalous)}\t{label}\n")
        print(f"wrote session labels to {args.labels}")
    return 0


def _command_parse(args: argparse.Namespace) -> int:
    records = _read_records(args.input)
    masker = default_masker() if args.masking else no_masker()
    if args.shards:
        if args.parser != "drain":
            raise SystemExit(
                "--shards runs the distributed Drain; "
                f"it cannot shard {args.parser!r}"
            )
        parser = REGISTRY.create(
            "parser", "drain-distributed", {},
            shards=args.shards,
            masker=masker,
            extract_structured=bool(args.extract),
            executor=args.executor,
        )
        template_of = parser.template_string
    else:
        parser = REGISTRY.create(
            "parser", args.parser, {},
            masker=masker, extract_structured=bool(args.extract),
        )
        template_of = lambda template_id: parser.store[template_id].template
        if args.parser in BATCH_PARSERS:
            parser.fit(records)
        if isinstance(parser, LogramParser):
            parser.warmup(records)
    if args.batch_size:
        parsed = parse_in_batches(parser, records, args.batch_size)
    else:
        parsed = parser.parse_all(records)
    counts: dict[int, int] = {}
    for event in parsed:
        counts[event.template_id] = counts.get(event.template_id, 0) + 1
    table = Table(
        f"{args.parser} on {args.input}: {parser.template_count} templates",
        ["id", "count", "template"],
    )
    for template_id, count in sorted(counts.items(), key=lambda kv: -kv[1]):
        table.add_row(template_id, count, template_of(template_id))
    table.print()
    if args.shards:
        # --batch-size 0 parses record by record, which never fans out
        # to the executor; attribute the run to the path that ran.
        executor_name = args.executor or parser.executor.name
        mode = f"{executor_name} executor" if args.batch_size else "per-record"
        loads = ", ".join(str(load) for load in parser.shard_loads)
        print(f"\nshard loads ({mode}): {loads}")
        parser.executor.close()
    return 0


def _command_detect(args: argparse.Namespace) -> int:
    records = _read_records(args.input, sessionize=True)
    cut = int(len(records) * args.train_fraction)
    masker = default_masker() if args.masking else no_masker()
    parser = REGISTRY.create(
        "parser", args.parser, {},
        masker=masker, extract_structured=bool(args.extract),
    )
    if args.parser in BATCH_PARSERS:
        parser.fit(records[:cut])
    if isinstance(parser, LogramParser):
        parser.warmup(records[:cut])
    train_sessions = [
        s for s in sessions_from_parsed(parser.parse_all(records[:cut])).values()
        if len(s) >= 2
    ]
    detector = REGISTRY.create("detector", args.detector, {})
    detector.fit(train_sessions, [False] * len(train_sessions))
    test_map = sessions_from_parsed(parser.parse_all(records[cut:]))
    flagged = 0
    for session_id, session in test_map.items():
        if len(session) < 2:
            continue
        result = detector.detect(session)
        if result.anomalous:
            flagged += 1
            print(f"ANOMALY {session_id} score={result.score:.3f}")
            for reason in result.reasons[:3]:
                print(f"    {reason}")
    print(f"\n{flagged}/{len(test_map)} sessions flagged by {args.detector}")
    return 0


def _command_pipeline(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    history = _read_records(args.history, sessionize=True)
    live = _read_records(args.live, sessionize=True)
    with Pipeline.from_spec(spec) as pipeline:
        pipeline.fit(history)
        alerts = pipeline.process(live)
        for alert in alerts:
            print(
                f"[{alert.criticality:>8s}] pool={alert.pool} "
                f"{alert.report.summary()}"
            )
        if spec.shards:
            loads = ", ".join(str(load)
                              for load in pipeline.parser.shard_loads)
            print(
                f"\nparsed {sum(pipeline.parser.shard_loads)} records "
                f"across {spec.shards} shards ({spec.executor} executor, "
                f"loads {loads}), {pipeline.parser.template_count} templates, "
                f"{len(alerts)} anomalies"
            )
        else:
            stats = pipeline.stats()
            print(
                f"\nparsed {stats.records_parsed} records, "
                f"{stats.templates_discovered} templates, "
                f"{stats.anomalies_detected} anomalies"
            )
        if pipeline.tracing_enabled and getattr(args, "trace_dump", None):
            with open(args.trace_dump, "w", encoding="utf-8") as handle:
                json.dump(pipeline.trace_dump(), handle, indent=2)
            print(f"wrote trace dump to {args.trace_dump}")
        if (pipeline.tracing_enabled and alerts
                and getattr(args, "trace_dump", None)):
            ids = ", ".join(
                str(alert.report.report_id) for alert in alerts[:5])
            print(f"explain an alert: repro explain <id> "
                  f"--trace-file {args.trace_dump} "
                  f"(ids: {ids}{', ...' if len(alerts) > 5 else ''})")
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    """Run the pipeline with telemetry on; print the exposition.

    Default output is the JSON snapshot (``Pipeline.telemetry()``).
    With ``--scrape`` the command instead starts the HTTP endpoint
    (``--metrics-port``, default ephemeral), fetches ``/metrics``
    through a real HTTP round-trip, and prints the Prometheus text —
    an end-to-end probe of the scrape path in one process.

    On a spec with ``[tenants.*]`` tables the whole gateway runs (every
    tenant fits on the history and processes the live file through its
    own pipeline), the shared exposition carries a ``tenant`` label on
    every family, and ``--tenant NAME`` filters it to one tenant.
    """
    spec = _spec_from_args(args)
    if spec.tenants:
        return _stats_gateway(args, spec)
    if args.tenant:
        raise SystemExit(
            "repro: --tenant needs a multi-tenant spec "
            "([tenants.*] tables); this spec declares none"
        )
    spec = spec.replace(telemetry=dict(spec.telemetry, enabled=True))
    history = _read_records(args.history, sessionize=True)
    live = _read_records(args.live, sessionize=True)
    with Pipeline.from_spec(spec) as pipeline:
        pipeline.fit(history)
        alerts = pipeline.process(live)
        if pipeline.autoscaler is not None:
            pipeline.autoscaler.tick()
        if args.scrape:
            server = pipeline.start_metrics_server()
            print(_scrape(f"{server.url}/metrics", args.scrape_timeout),
                  end="")
        else:
            print(json.dumps(pipeline.telemetry(), indent=2))
        print(f"# {len(alerts)} alerts over {args.live}", file=sys.stderr)
    return 0


def _stats_gateway(args: argparse.Namespace, spec) -> int:
    """The multi-tenant ``stats`` path: one gateway, filtered output."""
    from repro.gateway import Gateway
    from repro.telemetry.metrics import filter_prometheus, filter_snapshot

    gateway = Gateway(spec)
    if args.tenant and args.tenant not in gateway.tenants:
        raise SystemExit(
            f"repro: unknown tenant {args.tenant!r}; "
            f"declared: {gateway.tenants}"
        )
    history = _read_records(args.history, sessionize=True)
    live = _read_records(args.live, sessionize=True)
    with gateway:
        gateway.fit(history)
        alerts = gateway.process({name: live for name in gateway.tenants})
        if args.scrape:
            server = gateway.start_metrics_server(args.metrics_port or 0)
            text = _scrape(f"{server.url}/metrics", args.scrape_timeout)
            if args.tenant:
                text = filter_prometheus(text, tenant=args.tenant)
            print(text, end="")
        else:
            snapshot = gateway.telemetry()
            if args.tenant:
                snapshot = filter_snapshot(snapshot, tenant=args.tenant)
            print(json.dumps(snapshot, indent=2))
        per_tenant = ", ".join(
            f"{name}={sum(1 for a in alerts if a.tenant == name)}"
            for name in gateway.tenants
        )
        print(f"# {len(alerts)} alerts over {args.live} ({per_tenant})",
              file=sys.stderr)
    return 0


def _scrape(url: str, timeout: float) -> str:
    """One HTTP GET with a bounded connect/read timeout.

    ``urllib`` errors (connection refused, timeouts, DNS) all subclass
    :class:`OSError`; a scrape failure becomes a one-line diagnosis
    instead of a traceback.
    """
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.read().decode("utf-8")
    except OSError as error:
        raise SystemExit(
            f"repro: scrape of {url} failed: {error}") from None


def _traced_pipeline(args: argparse.Namespace) -> Pipeline:
    """Fit-and-process a pipeline with tracing forced on.

    The rerun backbone of ``repro trace`` and ``repro explain``:
    identical spec resolution to ``repro pipeline``, with
    ``[telemetry] enabled/tracing`` forced true so every alert gets a
    provenance record (alerts themselves are byte-identical to an
    untraced run).
    """
    spec = _spec_from_args(args)
    spec = spec.replace(
        telemetry=dict(spec.telemetry, enabled=True, tracing=True))
    history = _read_records(args.history, sessionize=True)
    live = _read_records(args.live, sessionize=True)
    pipeline = Pipeline.from_spec(spec)
    pipeline.fit(history)
    pipeline.process(live)
    return pipeline


def _command_trace(args: argparse.Namespace) -> int:
    """Run with tracing on and print the sampled span table."""
    with _traced_pipeline(args) as pipeline:
        dump = pipeline.trace_dump()
        if args.dump:
            with open(args.dump, "w", encoding="utf-8") as handle:
                json.dump(dump, handle, indent=2)
            print(f"wrote trace dump to {args.dump}", file=sys.stderr)
        spans = dump["spans"]
        if args.stage:
            spans = [span for span in spans if span["name"] == args.stage]
        if args.last:
            spans = spans[-args.last:]
        if args.json:
            print(json.dumps(spans, indent=2))
        else:
            table = Table(
                f"{len(spans)} spans over {args.live} "
                f"(sample rate {dump['sample_rate']}, "
                f"{dump['evicted']} evicted)",
                ["trace", "span", "duration_ms", "cpu_ms", "detail"],
            )
            for span in spans:
                detail = ", ".join(
                    f"{key}={value}"
                    for key, value in sorted(span["attributes"].items()))
                table.add_row(
                    span["trace"], span["name"],
                    f"{span['duration'] * 1000:.3f}",
                    f"{span['cpu'] * 1000:.3f}",
                    detail,
                )
            table.print()
        print(f"# {len(dump['alerts'])} alerts carry provenance "
              f"(repro explain <id>)", file=sys.stderr)
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    """Run with profiling forced on; print the hotspot ranking.

    The offline counterpart of scraping ``/profile`` from a live
    pipeline: fit on the history, drain the live file (``--repeat``
    times — more passes mean more samples), stop the sampler, and
    print the top stacks.  ``--collapsed FILE`` additionally dumps the
    full profile in flamegraph.pl-ready collapsed-stack text.
    """
    spec = _spec_from_args(args)
    if spec.tenants:
        raise SystemExit(
            "repro: profile runs a single-tenant spec; for a gateway, "
            "scrape /profile from `repro serve --metrics-port`"
        )
    spec = spec.replace(
        telemetry=dict(spec.telemetry, enabled=True, profile=True))
    history = _read_records(args.history, sessionize=True)
    live = _read_records(args.live, sessionize=True)
    with Pipeline.from_spec(spec) as pipeline:
        pipeline.fit(history)
        alerts: list = []
        for _ in range(args.repeat):
            alerts = pipeline.process(live)
        profiler = pipeline.profiler
        profiler.stop()
        if args.collapsed:
            with open(args.collapsed, "w", encoding="utf-8") as handle:
                handle.write(profiler.collapsed())
            print(f"wrote collapsed stacks to {args.collapsed}",
                  file=sys.stderr)
        profile = pipeline.profile(limit=args.limit)
        stats = profile["stats"]
        if args.json:
            print(json.dumps(profile, indent=2))
        else:
            table = Table(
                f"top {len(profile['hotspots'])} of {stats['stacks']} "
                f"stacks ({stats['samples']} samples, sampled at "
                f"{stats['achieved_hz']:.0f} of {stats['hz']:g} Hz)",
                ["samples", "share", "stack"],
            )
            for spot in profile["hotspots"]:
                table.add_row(spot["samples"], f"{spot['share']:.1%}",
                              spot["stack"])
            table.print()
            stages = ", ".join(f"{stage}={count}" for stage, count
                               in stats["stage_samples"].items())
            print(f"# stages: {stages or '(no samples)'}",
                  file=sys.stderr)
        print(f"# {len(alerts)} alerts per pass over {args.live} "
              f"(x{args.repeat}); sampler overhead "
              f"{stats['overhead_seconds']:.3f}s",
              file=sys.stderr)
        if stats["achieved_hz"] < stats["hz"] / 2:
            print(f"# warning: the sampler achieved "
                  f"{stats['achieved_hz']:.0f} Hz of the requested "
                  f"{stats['hz']:g} Hz (it waits for the interpreter lock "
                  f"behind the pipeline's own threads): shares stay "
                  f"proportional, but rank rare stacks from a longer run "
                  f"(--repeat) rather than a higher --profile-hz",
                  file=sys.stderr)
    return 0


def _command_perf(args: argparse.Namespace) -> int:
    """Diff the perf-trajectory ledger (``scripts/perf_diff.py``)."""
    from repro.perf.trajectory import TrajectoryError, run_diff, self_test

    try:
        if args.self_test:
            return self_test()
        return run_diff(args.trajectory)
    except TrajectoryError as error:
        raise SystemExit(f"repro: {error}") from None


def _command_explain(args: argparse.Namespace) -> int:
    """Resolve one alert id to its provenance record."""
    from repro.telemetry.tracing import AlertProvenance

    if args.trace_file:
        with open(args.trace_file, encoding="utf-8") as handle:
            dump = json.load(handle)
        ledger = {entry["alert_id"]: entry
                  for entry in dump.get("alerts", [])}
        if args.alert_id not in ledger:
            known = ", ".join(str(alert_id) for alert_id in sorted(ledger))
            raise SystemExit(
                f"repro: no provenance for alert {args.alert_id} in "
                f"{args.trace_file}; known ids: {known or '(none)'}"
            )
        print(AlertProvenance.from_dict(ledger[args.alert_id]).render())
        return 0
    if not (args.history and args.live):
        raise SystemExit(
            "repro: explain needs either --trace-file DUMP.json (from "
            "`repro pipeline --trace --trace-dump` or `repro trace "
            "--dump`) or --history/--live to rerun with tracing on"
        )
    with _traced_pipeline(args) as pipeline:
        try:
            provenance = pipeline.explain(args.alert_id)
        except KeyError as error:
            raise SystemExit(f"repro: {error.args[0]}") from None
        print(provenance.render())
    return 0


def _command_tail(args: argparse.Namespace) -> int:
    # Legacy surface: ``tail --batch-size`` always meant records per
    # ingestion micro-batch.  Keep that meaning unless the explicit
    # --ingest-batch-size spelling is used.
    if args.batch_size is not None and args.ingest_batch_size is None:
        args.ingest_batch_size = args.batch_size
        args.batch_size = None
    spec = _spec_from_args(args, streaming=True)
    sources = [
        REGISTRY.create("source", "file", {},
                        path=path, follow=not args.once,
                        poll_interval=spec.poll_interval)
        for path in args.source
    ] + [
        # --once must terminate even when nothing is listening: cap the
        # dial attempts instead of retrying forever.
        REGISTRY.create("source", "socket", {},
                        host=host, port=port, reconnect=not args.once,
                        max_connect_attempts=3 if args.once else None,
                        framing=args.socket_framing or "lines")
        for host, port in args.socket
    ]
    if not sources:
        # No source flags: fall back to the spec's [[sources]] tables,
        # injecting the same run-mode defaults the flag path applies —
        # --once must terminate file tails and cap socket dials, and
        # file tails inherit the spec's poll cadence.
        sources = []
        for entry in spec.sources:
            options = {key: value for key, value in entry.items()
                       if key != "type"}
            if entry["type"] == "file":
                options.setdefault("follow", not args.once)
                options.setdefault("poll_interval", spec.poll_interval)
            elif entry["type"] == "socket" and args.once:
                options.setdefault("reconnect", False)
                options.setdefault("max_connect_attempts", 3)
            sources.append(REGISTRY.create("source", entry["type"], options))
    if not sources:
        raise SystemExit("tail needs at least one --source or --socket "
                         "(or [[sources]] in --spec)")
    history = _read_records(args.history, sessionize=True)
    pipeline = Pipeline.from_spec(spec)
    pipeline.fit(history)
    if pipeline.metrics_server is not None:
        print(f"serving metrics on {pipeline.metrics_server.url}/metrics",
              flush=True)
    # serve() wires the spec's checkpoint, telemetry collectors, and
    # autoscale controller into the service.
    service = pipeline.serve(sources, on_alert=_print_alert)

    async def tail_main() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, service.stop)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loops: Ctrl-C falls through as KeyboardInterrupt
        try:
            await service.run()
        finally:
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.remove_signal_handler(signum)
                except (NotImplementedError, RuntimeError):
                    pass

    try:
        asyncio.run(tail_main())
    except KeyboardInterrupt:
        pass
    print(f"\n{service.stats().summary()}")
    pipeline.close()
    return 0


def _print_tenant_alert(tagged) -> None:
    alert = tagged.alert
    print(
        f"[{alert.criticality:>8s}] tenant={tagged.tenant} "
        f"pool={alert.pool} {alert.report.summary()}",
        flush=True,
    )


def _build_declared_sources(tenant_spec, once: bool) -> list:
    """A tenant's ``[[sources]]`` with the run-mode defaults injected.

    The same conventions ``tail`` applies to its spec fallback:
    ``--once`` must terminate file tails and cap socket dials, and file
    tails inherit the spec's poll cadence.
    """
    sources = []
    for entry in tenant_spec.sources:
        options = {key: value for key, value in entry.items()
                   if key != "type"}
        if entry["type"] == "file":
            options.setdefault("follow", not once)
            options.setdefault("poll_interval", tenant_spec.poll_interval)
        elif entry["type"] == "socket" and once:
            options.setdefault("reconnect", False)
            options.setdefault("max_connect_attempts", 3)
        sources.append(REGISTRY.create("source", entry["type"], options))
    return sources


def _command_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant gateway of a ``[tenants.*]`` spec."""
    from repro.gateway import Gateway

    try:
        spec = PipelineSpec.from_file(args.spec).with_env()
    except (ConfigError, OSError) as error:
        raise SystemExit(f"repro: {error}") from None
    if not spec.tenants:
        raise SystemExit(
            "repro: serve needs a spec with [tenants.<name>] tables; "
            "use `repro tail` for a single-tenant spec"
        )
    if args.checkpoint:
        spec = spec.replace(checkpoint=args.checkpoint)
    gateway = Gateway(spec)
    histories: dict[str, list] = {}
    sources: dict[str, list] = {}
    for name in gateway.tenants:
        tenant_spec = gateway.pipeline(name).spec
        history_path = tenant_spec.history or args.history
        if history_path is None:
            raise SystemExit(
                f"repro: tenant {name!r} has no training corpus; set "
                f"[tenants.{name}] history = \"...\" (or a top-level "
                f"history) in the spec, or pass --history"
            )
        histories[name] = _read_records(history_path, sessionize=True)
        tenant_sources = _build_declared_sources(tenant_spec, args.once)
        if not tenant_sources:
            raise SystemExit(
                f"repro: tenant {name!r} declares no [[sources]]; every "
                "served tenant needs at least one live source"
            )
        sources[name] = tenant_sources
    gateway.fit(histories)
    service = gateway.serve(
        sources=sources,
        on_alert=_print_tenant_alert,
        metrics_port=args.metrics_port,
    )
    if gateway.metrics_server is not None:
        print(f"serving metrics on {gateway.metrics_server.url}/metrics",
              flush=True)
    print(f"serving tenants: {', '.join(gateway.tenants)}", flush=True)

    async def serve_main() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, service.stop)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loops: Ctrl-C falls through as KeyboardInterrupt
        try:
            await service.run()
        finally:
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.remove_signal_handler(signum)
                except (NotImplementedError, RuntimeError):
                    pass

    try:
        asyncio.run(serve_main())
    except KeyboardInterrupt:
        pass
    print(f"\n{service.summary()}")
    gateway.close()
    return 0


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MoniLog reproduction: log anomaly detection toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="write a synthetic corpus")
    generate.add_argument("--dataset", choices=sorted(_GENERATORS),
                          default="cloud")
    generate.add_argument("--sessions", type=int, default=300)
    generate.add_argument("--anomaly-rate", type=float, default=0.05)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True)
    generate.add_argument("--labels", help="optional session-label TSV path")
    generate.set_defaults(handler=_command_generate)

    parse = commands.add_parser("parse", help="mine templates from a log file")
    parse.add_argument("--input", required=True)
    parse.add_argument("--parser", default="drain",
                       choices=_SINGLE_PARSERS)
    parse.add_argument("--masking", action="store_true")
    parse.add_argument("--extract", action="store_true",
                       help="run JSON/XML payload extraction first")
    parse.add_argument(
        "--batch-size", type=_batch_size, default=512,
        help="parse via the amortized batch path (0 = per-record)",
    )
    parse.add_argument(
        "--shards", type=_shard_count, default=0,
        help="parse through this many distributed Drain shards "
             "(0 = single instance; requires --parser drain)",
    )
    parse.add_argument(
        "--executor", choices=REGISTRY.names("executor"),
        default=None,
        help="how shard work runs with --shards (output is identical; "
             "default honors MONILOG_EXECUTOR)",
    )
    parse.set_defaults(handler=_command_parse)

    detect = commands.add_parser("detect", help="find anomalous sessions")
    detect.add_argument("--input", required=True)
    detect.add_argument("--detector", choices=REGISTRY.names("detector"),
                        default="deeplog",
                        help="anomaly detector (catalog in "
                             "docs/detectors.md)")
    detect.add_argument("--parser", choices=_SINGLE_PARSERS,
                        default="drain")
    detect.add_argument("--train-fraction", type=float, default=0.6)
    detect.add_argument("--masking", action="store_true")
    detect.add_argument("--extract", action="store_true")
    detect.set_defaults(handler=_command_detect)

    pipeline = commands.add_parser(
        "pipeline", help="full MoniLog run (spec-driven)"
    )
    pipeline.add_argument("--history", required=True,
                          help="training log file")
    pipeline.add_argument("--live", required=True, help="live log file")
    _add_spec_flags(pipeline)
    pipeline.add_argument(
        "--trace-dump", metavar="PATH",
        help="with --trace: write the span + provenance JSON here for "
             "offline `repro explain --trace-file PATH`",
    )
    pipeline.set_defaults(handler=_command_pipeline)

    stats = commands.add_parser(
        "stats",
        help="run with telemetry on and print the metric exposition",
    )
    stats.add_argument("--history", required=True,
                       help="training log file")
    stats.add_argument("--live", required=True, help="live log file")
    stats.add_argument(
        "--scrape", action="store_true",
        help="start the HTTP endpoint, fetch /metrics through a real "
             "HTTP round-trip, and print the Prometheus text instead "
             "of the JSON snapshot",
    )
    stats.add_argument(
        "--tenant", metavar="NAME",
        help="on a multi-tenant spec, filter the exposition down to "
             "this tenant's samples (families carry a tenant label)",
    )
    stats.add_argument(
        "--scrape-timeout", type=_positive_float, default=5.0,
        metavar="SECONDS",
        help="connect/read timeout for the --scrape HTTP round-trip "
             "(default 5.0; a failed scrape is a one-line error, not "
             "a traceback)",
    )
    _add_spec_flags(stats)
    stats.set_defaults(handler=_command_stats)

    trace = commands.add_parser(
        "trace",
        help="run with end-to-end tracing and print the span table",
    )
    trace.add_argument("--history", required=True,
                       help="training log file")
    trace.add_argument("--live", required=True, help="live log file")
    trace.add_argument(
        "--stage", metavar="NAME",
        help="show only spans of this stage (ingest, parse, "
             "sessionize, detect, classify, batch, record, flush)",
    )
    trace.add_argument(
        "--last", type=_positive_int, metavar="N",
        help="show only the newest N matching spans",
    )
    trace.add_argument(
        "--json", action="store_true",
        help="print the matching spans as JSON instead of a table",
    )
    trace.add_argument(
        "--dump", metavar="PATH",
        help="also write the full span + provenance JSON here for "
             "offline `repro explain --trace-file PATH`",
    )
    _add_spec_flags(trace)
    trace.set_defaults(handler=_command_trace)

    explain = commands.add_parser(
        "explain",
        help="resolve an alert id to sources, offsets, templates, "
             "scores, and the pool decision",
    )
    explain.add_argument(
        "alert_id", type=int, metavar="ALERT_ID",
        help="the alert's report id (printed as 'report #N' in alert "
             "summaries)",
    )
    explain.add_argument(
        "--trace-file", metavar="PATH",
        help="trace dump JSON written by `repro pipeline --trace "
             "--trace-dump` or `repro trace --dump`",
    )
    explain.add_argument("--history", help="training log file (to rerun "
                                           "with tracing forced on)")
    explain.add_argument("--live", help="live log file (with --history)")
    _add_spec_flags(explain)
    explain.set_defaults(handler=_command_explain)

    profile = commands.add_parser(
        "profile",
        help="run with the sampling profiler on; print the hottest "
             "stacks per pipeline stage",
    )
    profile.add_argument("--history", required=True,
                         help="training log file (offline history)")
    profile.add_argument("--live", required=True, help="live log file")
    profile.add_argument(
        "--limit", type=_positive_int, default=20, metavar="N",
        help="hotspot stacks to print (default 20)",
    )
    profile.add_argument(
        "--repeat", type=_positive_int, default=1, metavar="N",
        help="drain the live file N times — more passes, more samples "
             "(alerts are identical every pass; default 1)",
    )
    profile.add_argument(
        "--collapsed", metavar="PATH",
        help="also write the full profile as collapsed-stack text "
             "(`flamegraph.pl PATH > flame.svg`)",
    )
    profile.add_argument(
        "--json", action="store_true",
        help="print the profile as JSON (the /profile payload) "
             "instead of a table",
    )
    _add_spec_flags(profile)
    profile.set_defaults(handler=_command_profile)

    perf = commands.add_parser(
        "perf",
        help="gate the latest bench numbers against the "
             "perf-trajectory ledger",
    )
    perf.add_argument(
        "--trajectory", metavar="PATH",
        default=os.path.join("benchmarks", "results", "TRAJECTORY.jsonl"),
        help="the JSONL ledger to diff (default: "
             "benchmarks/results/TRAJECTORY.jsonl)",
    )
    perf.add_argument(
        "--self-test", action="store_true",
        help="synthesize a regression in a scratch ledger and verify "
             "the gate fires",
    )
    perf.set_defaults(handler=_command_perf)

    tail = commands.add_parser(
        "tail",
        help="live-ingest files/sockets through the async front-end",
    )
    tail.add_argument("--history", required=True,
                      help="training log file (offline history)")
    tail.add_argument(
        "--source", action="append", default=[], metavar="PATH",
        help="log file to tail (repeatable; tail -F semantics)",
    )
    tail.add_argument(
        "--socket", action="append", default=[], type=_socket_spec,
        metavar="HOST:PORT",
        help="newline-delimited TCP stream to ingest (repeatable)",
    )
    tail.add_argument(
        "--once", action="store_true",
        help="drain sources to their current end and exit (no follow)",
    )
    _add_spec_flags(tail, ingestion=True)
    tail.set_defaults(handler=_command_tail)

    serve = commands.add_parser(
        "serve",
        help="run the multi-tenant gateway of a [tenants.*] spec",
    )
    serve.add_argument(
        "--spec", metavar="PATH", required=True,
        help="gateway spec file (.toml or .json) with [tenants.<name>] "
             "tables; each tenant's [[sources]] ingest concurrently",
    )
    serve.add_argument(
        "--history", metavar="PATH",
        help="fallback training log file for tenants whose table sets "
             "no history = \"...\" path",
    )
    serve.add_argument(
        "--checkpoint", metavar="PATH",
        help="shared offset checkpoint file (per-tenant namespaced "
             "views keep keys disjoint; spec field: checkpoint)",
    )
    serve.add_argument(
        "--metrics-port", type=int, metavar="PORT",
        help="serve the shared /metrics endpoint on this port; every "
             "family carries a tenant label (0 = ephemeral port)",
    )
    serve.add_argument(
        "--once", action="store_true",
        help="drain every tenant's sources to their current end and "
             "exit (no follow)",
    )
    serve.set_defaults(handler=_command_serve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        parser = build_argument_parser()
        # A typo'd MONILOG_EXECUTOR must fail fast, naming the
        # variable — not deep inside a command as a traceback.
        default_executor_name()
    except ValueError as error:
        raise SystemExit(f"repro: {error}") from None
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except ConfigError as error:
        # Late construction-time validation (e.g. a metrics port
        # already in use) reads as a diagnosis, not a traceback.
        raise SystemExit(f"repro: {error}") from None


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
