"""The five workloads: seeded corpora on disk plus the spec that reads them.

Each ``build`` writes its inputs under ``workdir`` from the seed alone
(the same seed gives byte-identical files) and returns the fields the
passes need.  Sizes below are for ``--seconds 10`` on the 2-core
reference box, chosen so one closed-loop pass lasts about a third of the
run; other run lengths scale line counts proportionally.

The ``why`` strings are the one-line reasons ``BENCHMARK.json`` carries;
README.md has the long form.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
from collections.abc import Callable
from dataclasses import dataclass

from repro.datasets import generate_bgl, generate_cloud_platform, generate_hdfs
from repro.ingest import render_framed_record
from repro.logs.formats import render_line

#: The run length the line counts below are sized for.
REFERENCE_SECONDS = 10.0

#: Event-time origin of re-stamped corpora (any fixed instant works;
#: detection only ever looks at differences).
EVENT_EPOCH = 1_600_000_000.0

#: ``gateway_live``: lines per second per tenant, and the tenants.
GATEWAY_RATE = 2500.0
GATEWAY_TENANTS = ("acme", "globex")
GATEWAY_SESSION_TIMEOUT = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                # "batch" | "tail" | "gateway" (e2e_sut runner)
    open_loop: bool
    spec: dict
    build: Callable[[int, float, str], dict]    # (seed, seconds, workdir)


def _write_lines(workdir: str, name: str, records) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(render_line(record) + "\n")
    return path


def _scaled(full: int, seconds: float, floor: int) -> int:
    return max(floor, round(full * seconds / REFERENCE_SECONDS))


def _batch_inputs(workdir: str, live, history) -> dict:
    return {"live": _write_lines(workdir, "live.log", live.records),
            "history": _write_lines(workdir, "history.log", history.records),
            "lines": len(live.records)}


def _build_hdfs(sessions: int, history_sessions: int):
    def build(seed: int, seconds: float, workdir: str) -> dict:
        live = generate_hdfs(sessions=_scaled(sessions, seconds, 60),
                             anomaly_rate=0.06, seed=seed)
        history = generate_hdfs(
            sessions=_scaled(history_sessions, seconds, 40),
            anomaly_rate=0.0, seed=seed + 1)
        return _batch_inputs(workdir, live, history)
    return build


def _build_bgl(seed: int, seconds: float, workdir: str) -> dict:
    records = _scaled(85_000, seconds, 1500)
    live = generate_bgl(records=records, alert_episodes=max(2, records // 1000),
                        seed=seed)
    history = generate_bgl(records=max(500, records // 10), alert_episodes=0,
                           seed=seed + 1)
    return _batch_inputs(workdir, live, history)


def _cloud_history(seed: int, workdir: str) -> str:
    history = generate_cloud_platform(sessions=300, anomaly_rate=0.0,
                                      seed=seed + 1)
    return _write_lines(workdir, "history.log", history.records)


def _build_cloud_tail(seed: int, seconds: float, workdir: str) -> dict:
    data = generate_cloud_platform(sessions=_scaled(12_500, seconds, 120),
                                   anomaly_rate=0.06, seed=seed)
    # One line per millisecond of event time, globally distinct after the
    # layout's millisecond rounding: the cross-source order is unique, so
    # the live merge and the oracle's sort cannot legitimately disagree.
    by_source: dict[str, list] = {}
    for index, record in enumerate(data.records):
        stamped = dataclasses.replace(
            record, timestamp=EVENT_EPOCH + (index + 0.4) * 1e-3)
        by_source.setdefault(record.source, []).append(stamped)
    sources = {name: _write_lines(workdir, f"{name}.log", records)
               for name, records in by_source.items()}
    return {"sources": sources, "history": _cloud_history(seed, workdir),
            "lines": len(data.records)}


def _build_gateway(seed: int, seconds: float, workdir: str) -> dict:
    per_tenant = max(500, round(GATEWAY_RATE * seconds))
    job: dict = {"frames": {}, "lengths": {}, "records": {},
                 "tenants": list(GATEWAY_TENANTS), "rate": GATEWAY_RATE,
                 "session_timeout": GATEWAY_SESSION_TIMEOUT,
                 "history": _cloud_history(seed, workdir),
                 "lines": per_tenant * len(GATEWAY_TENANTS)}
    for offset, name in enumerate(GATEWAY_TENANTS):
        data = generate_cloud_platform(sessions=per_tenant // 4 + 10,
                                       anomaly_rate=0.10, seed=seed + 10 + offset)
        # Event time == scheduled send time: line i is due i / rate after
        # the schedule starts, whenever that turns out to be.
        records = [
            dataclasses.replace(record, tenant=name,
                                timestamp=EVENT_EPOCH + index / GATEWAY_RATE)
            for index, record in enumerate(data.records[:per_tenant])
        ]
        if len(records) != per_tenant:
            raise RuntimeError(f"corpus too short for tenant {name}")
        frames = [render_framed_record(record) for record in records]
        job["frames"][name] = os.path.join(workdir, f"{name}.frames")
        job["lengths"][name] = os.path.join(workdir, f"{name}.lengths.json")
        job["records"][name] = os.path.join(workdir, f"{name}.records.pickle")
        with open(job["frames"][name], "wb") as handle:
            handle.write(b"".join(frames))
        with open(job["lengths"][name], "w", encoding="utf-8") as handle:
            json.dump([len(frame) for frame in frames], handle)
        with open(job["records"][name], "wb") as handle:
            pickle.dump(records, handle)
    return job


def gateway_line_times(lines_per_tenant: int) -> list[float]:
    """Event times of one tenant's lines, as ``_build_gateway`` stamps them."""
    return [EVENT_EPOCH + index / GATEWAY_RATE
            for index in range(lines_per_tenant)]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="hdfs_batch",
            why="HDFS file, keyword detector: masked-tier cache hit ~100%, so "
                "regex masking and record construction dominate (mask-led "
                "parse)",
            kind="batch", open_loop=False,
            spec={"detector": "keyword", "executor": "serial"},
            build=_build_hdfs(8000, 800),
        ),
        Workload(
            name="bgl_batch",
            why="BGL file: the masker leaves its variables, ~90% of lines miss "
                "the masked tier and pay tokenize + tree match (self-led "
                "parse); most alerts per line",
            kind="batch", open_loop=False,
            # Re-read BGL lines carry no session id; tumbling 100-event
            # windows are the corpus' own evaluation protocol.
            spec={"detector": "keyword", "executor": "serial",
                  "windowing": "sliding", "window_size": 100},
            build=_build_bgl,
        ),
        Workload(
            name="hdfs_deeplog",
            why="HDFS file, DeepLog detector: detect is ~70% of the run, so "
                "parse/ingest optimisations must not move it; fit cost lands "
                "in setup_s",
            kind="batch", open_loop=False,
            spec={"detector": "deeplog", "executor": "serial"},
            # History does not scale down below what DeepLog needs to learn
            # both normal flows; ~2k lines fit in under two seconds.
            build=_build_hdfs(2500, 150),
        ),
        Workload(
            name="cloud_tail_drain",
            why="3 pre-written source files drained by the asyncio front-end "
                "into a 2-shard thread-executor streaming pipeline: ingest "
                "cost and 256-record micro-batches",
            kind="tail", open_loop=False,
            # File tails drain one after another (a reader never yields
            # while credits last), so nothing is late only if the merge
            # may hold the whole corpus: lateness and credits are sized
            # past it.  200-event pseudo-sessions give >200 alerts a run.
            spec={"detector": "keyword", "streaming": True, "shards": 2,
                  "executor": "thread", "ingest_batch_size": 256,
                  "lateness": 1e9, "credits": 1 << 22,
                  "max_session_events": 200},
            build=_build_cloud_tail,
        ),
        Workload(
            name="gateway_live",
            why="open loop: 2 tenants x 2,500 framed lines/s over TCP into a "
                "Gateway at ~45% CPU; the only workload that measures "
                "line-to-alert latency under pacing",
            kind="gateway", open_loop=True,
            spec={"detector": "keyword", "executor": "serial",
                  "session_timeout": GATEWAY_SESSION_TIMEOUT,
                  "tenants": {name: {} for name in GATEWAY_TENANTS}},
            build=_build_gateway,
        ),
    )
}
