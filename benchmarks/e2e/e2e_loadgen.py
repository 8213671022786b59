"""Open-loop load generator for ``gateway_live`` (its own process).

A single-threaded TCP server with one listening port per tenant.  The
system under test dials in (``SocketSource`` is a client); once every
tenant is connected the generator sends pre-rendered frames on a fixed
schedule — line ``i`` of a tenant is *due* at ``start + i / rate`` — and
never waits for the system: if the system falls behind, bytes queue in
the socket and, past the kernel buffer, in ``sendall``.

How late the generator itself ran is part of the result
(``lag_p95_ms`` / ``lag_max_ms``, send completion minus due time per
line).  Latency is always measured from the *due* time, so a stalled
generator shows up here, as an invalid run, never as a faster system.

It imports nothing from ``repro``: frames and their lengths come from
files the runner wrote, so generating load costs no parsing CPU.
"""

from __future__ import annotations

import json
import math
import os
import socket
import sys
import time

#: Seconds between schedule checks; at 2,500 lines/s a tick carries 2-3
#: frames per tenant, coalesced into one ``sendall``.
_TICK = 0.001
_ACCEPT_TIMEOUT = 120.0
#: Head start between the last accept and line 0, so the system is
#: parked in its first read when the schedule begins.
_LEAD = 0.25


def _percentile(ordered: list[float], q: float) -> float:
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def serve(job: dict) -> dict:
    """Run one schedule; returns the generator's own measurements."""
    rate = job["rate"]
    streams = {}
    listeners = {}
    try:
        for name in job["tenants"]:
            with open(job["frames"][name], "rb") as handle:
                data = handle.read()
            with open(job["lengths"][name], encoding="utf-8") as handle:
                lengths = json.load(handle)
            offsets = [0]
            for length in lengths:
                offsets.append(offsets[-1] + length)
            streams[name] = (data, offsets)
            listener = socket.socket()
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            listener.settimeout(_ACCEPT_TIMEOUT)
            listeners[name] = listener
        ports = {name: listener.getsockname()[1]
                 for name, listener in listeners.items()}
        # Publishing the ports is the "ready" signal the runner waits on.
        with open(job["ports_file"] + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(ports, handle)
        os.replace(job["ports_file"] + ".tmp", job["ports_file"])
        connections = {}
        try:
            for name, listener in listeners.items():
                connections[name], _ = listener.accept()
                connections[name].setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return send_schedule(streams, connections, rate)
        finally:
            for connection in connections.values():
                connection.close()
    finally:
        for listener in listeners.values():
            listener.close()


def send_schedule(streams: dict, connections: dict, rate: float) -> dict:
    """Send every tenant's frames on schedule over its connection.

    ``streams[name]`` is ``(bytes, offsets)``: frame ``i`` is
    ``bytes[offsets[i]:offsets[i + 1]]``.
    """
    total = {name: len(offsets) - 1 for name, (_, offsets) in streams.items()}
    sent = dict.fromkeys(streams, 0)
    lags: list[float] = []
    start = time.monotonic() + _LEAD
    while any(sent[name] < total[name] for name in streams):
        now = time.monotonic()
        if now >= start:
            for name, (data, offsets) in streams.items():
                due = min(total[name], int((now - start) * rate) + 1)
                first = sent[name]
                if due > first:
                    connections[name].sendall(
                        data[offsets[first]:offsets[due]])
                    done = time.monotonic()
                    lags.extend(done - (start + index / rate)
                                for index in range(first, due))
                    sent[name] = due
        time.sleep(_TICK)
    lags.sort()
    return {
        "start": start,
        "end": time.monotonic(),
        "offered_lines": sum(total.values()),
        "lag_p95_ms": _percentile(lags, 95) * 1e3,
        "lag_max_ms": lags[-1] * 1e3,
    }


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        job = json.load(handle)
    if job.get("cpu") is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {job["cpu"]})
    result = serve(job)
    with open(job["result"] + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(job["result"] + ".tmp", job["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
