"""Arithmetic shared by the runner and its self-tests.

Everything here is a pure function of its arguments — no clocks, no I/O —
so the definitions the README gives for latency, failure counting and
percentiles can be checked on hand-built inputs.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q < 100``).

    Raises ``ValueError`` when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond it: a p95 of 60 samples is three numbers' worth
    of evidence, and the bench refuses to print it as a measurement.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}")
    return ordered[rank - 1]


def percentile_or_none(samples: list[float], q: float) -> float | None:
    try:
        return percentile(samples, q)
    except ValueError:
        return None


def trigger_latencies_ms(
    alerts: list[tuple[float, float]],
    line_times: list[float],
    session_timeout: float,
    schedule_start: float,
    event_epoch: float,
) -> tuple[list[float], int]:
    """Open-loop line→alert latency, one sample per alert.

    ``alerts`` holds ``(fired_at, last_event_ts)`` per alert of one
    tenant: the wall time ``on_alert`` ran and the event time of the
    session's last line.  ``line_times`` is that tenant's sorted event
    times; event time ``t`` was *due* on the wire at
    ``schedule_start + (t - event_epoch)``.

    The session closes on the first line of the tenant at or after
    ``last_event_ts + session_timeout`` — the **trigger line**.  The
    sample is ``fired_at`` minus the trigger's due time, so it excludes
    the window length and charges the system for any stall from the
    moment the line should have left the generator.  An alert with no
    trigger line was closed by the end-of-stream flush: counted (second
    return value), not sampled.
    """
    samples: list[float] = []
    flush_only = 0
    for fired_at, last_event_ts in alerts:
        index = bisect.bisect_left(line_times, last_event_ts + session_timeout)
        if index >= len(line_times):
            flush_only += 1
            continue
        due = schedule_start + (line_times[index] - event_epoch)
        samples.append((fired_at - due) * 1e3)
    return samples, flush_only


def alert_mismatches(expected: list, got: list) -> int:
    """Alerts missing or extra versus the oracle, as one count.

    Alerts are compared as whole keys (see ``e2e_sut.alert_key``), as a
    multiset; a run with the right alerts in the wrong order counts one
    mismatch, because report ids make order part of an alert's identity.
    """
    want, have = Counter(map(_freeze, expected)), Counter(map(_freeze, got))
    missing = sum((want - have).values())
    extra = sum((have - want).values())
    if missing or extra:
        return missing + extra
    return 0 if list(map(_freeze, expected)) == list(map(_freeze, got)) else 1


def _freeze(key):
    return tuple(key) if isinstance(key, list) else key


def failures(*, lines_offered: int, lines_processed: int, frame_errors: int,
             late_records: int, alert_mismatch: int,
             oracle_alerts: int) -> tuple[int, int]:
    """``(failed, attempted)`` for one pass.

    Every offered line and every alert the oracle raises is one thing
    the system was asked to get right; a line not processed (or
    processed twice), a rejected frame, a record beyond the lateness
    budget and an alert missing or extra each count one failure.
    """
    failed = (abs(lines_offered - lines_processed) + frame_errors
              + late_records + alert_mismatch)
    return failed, lines_offered + oracle_alerts
