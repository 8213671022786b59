"""Real-time monitoring: alerts emitted while the stream flows.

The offline API (`Pipeline.run_offline`) scores sessions after the stream ends;
a production MoniLog must page the on-call team the moment an
anomalous session goes quiet.  This example drives a streaming-mode
:class:`~repro.api.pipeline.Pipeline` record by record and reports
each alert's *detection latency*: the stream time between the
anomaly's last log line and the alert firing.

Run:  python examples/realtime_stream.py
"""

from repro import Pipeline, PipelineSpec
from repro.datasets import generate_cloud_platform


def main() -> None:
    # Anomaly-free history: training on a stream that already contains
    # anomalies teaches them as normal flow (experiment X1 measures
    # exactly that), so a real deployment trains on vetted periods.
    history = generate_cloud_platform(sessions=400, anomaly_rate=0.0, seed=10)
    live = generate_cloud_platform(sessions=300, anomaly_rate=0.06, seed=77)

    spec = PipelineSpec(detector="deeplog",
                        detector_options={"epochs": 8, "seed": 0},
                        streaming=True, session_timeout=5.0)
    streaming = Pipeline.from_spec(spec)
    print(f"training on {len(history.records)} historical records ...")
    streaming.fit(history.records)
    print(f"streaming {len(live.records)} live records ...\n")

    session_last_event: dict[str, float] = {}
    alerts = 0
    for record in live.records:
        if record.session_id:
            session_last_event[record.session_id] = record.timestamp
        for alert in streaming.process_record(record):
            alerts += 1
            session_id = alert.report.session_id
            latency = record.timestamp - session_last_event.get(
                session_id, record.timestamp
            )
            truth = live.sessions.get(session_id)
            kind = truth.kind if truth and truth.anomalous else "false alarm"
            print(
                f"  t={record.timestamp:8.2f}s  ALERT {session_id} "
                f"({kind}) — fired {latency:.2f}s after the session went quiet"
            )
    for alert in streaming.flush():
        alerts += 1
        print(f"  [flush] ALERT {alert.report.session_id}")

    print(
        f"\n{alerts} alerts; peak concurrent open sessions: "
        f"{streaming.sessionizer.open_sessions} at shutdown, "
        f"{streaming.stats().windows_scored} windows scored in total"
    )


if __name__ == "__main__":
    main()
