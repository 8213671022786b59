"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "cloud.log"
    labels = tmp_path / "labels.tsv"
    exit_code = main([
        "generate", "--dataset", "cloud", "--sessions", "150",
        "--anomaly-rate", "0.08", "--seed", "3",
        "--output", str(path), "--labels", str(labels),
    ])
    assert exit_code == 0
    return path, labels


class TestGenerate:
    def test_writes_parseable_log_file(self, corpus_file, capsys):
        path, labels = corpus_file
        lines = path.read_text().splitlines()
        assert len(lines) > 300
        assert " - api - " in "\n".join(lines[:50]) or " - storage - " in \
            "\n".join(lines[:50]) or " - network - " in "\n".join(lines[:50])
        label_lines = labels.read_text().splitlines()
        assert len(label_lines) == 150
        assert any(line.split("\t")[1] == "1" for line in label_lines)


class TestParse:
    def test_prints_template_table(self, corpus_file, capsys):
        path, _ = corpus_file
        exit_code = main([
            "parse", "--input", str(path), "--parser", "drain", "--masking",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "templates" in output
        assert "<*>" in output

    def test_batch_parser_supported(self, corpus_file, capsys):
        path, _ = corpus_file
        assert main([
            "parse", "--input", str(path), "--parser", "slct", "--masking",
        ]) == 0
        assert "templates" in capsys.readouterr().out

    def test_unknown_parser_rejected(self, corpus_file):
        path, _ = corpus_file
        with pytest.raises(SystemExit):
            main(["parse", "--input", str(path), "--parser", "nonsense"])

    def test_sharded_parse_output_is_executor_invariant(self, corpus_file,
                                                        capsys):
        path, _ = corpus_file
        outputs = []
        for executor in ("serial", "thread"):
            capsys.readouterr()
            exit_code = main([
                "parse", "--input", str(path), "--parser", "drain",
                "--masking", "--shards", "3", "--executor", executor,
            ])
            assert exit_code == 0
            output = capsys.readouterr().out
            assert "shard loads" in output
            outputs.append(output.replace(executor, "<executor>"))
        assert outputs[0] == outputs[1]

    def test_shards_require_drain(self, corpus_file):
        path, _ = corpus_file
        with pytest.raises(SystemExit, match="distributed Drain"):
            main(["parse", "--input", str(path), "--parser", "spell",
                  "--shards", "2"])

    def test_bad_shard_counts_rejected_at_the_flag(self, corpus_file):
        path, _ = corpus_file
        with pytest.raises(SystemExit):
            main(["parse", "--input", str(path), "--shards", "-1"])
        with pytest.raises(SystemExit):
            main(["pipeline", "--history", str(path), "--live", str(path),
                  "--shards", "2", "--detector-shards", "0"])


class TestDetect:
    def test_keyword_detector_runs(self, corpus_file, capsys):
        path, _ = corpus_file
        exit_code = main([
            "detect", "--input", str(path), "--detector", "keyword",
            "--masking",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "sessions flagged by keyword" in output

    def test_counter_detector_runs(self, corpus_file, capsys):
        path, _ = corpus_file
        exit_code = main([
            "detect", "--input", str(path), "--detector", "invariants",
            "--masking",
        ])
        assert exit_code == 0
        assert "invariants" in capsys.readouterr().out

    def test_batch_parser_supported(self, corpus_file, capsys):
        # Batch miners need a fit pass before parsing; the detect
        # command must provide it like the parse command does.
        path, _ = corpus_file
        exit_code = main([
            "detect", "--input", str(path), "--detector", "keyword",
            "--parser", "slct", "--masking",
        ])
        assert exit_code == 0
        assert "sessions flagged" in capsys.readouterr().out


class TestPipeline:
    def test_full_pipeline_over_files(self, tmp_path, capsys):
        history = tmp_path / "history.log"
        live = tmp_path / "live.log"
        main(["generate", "--dataset", "cloud", "--sessions", "200",
              "--anomaly-rate", "0.0", "--seed", "1",
              "--output", str(history)])
        main(["generate", "--dataset", "cloud", "--sessions", "80",
              "--anomaly-rate", "0.1", "--seed", "2",
              "--output", str(live)])
        capsys.readouterr()
        exit_code = main([
            "pipeline", "--history", str(history), "--live", str(live),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "parsed" in output
        assert "anomalies" in output

    def test_sharded_pipeline_is_executor_invariant(self, tmp_path, capsys):
        history = tmp_path / "history.log"
        live = tmp_path / "live.log"
        main(["generate", "--dataset", "cloud", "--sessions", "120",
              "--anomaly-rate", "0.0", "--seed", "5",
              "--output", str(history)])
        main(["generate", "--dataset", "cloud", "--sessions", "50",
              "--anomaly-rate", "0.1", "--seed", "6",
              "--output", str(live)])
        outputs = []
        for executor in ("serial", "thread"):
            capsys.readouterr()
            exit_code = main([
                "pipeline", "--history", str(history), "--live", str(live),
                "--shards", "3", "--detector-shards", "1",
                "--executor", executor,
            ])
            assert exit_code == 0
            output = capsys.readouterr().out
            assert "across 3 shards" in output
            outputs.append(output.replace(executor, "<executor>"))
        assert outputs[0] == outputs[1]
        # --batch-size 0 means per-record; for the sharded runtime that
        # is micro-batches of one, and alerts must not change.
        capsys.readouterr()
        assert main([
            "pipeline", "--history", str(history), "--live", str(live),
            "--shards", "3", "--detector-shards", "1",
            "--executor", "serial", "--batch-size", "0",
        ]) == 0
        assert capsys.readouterr().out.replace("serial", "<executor>") == \
            outputs[0]


class TestTail:
    @pytest.fixture
    def corpus(self, tmp_path):
        history = tmp_path / "history.log"
        live = tmp_path / "live.log"
        main(["generate", "--dataset", "cloud", "--sessions", "150",
              "--anomaly-rate", "0.0", "--seed", "7",
              "--output", str(history)])
        main(["generate", "--dataset", "cloud", "--sessions", "60",
              "--anomaly-rate", "0.12", "--seed", "8",
              "--output", str(live)])
        return history, live

    @staticmethod
    def _ingested(output: str) -> int:
        match = re.search(r"ingested (\d+) records", output)
        assert match, f"no ingest summary in output:\n{output}"
        return int(match.group(1))

    def test_once_drains_file_and_reports(self, corpus, capsys):
        history, live = corpus
        exit_code = main([
            "tail", "--history", str(history), "--source", str(live),
            "--once", "--session-timeout", "10", "--batch-size", "64",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        total = len(live.read_text().splitlines())
        assert self._ingested(output) == total
        assert "pool=" in output  # the anomalous sessions must alert
        assert "credit waits" in output

    def test_checkpoint_resume_skips_processed_records(self, corpus, tmp_path,
                                                       capsys):
        history, live = corpus
        checkpoint = tmp_path / "offsets.json"
        lines = live.read_text().splitlines(keepends=True)
        cut = len(lines) * 2 // 3
        live.write_text("".join(lines[:cut]), encoding="utf-8")

        base = ["tail", "--history", str(history), "--source", str(live),
                "--once", "--session-timeout", "10",
                "--checkpoint", str(checkpoint)]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert self._ingested(first) == cut
        first_alerts = [l for l in first.splitlines() if "pool=" in l]
        assert checkpoint.exists()

        # Interrupted-and-restarted: the writer appended the rest.
        live.write_text("".join(lines), encoding="utf-8")
        assert main(base) == 0
        second = capsys.readouterr().out
        assert self._ingested(second) == len(lines) - cut, \
            "resume must not re-emit already-processed records"
        second_alerts = [l for l in second.splitlines() if "pool=" in l]
        # Re-run over the appended suffix only: no alert from the first
        # run may reappear.
        assert not set(first_alerts) & set(second_alerts)

        # A third run with nothing appended ingests nothing.
        assert main(base) == 0
        assert self._ingested(capsys.readouterr().out) == 0

    def test_sharded_tail_runs(self, corpus, capsys):
        history, live = corpus
        exit_code = main([
            "tail", "--history", str(history), "--source", str(live),
            "--once", "--session-timeout", "10",
            "--shards", "2", "--detector-shards", "1",
            "--executor", "thread",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert self._ingested(output) == len(live.read_text().splitlines())

    def test_spec_sources_honor_once(self, corpus, tmp_path, capsys):
        # [[sources]] declared in a spec file must inherit the run
        # mode: with --once the file tail drains and terminates
        # instead of following forever.
        history, live = corpus
        spec = tmp_path / "tail.toml"
        spec.write_text(
            'detector = "keyword"\n'
            "session_timeout = 10.0\n"
            "[[sources]]\n"
            'type = "file"\n'
            f'path = "{live}"\n'
        )
        exit_code = main([
            "tail", "--history", str(history), "--spec", str(spec), "--once",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert self._ingested(output) == len(live.read_text().splitlines())

    def test_tail_requires_a_source(self, corpus):
        history, _ = corpus
        with pytest.raises(SystemExit, match="--source or --socket"):
            main(["tail", "--history", str(history), "--once"])

    def test_bad_socket_spec_rejected(self, corpus):
        history, _ = corpus
        with pytest.raises(SystemExit):
            main(["tail", "--history", str(history),
                  "--socket", "no-port-here", "--once"])

    def test_once_with_unreachable_socket_terminates(self, corpus, capsys):
        # --once promises termination; a dead peer must give up after
        # bounded dial attempts instead of retrying forever.
        history, _ = corpus
        exit_code = main([
            "tail", "--history", str(history),
            "--socket", "127.0.0.1:1", "--once",
        ])
        assert exit_code == 0
        assert self._ingested(capsys.readouterr().out) == 0


class TestStats:
    @pytest.fixture
    def corpus(self, tmp_path):
        history = tmp_path / "history.log"
        live = tmp_path / "live.log"
        main(["generate", "--dataset", "cloud", "--sessions", "100",
              "--anomaly-rate", "0.0", "--seed", "9",
              "--output", str(history)])
        main(["generate", "--dataset", "cloud", "--sessions", "40",
              "--anomaly-rate", "0.1", "--seed", "10",
              "--output", str(live)])
        return history, live

    def test_prints_json_snapshot(self, corpus, capsys):
        import json

        history, live = corpus
        capsys.readouterr()
        exit_code = main([
            "stats", "--history", str(history), "--live", str(live),
        ])
        assert exit_code == 0
        snapshot = json.loads(capsys.readouterr().out)
        metrics = snapshot["metrics"]
        parsed = metrics["monilog_records_parsed_total"]["values"][0]["value"]
        total = len(history.read_text().splitlines()) + \
            len(live.read_text().splitlines())
        assert parsed == total
        assert metrics["monilog_parse_seconds"]["values"][0]["count"] > 0
        assert "advisories" in snapshot

    def test_scrape_serves_well_formed_prometheus_text(self, corpus, capsys):
        history, live = corpus
        capsys.readouterr()
        exit_code = main([
            "stats", "--history", str(history), "--live", str(live),
            "--metrics-port", "0", "--scrape", "--autoscale",
        ])
        assert exit_code == 0
        text = capsys.readouterr().out
        assert "# TYPE monilog_records_parsed_total counter" in text
        assert "# TYPE monilog_parse_seconds histogram" in text
        assert 'monilog_parse_seconds_bucket{le="+Inf"}' in text
        assert "monilog_autoscale_ticks_total 1" in text
        # Every sample line is "name{labels} value" with a float value.
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                assert name and float(value) is not None

    def test_tail_with_metrics_and_autoscale(self, corpus, capsys):
        history, live = corpus
        capsys.readouterr()
        exit_code = main([
            "tail", "--history", str(history), "--source", str(live),
            "--once", "--session-timeout", "10",
            "--metrics-port", "0", "--autoscale",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "serving metrics on http://127.0.0.1:" in output
        assert "autoscale:" in output


class TestServe:
    """The multi-tenant gateway command."""

    @pytest.fixture
    def gateway_spec(self, tmp_path):
        history = tmp_path / "history.log"
        live_a = tmp_path / "acme.log"
        live_b = tmp_path / "globex.log"
        main(["generate", "--dataset", "cloud", "--sessions", "80",
              "--anomaly-rate", "0.0", "--seed", "3",
              "--output", str(history)])
        main(["generate", "--dataset", "cloud", "--sessions", "30",
              "--anomaly-rate", "0.2", "--seed", "4",
              "--output", str(live_a)])
        main(["generate", "--dataset", "cloud", "--sessions", "20",
              "--anomaly-rate", "0.0", "--seed", "5",
              "--output", str(live_b)])
        spec = tmp_path / "gateway.toml"
        spec.write_text(
            'detector = "keyword"\n'
            "session_timeout = 10.0\n"
            f'history = "{history}"\n'
            "[tenants.acme]\n"
            "[[tenants.acme.sources]]\n"
            'type = "file"\n'
            f'path = "{live_a}"\n'
            "[tenants.globex]\n"
            "[[tenants.globex.sources]]\n"
            'type = "file"\n'
            f'path = "{live_b}"\n'
        )
        return spec, history, live_a

    def test_serve_once_tags_alerts_and_summarizes_tenants(
            self, gateway_spec, capsys):
        spec, _, _ = gateway_spec
        capsys.readouterr()
        exit_code = main(["serve", "--spec", str(spec), "--once"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "serving tenants: acme, globex" in output
        assert "tenant=acme" in output  # live_a carries anomalies
        assert "tenant acme" in output and "tenant globex" in output
        assert "total alerts:" in output

    def test_serve_rejects_single_tenant_spec(self, tmp_path):
        spec = tmp_path / "plain.toml"
        spec.write_text('detector = "keyword"\n')
        with pytest.raises(SystemExit, match="repro tail"):
            main(["serve", "--spec", str(spec), "--once"])

    def test_serve_requires_tenant_history(self, gateway_spec, tmp_path):
        text = gateway_spec[0].read_text()
        spec = tmp_path / "nohist.toml"
        spec.write_text("\n".join(
            line for line in text.splitlines()
            if not line.startswith("history")) + "\n")
        with pytest.raises(SystemExit, match="training corpus"):
            main(["serve", "--spec", str(spec), "--once"])

    def test_serve_requires_tenant_sources(self, gateway_spec, tmp_path):
        text = gateway_spec[0].read_text()
        spec = tmp_path / "nosrc.toml"
        spec.write_text(text + "[tenants.initech]\n")
        with pytest.raises(SystemExit, match="initech"):
            main(["serve", "--spec", str(spec), "--once"])

    def test_stats_tenant_filters_the_scrape(self, gateway_spec, capsys):
        spec, history, live = gateway_spec
        capsys.readouterr()
        exit_code = main([
            "stats", "--history", str(history), "--live", str(live),
            "--spec", str(spec),
            "--scrape", "--tenant", "acme",
        ])
        assert exit_code == 0
        text = capsys.readouterr().out
        sample_lines = [line for line in text.splitlines()
                        if line and not line.startswith("#")]
        assert sample_lines
        assert all('tenant="acme"' in line for line in sample_lines)
        assert 'tenant="globex"' not in text

    def test_stats_tenant_needs_multitenant_spec(self, tmp_path):
        live = tmp_path / "live.log"
        main(["generate", "--dataset", "cloud", "--sessions", "10",
              "--output", str(live)])
        with pytest.raises(SystemExit, match="tenants"):
            main(["stats", "--history", str(live), "--live", str(live),
                  "--tenant", "acme"])

    def test_stats_unknown_tenant_rejected(self, gateway_spec):
        spec, history, live = gateway_spec
        with pytest.raises(SystemExit, match="declared"):
            main(["stats", "--history", str(history), "--live", str(live),
                  "--spec", str(spec), "--tenant", "nope"])


class TestProfile:
    def test_reports_achieved_rate_and_warns_on_shortfall(
            self, corpus_file, capsys):
        """The table says what rate it was actually sampled at, and a
        rate the sampler cannot reach (10 kHz against a busy
        interpreter) is called out instead of silently under-run."""
        path, _ = corpus_file
        capsys.readouterr()
        assert main([
            "profile", "--history", str(path), "--live", str(path),
            "--detector", "keyword", "--profile-hz", "10000",
            "--repeat", "2", "--limit", "3",
        ]) == 0
        captured = capsys.readouterr()
        title = re.search(r"sampled at (\d+) of 10000 Hz", captured.out)
        assert title, captured.out
        assert int(title.group(1)) < 5000
        assert "warning: the sampler achieved" in captured.err
