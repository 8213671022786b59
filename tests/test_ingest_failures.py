"""Ingestion failure paths: the ways live sources actually break.

The satellite checklist of the ingestion PR: mid-line EOF on a tailed
file, rotation and truncation during a read, socket disconnect /
reconnect, and cancellation flushing the batcher without dropping
records.  Each test drives the real async machinery with tight
timeouts so the suite stays seconds-scale.
"""

import asyncio
import os
import time

import pytest

from repro.ingest import (
    AsyncSourceAdapter,
    FileTailSource,
    IngestService,
    SocketSource,
)
from repro.ingest.service import IngestConfig
from repro.logs.formats import render_line
from repro.logs.sources import ReplaySource

from conftest import make_record


def line(message: str, timestamp: float, source: str = "svc") -> str:
    return render_line(make_record(message, timestamp=timestamp,
                                   source=source)) + "\n"


class TailHarness:
    """Run a following FileTailSource in the background; collect items."""

    def __init__(self, source: FileTailSource):
        self.source = source
        self.items = []
        self._task = None

    async def __aenter__(self):
        async def pump():
            async for item in self.source.items():
                self.items.append(item)

        self._task = asyncio.ensure_future(pump())
        return self

    async def __aexit__(self, *exc_info):
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass

    async def wait_for(self, count: int, timeout: float = 5.0):
        deadline = time.monotonic() + timeout
        while len(self.items) < count:
            assert time.monotonic() < deadline, (
                f"timed out waiting for {count} items, "
                f"got {len(self.items)}"
            )
            await asyncio.sleep(0.005)

    @property
    def messages(self):
        return [item.record.message for item in self.items]


class TestMidLineEOF:
    def test_partial_line_held_until_newline_arrives(self, tmp_path):
        path = tmp_path / "svc.log"
        path.write_text(line("before the break", 1.0), encoding="utf-8")

        async def scenario():
            source = FileTailSource(path, follow=True, poll_interval=0.01)
            async with TailHarness(source) as tail:
                await tail.wait_for(1)
                # Simulate a writer caught mid-line: no trailing newline.
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(line("completed later", 2.0)[:-20])
                    handle.flush()
                await asyncio.sleep(0.05)
                assert len(tail.items) == 1, \
                    "a partial line must not be emitted while following"
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(line("completed later", 2.0)[-20:])
                await tail.wait_for(2)
                assert tail.messages == ["before the break",
                                         "completed later"]

        asyncio.run(scenario())

    def test_crlf_lines_match_offline_text_mode_reader(self, tmp_path):
        # Byte-mode splitting must not leak the \r of CRLF files into
        # messages the offline universal-newlines reader never sees.
        path = tmp_path / "crlf.log"
        body = (line("windows shipper line", 1.0).rstrip("\n")
                + "\r\nnot a header at all\r\n")
        path.write_bytes(body.encode("utf-8"))
        from repro.logs.formats import read_log_lines
        with open(path, encoding="utf-8") as handle:
            offline = list(read_log_lines(handle, source="crlf.log"))

        async def scenario():
            source = FileTailSource(path, follow=False)
            return [item.record async for item in source.items()]

        records = asyncio.run(scenario())
        assert records == offline
        assert not any(record.message.endswith("\r") for record in records)

    def test_drain_mode_emits_trailing_partial_line(self, tmp_path):
        path = tmp_path / "svc.log"
        content = line("whole line", 1.0) + "tail without newline"
        path.write_text(content, encoding="utf-8")

        async def scenario():
            source = FileTailSource(path, follow=False)
            return [item async for item in source.items()]

        items = asyncio.run(scenario())
        assert [item.record.message for item in items][-1] == \
            "tail without newline"
        assert items[-1].offset == len(content.encode("utf-8"))


class TestRotationAndTruncation:
    def test_rotation_during_read_is_followed(self, tmp_path):
        path = tmp_path / "svc.log"
        path.write_text(line("old file 1", 1.0) + line("old file 2", 2.0),
                        encoding="utf-8")

        async def scenario():
            source = FileTailSource(path, follow=True, poll_interval=0.01)
            async with TailHarness(source) as tail:
                await tail.wait_for(2)
                os.rename(path, tmp_path / "svc.log.1")  # logrotate move
                path.write_text(line("new file 1", 3.0), encoding="utf-8")
                await tail.wait_for(3)
                assert tail.messages == ["old file 1", "old file 2",
                                         "new file 1"]
                assert source.rotations == 1
                # Offsets restart with the new file's byte positions.
                assert tail.items[-1].offset == path.stat().st_size

        asyncio.run(scenario())

    def test_truncation_rewinds_to_start(self, tmp_path):
        path = tmp_path / "svc.log"
        path.write_text(line("long old content a", 1.0)
                        + line("long old content b", 2.0), encoding="utf-8")

        async def scenario():
            source = FileTailSource(path, follow=True, poll_interval=0.01)
            async with TailHarness(source) as tail:
                await tail.wait_for(2)
                path.write_text(line("fresh", 3.0), encoding="utf-8")
                await tail.wait_for(3)
                assert tail.messages[-1] == "fresh"
                assert source.truncations == 1

        asyncio.run(scenario())

    def test_checkpoint_beyond_file_size_restarts_from_top(self, tmp_path):
        path = tmp_path / "svc.log"
        path.write_text(line("only line", 1.0), encoding="utf-8")

        async def scenario():
            source = FileTailSource(path, follow=False)
            return source, [item async for item in
                            source.items(start_offset=10_000)]

        source, items = asyncio.run(scenario())
        assert [item.record.message for item in items] == ["only line"]
        assert source.truncations == 1


class TestSocketDisconnectReconnect:
    def test_reconnects_and_keeps_offsets_monotone(self):
        async def scenario():
            batches = [
                [line(f"first {index}", float(index)) for index in range(3)],
                [line(f"second {index}", 10.0 + index) for index in range(3)],
            ]
            served = 0

            async def serve(reader, writer):
                nonlocal served
                payload = batches[min(served, len(batches) - 1)]
                served += 1
                writer.write("".join(payload).encode())
                await writer.drain()
                writer.close()  # drop the client mid-stream

            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            source = SocketSource("127.0.0.1", port, name="flaky",
                                  reconnect=True, reconnect_delay=0.01)
            items = []

            async def pump():
                async for item in source.items():
                    items.append(item)

            task = asyncio.ensure_future(pump())
            deadline = time.monotonic() + 5.0
            while len(items) < 6 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            server.close()
            await server.wait_closed()
            return source, items

        source, items = asyncio.run(scenario())
        assert len(items) >= 6
        assert source.connects >= 2
        assert source.disconnects >= 1
        offsets = [item.offset for item in items]
        assert offsets == sorted(offsets)
        assert [item.record.message for item in items[:6]] == [
            "first 0", "first 1", "first 2",
            "second 0", "second 1", "second 2",
        ]

    def test_vanished_server_eventually_gives_up(self):
        async def scenario():
            server = await asyncio.start_server(
                lambda reader, writer: writer.close(), "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()
            source = SocketSource("127.0.0.1", port, reconnect_delay=0.01,
                                  max_connect_attempts=2)
            return [item async for item in source.items()]

        assert asyncio.run(scenario()) == []


class TestCancellationFlushesBatcher:
    def test_stop_flushes_partial_batch_without_drops(self):
        class Recording:
            def __init__(self):
                self.records = []
                self.flushed = False

            def process(self, records):
                self.records.extend(records)
                return []

            def flush(self):
                self.flushed = True
                return []

        pipeline = Recording()
        records = [make_record(f"m{index}", timestamp=float(index))
                   for index in range(7)]

        class Stalling(AsyncSourceAdapter):
            """Emits everything, then hangs like a quiet live source."""

            async def items(self, start_offset=0):
                async for item in super().items(start_offset):
                    yield item
                await asyncio.Event().wait()  # never set: quiet forever

        service = IngestService(
            [Stalling(ReplaySource("quiet", records))],
            pipeline,
            # Batch bigger than the corpus and a long age: nothing
            # would flush before the stop without the shutdown path.
            config=IngestConfig(batch_size=100, max_batch_age=60.0,
                                lateness=0.0),
        )

        async def scenario():
            task = asyncio.ensure_future(service.run())
            deadline = time.monotonic() + 5.0
            while (service.stats().records_in.get("quiet", 0) < 7
                   and time.monotonic() < deadline):
                await asyncio.sleep(0.005)
            service.stop()
            await task

        asyncio.run(scenario())
        assert [record.message for record in pipeline.records] == \
            [f"m{index}" for index in range(7)]
        assert pipeline.flushed, "shutdown must flush the pipeline's sessions"
        assert service.stats().committed == {"quiet": 7}

    def test_reader_error_surfaces_even_when_racing_stop(self):
        # A source that dies in the same instant stop() fires delivers
        # its failure sentinel to the shutdown drain, not the main
        # loop — the run must still fail loudly, after flushing.
        class Recording:
            def __init__(self):
                self.records = []

            def process(self, records):
                self.records.extend(records)
                return []

        records = [make_record(f"m{index}", timestamp=float(index))
                   for index in range(3)]

        class Dying(AsyncSourceAdapter):
            def __init__(self, source, service_box):
                super().__init__(source)
                self._box = service_box

            async def items(self, start_offset=0):
                async for item in super().items(start_offset):
                    yield item
                self._box[0].stop()  # stop lands first ...
                raise OSError("source directory vanished")  # ... then this

        pipeline = Recording()
        box = []
        service = IngestService(
            [Dying(ReplaySource("doomed", records), box)],
            pipeline,
            config=IngestConfig(batch_size=100, max_batch_age=60.0,
                                lateness=0.0),
        )
        box.append(service)
        with pytest.raises(OSError, match="vanished"):
            asyncio.run(service.run())
        assert len(pipeline.records) == 3, "flush must precede the raise"

    def test_hard_cancellation_still_flushes_read_records(self):
        class Recording:
            def __init__(self):
                self.records = []

            def process(self, records):
                self.records.extend(records)
                return []

        pipeline = Recording()
        records = [make_record(f"m{index}", timestamp=float(index))
                   for index in range(5)]

        class Stalling(AsyncSourceAdapter):
            async def items(self, start_offset=0):
                async for item in super().items(start_offset):
                    yield item
                await asyncio.Event().wait()

        service = IngestService(
            [Stalling(ReplaySource("quiet", records))],
            pipeline,
            config=IngestConfig(batch_size=100, max_batch_age=60.0,
                                lateness=0.0),
        )

        async def scenario():
            task = asyncio.ensure_future(service.run())
            deadline = time.monotonic() + 5.0
            while (service.stats().records_in.get("quiet", 0) < 5
                   and time.monotonic() < deadline):
                await asyncio.sleep(0.005)
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

        asyncio.run(scenario())
        assert len(pipeline.records) == 5, \
            "records already read must reach the pipeline even on cancel"
