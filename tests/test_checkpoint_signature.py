"""Checkpoint file signatures: resume must notice rotation and rewrite.

A byte offset alone cannot tell which file it refers to.  The
signature (inode/device + head-bytes hash) stored next to each
committed offset lets a restarted tail distinguish the three cases:

* untouched or appended file  → resume at the offset (no re-emit);
* rotated file, even to one of the same size → restart from the top;
* rewritten-in-place file     → restart from the top.
"""

import asyncio
import json
import os

import pytest

from repro.ingest import CheckpointStore, FileTailSource, IngestService
from repro.ingest.service import IngestConfig
from repro.ingest.sources import _SIGNATURE_HEAD_BYTES


def _drain(path, checkpoint):
    """Run one --once-style ingest over ``path``; return record messages."""

    class Sink:
        def __init__(self):
            self.messages = []

        def process(self, records):
            self.messages.extend(record.message for record in records)
            return []

    sink = Sink()
    source = FileTailSource(path, name="tail", follow=False)
    service = IngestService(
        [source], sink,
        config=IngestConfig(batch_size=8, max_batch_age=5.0, lateness=0.0),
        checkpoint=checkpoint,
    )
    asyncio.run(service.run())
    return sink.messages, source


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@pytest.fixture
def log(tmp_path):
    path = tmp_path / "svc.log"
    _write(path, [f"2024-01-01 00:00:{i:02d} - svc - INFO - event {i}"
                  for i in range(8)])
    return path


class TestSignatureCapture:
    def test_signature_identifies_the_file(self, log):
        source = FileTailSource(log, name="tail")
        signature = source.signature()
        status = os.stat(log)
        assert signature["inode"] == status.st_ino
        assert signature["device"] == status.st_dev
        assert signature["head_len"] == min(status.st_size,
                                            _SIGNATURE_HEAD_BYTES)
        assert len(signature["head_sha1"]) == 40

    def test_signature_none_for_missing_file(self, tmp_path):
        assert FileTailSource(tmp_path / "nope.log").signature() is None

    def test_signature_stable_across_appends(self, log):
        source = FileTailSource(log, name="tail")
        before = source.signature()
        with open(log, "a", encoding="utf-8") as handle:
            handle.write("2024-01-01 00:01:00 - svc - INFO - more\n")
        assert source.signature() == before

    def test_checkpoint_persists_signature(self, log, tmp_path):
        store_path = tmp_path / "offsets.json"
        _, source = _drain(log, CheckpointStore(store_path))
        payload = json.loads(store_path.read_text())
        assert payload["tail"]["offset"] == os.path.getsize(log)
        assert payload["tail"]["signature"]["inode"] == os.stat(log).st_ino

    def test_legacy_integer_checkpoints_still_load(self, tmp_path):
        store_path = tmp_path / "offsets.json"
        store_path.write_text(json.dumps({"tail": 123}))
        store = CheckpointStore(store_path)
        assert store.get("tail") == 123
        assert store.get_signature("tail") is None

    def test_none_signature_keeps_the_stored_identity(self, tmp_path):
        # A commit landing while the file is mid-rotation (signature
        # momentarily unavailable) must not erase the stored identity —
        # that would silently disable the stale-offset protection.
        store = CheckpointStore(tmp_path / "offsets.json")
        signature = {"inode": 1, "device": 2, "head_len": 3,
                     "head_sha1": "ab"}
        store.update("tail", 100, signature)
        store.update("tail", 150, None)
        assert store.get("tail") == 150
        assert store.get_signature("tail") == signature


class TestResumeDecisions:
    def test_append_resumes_without_reemitting(self, log, tmp_path):
        store_path = tmp_path / "offsets.json"
        first, _ = _drain(log, CheckpointStore(store_path))
        assert len(first) == 8
        with open(log, "a", encoding="utf-8") as handle:
            handle.write("2024-01-01 00:01:00 - svc - INFO - appended\n")
        second, source = _drain(log, CheckpointStore(store_path))
        assert [m.split(" - ")[-1] for m in second] == ["appended"]
        assert source.rotations == 0
        assert source.truncations == 0

    def test_rotation_with_same_size_restarts(self, log, tmp_path):
        # The case a bare offset cannot see: the rotated-in file has
        # exactly the old size, so seek(offset) would "succeed" at EOF
        # and silently emit nothing.
        store_path = tmp_path / "offsets.json"
        first, _ = _drain(log, CheckpointStore(store_path))
        size = os.path.getsize(log)
        rotated = log.parent / "svc.log.rotated"
        os.rename(log, rotated)
        _write(log, [f"2024-01-01 00:02:{i:02d} - svc - INFO - fresh {i}"
                     for i in range(8)])
        assert os.path.getsize(log) == size  # same-size rotation, by design
        second, source = _drain(log, CheckpointStore(store_path))
        assert len(second) == 8, "the fresh file must re-emit from the top"
        assert all("fresh" in message for message in second)
        assert source.rotations == 1
        assert source.truncations == 0

    def test_in_place_rewrite_restarts(self, log, tmp_path):
        store_path = tmp_path / "offsets.json"
        _drain(log, CheckpointStore(store_path))
        size = os.path.getsize(log)
        # Same inode, same size, different bytes: an in-place rewrite.
        _write(log, [f"2024-01-01 00:03:{i:02d} - svc - INFO - fixed {i}"
                     for i in range(8)])
        assert os.path.getsize(log) == size
        second, source = _drain(log, CheckpointStore(store_path))
        assert len(second) == 8
        assert all("fixed" in message for message in second)
        assert source.rotations == 0
        assert source.truncations == 1

    def test_legacy_checkpoint_without_signature_trusts_offset(
        self, log, tmp_path
    ):
        store_path = tmp_path / "offsets.json"
        _drain(log, CheckpointStore(store_path))
        # Strip the signature, as a pre-signature checkpoint would be.
        payload = json.loads(store_path.read_text())
        store_path.write_text(json.dumps(
            {name: entry["offset"] for name, entry in payload.items()}
        ))
        with open(log, "a", encoding="utf-8") as handle:
            handle.write("2024-01-01 00:04:00 - svc - INFO - late\n")
        second, _ = _drain(log, CheckpointStore(store_path))
        assert [m.split(" - ")[-1] for m in second] == ["late"]

    def test_missing_file_keeps_offset_for_reappearance(self, log, tmp_path):
        store_path = tmp_path / "offsets.json"
        _drain(log, CheckpointStore(store_path))
        signature = CheckpointStore(store_path).get_signature("tail")
        offset = CheckpointStore(store_path).get("tail")
        os.remove(log)
        source = FileTailSource(log, name="tail", follow=False)
        assert source.resume_offset(offset, signature) == offset


class TestNamespacedCheckpoints:
    """Per-tenant views over one shared store (the gateway's layout)."""

    def test_namespaces_keep_same_source_names_disjoint(self, tmp_path):
        store = CheckpointStore(tmp_path / "shared.json")
        acme = store.namespaced("acme")
        globex = store.namespaced("globex")
        acme.update("tail", 100, {"kind": "sig"})
        globex.update("tail", 7, None)
        acme.save()
        assert acme.get("tail") == 100
        assert globex.get("tail") == 7
        assert acme.get_signature("tail") == {"kind": "sig"}
        assert globex.get_signature("tail") is None
        # The backing store sees the prefixed keys, nothing else.
        reloaded = CheckpointStore(tmp_path / "shared.json")
        assert reloaded.get("acme/tail") == 100
        assert reloaded.get("globex/tail") == 7
        assert reloaded.get("tail") == 0

    def test_legacy_unprefixed_keys_are_untouched(self, tmp_path):
        store = CheckpointStore(tmp_path / "shared.json")
        store.update("tail", 42)
        view = store.namespaced("acme")
        view.update("tail", 5)
        assert store.get("tail") == 42
        assert view.get("tail") == 5

    @pytest.mark.parametrize("bad", ["", "a/b", "/"])
    def test_invalid_namespace_rejected(self, bad, tmp_path):
        store = CheckpointStore(tmp_path / "shared.json")
        with pytest.raises(ValueError, match="namespace"):
            store.namespaced(bad)
