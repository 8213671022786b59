"""Unit tests for the pluggable shard executor layer.

The executors promise three things the sharded runtimes build on:
results come back in task order regardless of completion order, the
``shares_memory`` contract matches where tasks actually ran, and
executors behave as process-wide resources (deepcopy shares, pickling
rehydrates by name).
"""

from __future__ import annotations

import copy
import os
import pickle
import threading
import time

import pytest

from repro.api.spec import PipelineSpec
from repro.core.executors import (
    EXECUTOR_ENV,
    EXECUTORS,
    ProcessExecutor,
    SerialExecutor,
    ShardExecutor,
    ThreadedExecutor,
    default_executor_name,
    resolve_executor,
)


def _square(value: int) -> int:
    """Module-level so the process executor can pickle a reference."""
    return value * value


def _pid(_task) -> int:
    return os.getpid()


@pytest.fixture(params=["serial", "thread", "process"])
def executor(request):
    instance = resolve_executor(request.param)
    yield instance
    instance.close()


class TestMapContract:
    def test_results_in_task_order(self, executor):
        assert executor.map(_square, list(range(12))) == [
            value * value for value in range(12)
        ]

    def test_empty_and_single_task(self, executor):
        assert executor.map(_square, []) == []
        assert executor.map(_square, [7]) == [49]

    def test_thread_map_preserves_order_under_skewed_durations(self):
        executor = ThreadedExecutor(max_workers=4)

        def slow_first(value: int) -> int:
            # The first task sleeps longest; ordered results prove the
            # executor reorders by task, not by completion.
            time.sleep(0.05 if value == 0 else 0.0)
            return value

        try:
            assert executor.map(slow_first, [0, 1, 2, 3]) == [0, 1, 2, 3]
        finally:
            executor.close()

    def test_thread_tasks_leave_the_calling_thread(self):
        executor = ThreadedExecutor(max_workers=2)
        try:
            threads = set(executor.map(
                lambda _: threading.current_thread().name, [0, 1, 2]
            ))
            assert any(name.startswith("monilog-shard") for name in threads)
        finally:
            executor.close()

    def test_process_tasks_leave_the_calling_process(self):
        executor = ProcessExecutor(max_workers=2)
        try:
            pids = set(executor.map(_pid, [0, 1, 2, 3]))
            assert os.getpid() not in pids or len(pids) > 1
        finally:
            executor.close()


class TestSharedMemoryContract:
    def test_in_memory_executors_mutate_in_place(self):
        for name in ("serial", "thread"):
            executor = resolve_executor(name)
            assert executor.shares_memory
            box = {"count": 0}

            def bump(_):
                box["count"] += 1
                return box

            try:
                results = executor.map(bump, [0, 1, 2])
            finally:
                executor.close()
            assert box["count"] == 3
            assert all(result is box for result in results)

    def test_process_executor_does_not_mutate_in_place(self):
        executor = ProcessExecutor(max_workers=2)
        assert not executor.shares_memory
        try:
            values = executor.map(_square, [2, 3])
        finally:
            executor.close()
        assert values == [4, 9]


class TestResourceSemantics:
    def test_deepcopy_shares_the_instance(self):
        for name in EXECUTORS:
            executor = resolve_executor(name)
            assert copy.deepcopy(executor) is executor

    def test_pickle_rehydrates_by_name(self):
        for name in EXECUTORS:
            clone = pickle.loads(pickle.dumps(resolve_executor(name)))
            assert isinstance(clone, ShardExecutor)
            assert clone.name == name

    def test_close_is_idempotent_and_pool_rebuilds(self):
        executor = ThreadedExecutor(max_workers=2)
        assert executor.map(_square, [1, 2]) == [1, 4]
        executor.close()
        executor.close()
        assert executor.map(_square, [3, 4]) == [9, 16]
        executor.close()

    def test_worker_count_validation(self):
        with pytest.raises(ValueError, match="max_workers"):
            ThreadedExecutor(max_workers=0)
        with pytest.raises(ValueError, match="max_workers"):
            ProcessExecutor(max_workers=0)


class TestResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        assert default_executor_name() == "serial"
        assert isinstance(resolve_executor(None), SerialExecutor)

    def test_environment_variable_selects_default(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "thread")
        assert default_executor_name() == "thread"
        resolved = resolve_executor(None)
        assert isinstance(resolved, ThreadedExecutor)
        resolved.close()

    def test_environment_typo_fails_loudly_naming_the_variable(
        self, monkeypatch
    ):
        monkeypatch.setenv(EXECUTOR_ENV, "treads")
        with pytest.raises(ValueError, match="MONILOG_EXECUTOR"):
            default_executor_name()
        with pytest.raises(ValueError, match="MONILOG_EXECUTOR"):
            PipelineSpec()

    def test_environment_typo_is_a_clean_cli_error(self, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv(EXECUTOR_ENV, "treads")
        with pytest.raises(SystemExit, match="MONILOG_EXECUTOR"):
            main(["parse", "--input", "whatever.log"])

    def test_instance_passes_through(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("gpu")

    def test_config_validates_and_defaults_from_environment(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        assert PipelineSpec().executor == "serial"
        monkeypatch.setenv(EXECUTOR_ENV, "process")
        assert PipelineSpec().executor == "process"
        with pytest.raises(ValueError, match="executor"):
            PipelineSpec(executor="gpu")
