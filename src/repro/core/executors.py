"""Pluggable shard executors: how concurrent shard work actually runs.

The sharded runtime (a sharded :class:`~repro.api.pipeline.Pipeline`,
:class:`~repro.parsing.distributed.DistributedDrain`) routes work to
shards; *this* module decides how the per-shard tasks execute:

* :class:`SerialExecutor` — one task after another on the calling
  thread.  The reference semantics: every concurrent executor must
  produce byte-identical results to this one.
* :class:`ThreadedExecutor` — a ``concurrent.futures`` thread pool.
  The right choice when shard work overlaps waiting (the dispatch hop
  to a remote shard worker, storage reads) or when the interpreter can
  run threads in parallel; shard state is mutated in place, which is
  safe because every task touches exactly one shard's objects.
* :class:`ProcessExecutor` — a ``multiprocessing`` pool for CPU-bound
  shard work that must escape the GIL (detector fitting, cold parsing).
  Tasks and their results cross a process boundary, so task payloads
  must be picklable and **state does not mutate in place**: tasks
  return the updated shard object and the caller reinstalls it.

The two deployment models meet in one task shape: a task is
``(shard_object, work_item)`` and a module-level function returns the
(possibly new) shard object together with its result.  In-memory
executors hand back the same object they were given; the process
executor hands back the fitted/advanced copy.  Call sites therefore
always reinstall what :meth:`ShardExecutor.map` returns and stay
agnostic of where the work ran.

Executors are process-wide resources, not model state: ``deepcopy``
returns the same instance (snapshotting a sharded parser must not
clone a thread pool) and pickling reduces to the executor's name.

Selection: pass an instance or a name (``"serial"``, ``"thread"``,
``"process"``) to the runtime constructors, set
``PipelineSpec.executor``, or export ``MONILOG_EXECUTOR`` — the
environment variable is the suite-wide equivalent of the CLI's
``--executor`` flag and is how ``scripts/check.sh`` re-runs the tier-1
tests under the threaded executor.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor as _FuturesProcessPool
from concurrent.futures import ThreadPoolExecutor as _FuturesThreadPool
from typing import Any
from repro.api.registry import register_component

#: Environment variable naming the default executor (see
#: :func:`default_executor_name`).
EXECUTOR_ENV = "MONILOG_EXECUTOR"


def default_executor_name() -> str:
    """The process-wide default executor name.

    Reads ``MONILOG_EXECUTOR`` so a whole test suite or deployment can
    switch executors without touching call sites; falls back to
    ``"serial"``.  A value that names no registered executor fails
    here, loudly and naming the variable — a typo'd environment must
    not silently run serial (or surface as a confusing error far from
    its cause).
    """
    name = os.environ.get(EXECUTOR_ENV, "").strip() or "serial"
    if name not in EXECUTORS:
        raise ValueError(
            f"{EXECUTOR_ENV} must be one of {sorted(EXECUTORS)}, "
            f"got {name!r}"
        )
    return name


class ShardExecutor:
    """How per-shard tasks run; see the module docstring for the menu.

    ``shares_memory`` tells call sites whether task functions observe
    (and may mutate) the caller's objects directly — true for the
    serial and threaded executors, false for the process executor,
    whose tasks operate on pickled copies.  Call sites that keep shard
    state must reinstall the objects :meth:`map` returns; under
    in-memory executors that reinstall is a no-op.
    """

    name: str = "?"
    shares_memory: bool = True

    def map(
        self, function: Callable[[Any], Any], tasks: Sequence[Any]
    ) -> list[Any]:
        """Apply ``function`` to every task; results in task order.

        Concurrency contract: tasks may run in any interleaving, so
        they must not share mutable state with each other.  The sharded
        call sites guarantee this by construction — each task owns
        exactly one shard.
        """
        raise NotImplementedError

    def map_sticky(
        self,
        function: Callable[[Any], Any],
        tasks: Sequence[Any],
        keys: Sequence[int],
    ) -> list[Any]:
        """Like :meth:`map`, but route each task by its integer key.

        The same key always lands on the same worker, so tasks may keep
        per-key warm state *in* the worker (the distributed parser's
        template-store replicas).  In-memory executors share the
        caller's state anyway, so stickiness is vacuous and this
        defaults to :meth:`map`; the process executor overrides it with
        key-pinned worker slots.
        """
        return self.map(function, tasks)

    def close(self) -> None:
        """Release pooled workers (idempotent; pools rebuild lazily)."""

    # Executors are runtime resources: snapshots share them, and a
    # pickled reference rehydrates by name (a pool cannot cross a
    # process boundary).
    def __deepcopy__(self, memo: dict) -> "ShardExecutor":
        return self

    def __reduce__(self):
        return (resolve_executor, (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


@register_component("executor", "serial")
class SerialExecutor(ShardExecutor):
    """Run every task inline, in order — the reference executor."""

    name = "serial"
    shares_memory = True

    def map(
        self, function: Callable[[Any], Any], tasks: Sequence[Any]
    ) -> list[Any]:
        return [function(task) for task in tasks]


@register_component("executor", "thread")
class ThreadedExecutor(ShardExecutor):
    """Fan tasks out over a lazily-built thread pool.

    Args:
        max_workers: pool width; defaults to ``os.cpu_count() + 4``
            (capped at 32), the futures default, which leaves headroom
            for latency-bound shard dispatch even on small machines.

    A single task runs inline — there is nothing to overlap, and
    skipping the pool keeps the one-shard degenerate case as cheap as
    :class:`SerialExecutor`.
    """

    name = "thread"
    shares_memory = True

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers or min(32, (os.cpu_count() or 1) + 4)
        self._pool: _FuturesThreadPool | None = None

    def _ensure_pool(self) -> _FuturesThreadPool:
        if self._pool is None:
            self._pool = _FuturesThreadPool(
                max_workers=self.max_workers,
                thread_name_prefix="monilog-shard",
            )
        return self._pool

    def map(
        self, function: Callable[[Any], Any], tasks: Sequence[Any]
    ) -> list[Any]:
        if len(tasks) <= 1:
            return [function(task) for task in tasks]
        return list(self._ensure_pool().map(function, tasks))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


@register_component("executor", "process")
class ProcessExecutor(ShardExecutor):
    """Fan tasks out over a lazily-built ``multiprocessing`` pool.

    Escapes the GIL for CPU-bound shard work at the price of pickling:
    ``function`` must be a module-level callable and every task and
    result must serialize.  Shard state mutated by a task lives in the
    worker, so the task function must *return* the updated shard
    object — call sites reinstall it (the uniform contract described
    in the module docstring).

    Args:
        max_workers: pool width; defaults to ``os.cpu_count()``.

    A single task runs inline in the parent — this keeps degenerate
    fan-outs cheap and means one-shard configurations never pay for
    serialization at all.
    """

    name = "process"
    shares_memory = False

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self._pool = None
        self._slots: list[_FuturesProcessPool | None] = []

    @staticmethod
    def _context():
        # Never plain fork: by the time a pool is first needed the
        # process may hold live threads (a ThreadedExecutor pool,
        # the caller's own), and forking a multi-threaded process
        # can deadlock children on locks snapshotted mid-hold.
        # Linux uses forkserver — workers fork from a clean,
        # single-threaded server process, keeping startup cheap;
        # other platforms take their default (spawn).
        method = "forkserver" if sys.platform == "linux" else None
        return multiprocessing.get_context(method)

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = self._context().Pool(processes=self.max_workers)
        return self._pool

    def _slot(self, index: int) -> _FuturesProcessPool:
        if not self._slots:
            self._slots = [None] * self.max_workers
        pool = self._slots[index]
        if pool is None:
            pool = self._slots[index] = _FuturesProcessPool(
                max_workers=1, mp_context=self._context()
            )
        return pool

    def map(
        self, function: Callable[[Any], Any], tasks: Sequence[Any]
    ) -> list[Any]:
        if len(tasks) <= 1:
            return [function(task) for task in tasks]
        return self._ensure_pool().map(function, tasks, chunksize=1)

    def map_sticky(
        self,
        function: Callable[[Any], Any],
        tasks: Sequence[Any],
        keys: Sequence[int],
    ) -> list[Any]:
        """Key-pinned fan-out over single-worker slots.

        Slot ``key % max_workers`` always serves a given key, so
        module-level worker state keyed by the task (the distributed
        parser's shard replicas) survives between calls.  Unlike
        :meth:`map`, a single task is *not* inlined — the whole point
        is that its state lives in the worker, not the parent.
        """
        futures = [
            self._slot(key % self.max_workers).submit(function, task)
            for task, key in zip(tasks, keys)
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        for pool in self._slots:
            if pool is not None:
                pool.shutdown(wait=True)
        self._slots = []


#: Name → constructor, the ``--executor`` / ``MONILOG_EXECUTOR`` menu.
EXECUTORS: dict[str, type[ShardExecutor]] = {
    SerialExecutor.name: SerialExecutor,
    ThreadedExecutor.name: ThreadedExecutor,
    ProcessExecutor.name: ProcessExecutor,
}


def resolve_executor(
    executor: "str | ShardExecutor | None",
) -> ShardExecutor:
    """Turn an executor spec into an instance.

    ``None`` consults :func:`default_executor_name` (the
    ``MONILOG_EXECUTOR`` environment variable, else serial); a string
    must name a registered executor; an instance passes through.
    """
    if executor is None:
        executor = default_executor_name()
    if isinstance(executor, ShardExecutor):
        return executor
    constructor = EXECUTORS.get(executor)
    if constructor is None:
        raise ValueError(
            f"unknown executor {executor!r}; choose from {sorted(EXECUTORS)}"
        )
    return constructor()
