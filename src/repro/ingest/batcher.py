"""Micro-batch assembly: flush on size *or* age, whichever hits first.

The streaming pipeline's amortized entry point is
``process(records)`` — per-record hand-off would forfeit the
template cache and intra-batch dedup that make the parse stage cheap.
But a live stream cannot wait for a full batch either: a trickle
source would sit on its records indefinitely.  :class:`MicroBatcher`
holds the standard compromise: a batch flushes when it reaches
``max_size`` records or when its oldest record has waited
``max_batch_age`` seconds of wall clock, whichever comes first.

Like the merger, the batcher is synchronous and clock-explicit (every
mutating call takes ``now``): the async service supplies
``time.monotonic()`` and uses :attr:`deadline` to size its poll
timeout, and tests drive the age policy with a fake clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.ingest.sources import SourceItem


class MicroBatcher:
    """Group items into batches bounded by size and by age.

    Args:
        max_size: flush as soon as a batch holds this many items.
        max_age: flush a non-empty batch once its first item is this
            many seconds old (wall clock, supplied by the caller).
    """

    def __init__(self, max_size: int, max_age: float) -> None:
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        if max_age <= 0:
            raise ValueError(f"max_age must be > 0, got {max_age}")
        self.max_size = max_size
        self.max_age = max_age
        self._items: list["SourceItem"] = []
        self._opened_at: float | None = None
        self.size_flushes = 0
        self.age_flushes = 0

    def configure(self, max_size: int | None = None,
                  max_age: float | None = None) -> None:
        """Adjust the flush bounds at runtime (autoscale's knobs).

        Takes effect from the next :meth:`add`/:meth:`poll`: an open
        batch already larger than a shrunken ``max_size`` flushes on
        its next addition, and the age deadline moves with ``max_age``
        (the batcher re-derives it from the open batch's start time).
        Changing bounds never reorders or drops items — batch
        boundaries are output-neutral by the streaming invariants.
        """
        if max_size is not None:
            if max_size < 1:
                raise ValueError(f"max_size must be >= 1, got {max_size}")
            self.max_size = max_size
        if max_age is not None:
            if max_age <= 0:
                raise ValueError(f"max_age must be > 0, got {max_age}")
            self.max_age = max_age

    @property
    def pending(self) -> int:
        """Items waiting in the open batch."""
        return len(self._items)

    @property
    def deadline(self) -> float | None:
        """Wall-clock instant the open batch must flush by (None: empty)."""
        if self._opened_at is None:
            return None
        return self._opened_at + self.max_age

    def add(self, item: "SourceItem", now: float) -> list["SourceItem"] | None:
        """Add one item; return the batch if this addition filled it."""
        if self._opened_at is None:
            self._opened_at = now
        self._items.append(item)
        if len(self._items) >= self.max_size:
            self.size_flushes += 1
            return self._take()
        return None

    def poll(self, now: float) -> list["SourceItem"] | None:
        """Return the open batch if it has aged out, else ``None``."""
        if self._opened_at is not None and now - self._opened_at >= self.max_age:
            self.age_flushes += 1
            return self._take()
        return None

    def flush(self) -> list["SourceItem"] | None:
        """Return whatever is open, regardless of size or age (shutdown)."""
        if not self._items:
            return None
        return self._take()

    def _take(self) -> list["SourceItem"]:
        batch = self._items
        self._items = []
        self._opened_at = None
        return batch
