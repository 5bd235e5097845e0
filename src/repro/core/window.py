"""Exact sliding time windows for the XLF detectors.

Every rate or distinct-count check in the security functions asks the
same question: *which entries arrived in the last ``span_s`` simulated
seconds?*  :class:`SlidingWindow` answers it incrementally.  Entries sit
in a deque oldest-first; each :meth:`~SlidingWindow.push` appends the new
entry and pops expired ones off the left, and an optional per-item count
table is kept in step, so the live length and the number of distinct
live items are O(1) reads instead of a comprehension over the window.

Exactness (why this is the same as filtering the whole window):

* The boundary is the one the detectors always used: on a push at
  ``now`` an entry is dropped iff ``t < now - span_s``, computed with
  that same float expression; an entry exactly ``span_s`` old is kept.
* Simulated time within one home never goes backwards (the simulator
  refuses to schedule into the past), so the expired entries are always
  a prefix of the deque and eviction from the left removes exactly the
  entries a full filter would.
* Eviction only happens on push, as the hand-written windows did: a
  reader between pushes sees the window as of the last push.

What is *not* on this primitive: the :class:`~repro.core.bus.CoreBus`
history (the correlator looks back arbitrarily far, so it bisects the
full per-device history) and the streaming
:class:`~repro.core.streaming.OnlineWindow` (bucketed, inexact by
design).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Hashable, Iterator, Optional, Tuple


class SlidingWindow:
    """The entries of the last ``span_s`` simulated seconds, oldest first.

    With ``counted=True``, :attr:`counts` maps each live item to the
    number of live entries holding it (items must be hashable); an item
    whose count drops to zero is deleted, so ``len(counts)`` is the
    number of distinct live items.  Without it, :attr:`counts` is None
    and items may be anything.
    """

    __slots__ = ("span_s", "_entries", "counts")

    def __init__(self, span_s: float, counted: bool = False):
        if not span_s >= 0:
            raise ValueError(f"span_s must be >= 0, got {span_s!r}")
        self.span_s = span_s
        self._entries: Deque[Tuple[float, Any]] = deque()
        self.counts: Optional[Dict[Hashable, int]] = {} if counted else None

    def push(self, now: float, item: Any = None) -> None:
        """Add ``item`` at time ``now`` (never earlier than the last
        push), then evict every entry older than ``now - span_s``."""
        entries = self._entries
        counts = self.counts
        entries.append((now, item))
        if counts is not None:
            counts[item] = counts.get(item, 0) + 1
        horizon = now - self.span_s
        # The entry just pushed is never older than the horizon, so the
        # loop always stops on a live entry.
        while entries[0][0] < horizon:
            _t, old = entries.popleft()
            if counts is not None:
                left = counts[old] - 1
                if left:
                    counts[old] = left
                else:
                    del counts[old]

    def clear(self) -> None:
        self._entries.clear()
        if self.counts is not None:
            self.counts.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[float, Any]]:
        """``(t, item)`` pairs, oldest first."""
        return iter(self._entries)
