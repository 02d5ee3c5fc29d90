"""The bulk series-state store interface.

A store persists the state of *many* series — one shard's whole
population — as ``{series: (records, update_counter)}``.  Voting code
never talks to a store directly: :class:`~repro.voting.history.HistoryRecords`
attaches to a one-series view
(:meth:`~repro.history.tiered.TieredHistoryStore.store_for`) and calls
``load_state`` once at attach time and ``save_state`` after every
update round, mirroring the read/update/write cycle of the paper's
deployment.
"""

from __future__ import annotations

import abc
from typing import Dict, Mapping, Optional, Tuple

#: Per-series state as persisted by a :class:`SeriesStateStore`: the
#: record mapping plus the update-round counter (the AVOC bootstrap
#: trigger keys on ``update_count == 0``, so rehydrating records without
#: the counter is not bit-identical).
SeriesState = Tuple[Dict[str, float], int]


class SeriesStateStore(abc.ABC):
    """Abstract bulk store holding the state of *many* series.

    This is the storage tier behind
    :class:`~repro.history.tiered.TieredHistoryStore`: one directory /
    database / address space for an entire shard's series population.
    A shard hosting 10\\ :sup:`6` series keeps only its hot set resident
    and reads the rest through this interface on demand.
    """

    @abc.abstractmethod
    def read(self, series: str) -> Optional[SeriesState]:
        """The persisted ``(records, updates)`` for ``series``, or None."""

    @abc.abstractmethod
    def write(self, series: str, records: Mapping[str, float], updates: int) -> None:
        """Persist the full state of one series."""

    @abc.abstractmethod
    def delete(self, series: str) -> None:
        """Forget one series (no-op when unknown)."""

    @abc.abstractmethod
    def series(self) -> Tuple[str, ...]:
        """Every series key with persisted state."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Forget every series."""

    def compact(self) -> None:
        """Reclaim dead storage (optional; default no-op)."""

    def close(self) -> None:
        """Release file handles / connections (optional; default no-op)."""

    def __contains__(self, series: str) -> bool:
        return self.read(series) is not None

    def __len__(self) -> int:
        return len(self.series())
