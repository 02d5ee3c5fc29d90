"""Core value types shared across the library.

The voting stack passes data around in a small number of immutable
shapes:

* :class:`Reading` — one sensor's value for one round (possibly missing).
* :class:`Round` — the set of readings submitted for one voting round.
* :class:`VoteOutcome` — the fused output of one round plus diagnostics.

All numeric voting operates on ``float`` values; categorical voting
(strings, JSON blobs) uses the same containers with ``value`` holding an
arbitrary hashable object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .exceptions import EmptyRoundError

#: Sentinel used in dataset matrices for a missing measurement.
MISSING = float("nan")


def is_missing(value: Any) -> bool:
    """Return True when ``value`` represents a missing measurement.

    ``None`` and ``NaN`` floats both count as missing; any other value —
    including 0.0 and empty strings — is a real reading.
    """
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    return False


@dataclass(frozen=True)
class Reading:
    """A single measurement submitted by one module for one round."""

    module: str
    value: Any
    timestamp: float = 0.0

    @property
    def missing(self) -> bool:
        return is_missing(self.value)


@dataclass(frozen=True)
class Round:
    """All readings submitted for one voting round.

    ``values`` preserves submission order; module names must be unique
    within a round.
    """

    number: int
    readings: Tuple[Reading, ...]

    def __post_init__(self):
        names = [r.module for r in self.readings]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate module names in round {self.number}: {names}")

    @classmethod
    def from_mapping(
        cls, number: int, values: Mapping[str, Any], timestamp: float = 0.0
    ) -> "Round":
        """Build a round from a ``{module: value}`` mapping."""
        readings = tuple(
            Reading(module=m, value=v, timestamp=timestamp) for m, v in values.items()
        )
        return cls(number=number, readings=readings)

    @classmethod
    def from_row(
        cls,
        number: int,
        modules: Sequence[str],
        row: Sequence[Any],
        timestamp: float = 0.0,
    ) -> "Round":
        """Build a round from parallel module names and values.

        NaN and None entries become missing readings — the dataset-
        matrix convention used by :meth:`FusionEngine.process_batch`.
        """
        readings = tuple(
            Reading(
                module=m,
                value=None if is_missing(v) else float(v),
                timestamp=timestamp,
            )
            for m, v in zip(modules, row)
        )
        return cls(number=number, readings=readings)

    @classmethod
    def from_values(
        cls, number: int, values: Sequence[Any], prefix: str = "E", start: int = 1
    ) -> "Round":
        """Build a round from positional values, naming modules E1, E2, ..."""
        readings = tuple(
            Reading(module=f"{prefix}{start + i}", value=v)
            for i, v in enumerate(values)
        )
        return cls(number=number, readings=readings)

    @property
    def modules(self) -> Tuple[str, ...]:
        return tuple(r.module for r in self.readings)

    @property
    def present(self) -> Tuple[Reading, ...]:
        """Readings that actually carry a value."""
        return tuple(r for r in self.readings if not r.missing)

    @property
    def submitted_count(self) -> int:
        return len(self.present)

    def value_of(self, module: str) -> Any:
        for r in self.readings:
            if r.module == module:
                return r.value
        raise KeyError(module)

    def require_nonempty(self) -> None:
        if not self.present:
            raise EmptyRoundError(f"round {self.number} has no present values")


@dataclass(frozen=True)
class VoteOutcome:
    """The result of fusing one round.

    Attributes:
        round_number: which round this outcome belongs to.
        value: the fused output value (None when the round was rejected).
        weights: per-module weight actually used in the collation.
        history: per-module history record *after* this round's update.
        agreement: per-module agreement score for this round.
        eliminated: modules zero-weighted by module elimination.
        used_bootstrap: True when the AVOC clustering step produced this
            output instead of the regular weighted path.
        diagnostics: free-form extra information (cluster sizes, ties, ...).
    """

    round_number: int
    value: Optional[Any]
    weights: Dict[str, float] = field(default_factory=dict)
    history: Dict[str, float] = field(default_factory=dict)
    agreement: Dict[str, float] = field(default_factory=dict)
    eliminated: Tuple[str, ...] = ()
    used_bootstrap: bool = False
    diagnostics: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Series:
    """A named series of per-round values, as plotted in the paper's figures."""

    name: str
    values: List[float] = field(default_factory=list)

    def append(self, value: float) -> None:
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, idx):
        return self.values[idx]
