"""Per-module historical reliability records.

History-based voters keep one record ``h ∈ [0, 1]`` per module,
initialised to 1 for a fresh set (the paper's bootstrap trigger relies on
that convention: *all records 1* means "new set", *all records 0* means
"system failure or extreme data spike", §5).

Two update policies are provided:

* ``additive`` (default) — reward/penalty increments, as in the original
  history-based weighted average voter [Latif-Shabgahi 2001].  Records
  can genuinely reach 0 and 1, which the AVOC trigger depends on.
* ``ema`` — exponential moving average of the agreement score; smoother
  but asymptotic (never exactly reaches the extremes).

Records can be attached to a per-series store view
(:meth:`~repro.history.tiered.TieredHistoryStore.store_for`: anything
with ``load_state``/``save_state``/``clear``) so every update is
persisted, mirroring the paper's datastore-backed deployment (its
stated latency bottleneck).  A per-round update commits once per
round; the batch kernel commits a whole batch once, through
:meth:`HistoryRecords.absorb` or, when only known records changed,
:meth:`HistoryRecords.commit_at`.

Storage layout
--------------
Records live in one preallocated float64 array with a ``module → slot``
interning map, not a per-module dict.  The streaming/serving hot loop
(:meth:`FusionEngine.process` behind
:class:`~repro.fusion.stream.StreamingFusion` and the cluster
``ShardServer``) updates the same module set every round, so
:meth:`slots_for` caches the slot-index array per module tuple and
:meth:`update` applies the whole round as a handful of vectorized array
operations instead of per-module dict reads and writes.  The array ops
walk the exact same IEEE expression per element as the historical
scalar loop, so outputs are bit-identical.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError

_POLICIES = ("additive", "ema")


class HistoryRecords:
    """Mutable per-module reliability records with a pluggable policy.

    Args:
        policy: ``"additive"`` or ``"ema"``.
        reward: additive increment applied scaled by the agreement score.
        penalty: additive decrement applied scaled by the disagreement.
        learning_rate: EMA smoothing factor in (0, 1].
        initial: starting record value for unseen modules (1.0 = trusted).
        store: optional per-series store view; written through on updates.
    """

    def __init__(
        self,
        policy: str = "additive",
        reward: float = 0.1,
        penalty: float = 0.2,
        learning_rate: float = 0.3,
        initial: float = 1.0,
        store=None,
    ):
        if policy not in _POLICIES:
            raise ConfigurationError(
                f"unknown history policy {policy!r}; expected one of {_POLICIES}"
            )
        if not 0.0 <= initial <= 1.0:
            raise ConfigurationError(f"initial record must be in [0, 1], got {initial}")
        if reward < 0 or penalty < 0:
            raise ConfigurationError("reward and penalty must be non-negative")
        if not 0.0 < learning_rate <= 1.0:
            raise ConfigurationError(
                f"learning_rate must be in (0, 1], got {learning_rate}"
            )
        self.policy = policy
        self.reward = reward
        self.penalty = penalty
        self.learning_rate = learning_rate
        self.initial = initial
        self._index: Dict[str, int] = {}
        self._values = np.empty(8, dtype=float)
        self._slot_cache: Dict[Tuple[str, ...], np.ndarray] = {}
        self._updates = 0
        self.attach(store)

    def attach(self, store) -> None:
        """Bind to a per-series store view and load its state.

        ``None`` detaches: later updates persist nowhere and
        :meth:`reset` leaves the previous store's state alone.  A
        stored state replaces the records; loading is meant for empty
        records — at construction, or after a detach + :meth:`reset`
        rebinds the records to another series.
        """
        self._store = store
        if store is None:
            return
        # The state carries the update counter alongside the records,
        # so a rehydrated engine is bit-identical to one that never
        # left memory (the AVOC bootstrap trigger keys on
        # ``update_count == 0``).
        state = store.load_state()
        if state is not None:
            records, updates = state
            self._load(records)
            self._updates = int(updates)

    def _load(self, records: Mapping[str, float], clamp: bool = False) -> None:
        """Replace every record with ``records`` in one array write
        (clamped into ``[0, 1]`` like :meth:`seed` when ``clamp``).

        The mapping's order becomes the slot order, as interning the
        modules one by one would make it.
        """
        n = len(records)
        values = records.values()
        if clamp:
            # Python's min/max, not NumPy's: they keep a -0.0 record.
            values = (min(max(float(v), 0.0), 1.0) for v in values)
        values = np.fromiter(values, dtype=float, count=n)
        self._index = dict(zip(records, range(n)))
        self._values = np.empty(max(8, n), dtype=float)
        self._values[:n] = values
        self._slot_cache.clear()

    # -- slot management --------------------------------------------------

    def _slot(self, module: str) -> int:
        """The slot index for ``module``, materialising it if unseen."""
        slot = self._index.get(module)
        if slot is None:
            slot = len(self._index)
            if slot >= self._values.shape[0]:
                grown = np.empty(max(8, 2 * slot), dtype=float)
                grown[:slot] = self._values[:slot]
                self._values = grown
            self._values[slot] = self.initial
            self._index[module] = slot
            self._slot_cache.clear()
        return slot

    def _set(self, module: str, value: float) -> None:
        # Resolve the slot first: ``_slot`` may grow (rebind) ``_values``,
        # and ``self._values[self._slot(m)] = v`` evaluates the indexed
        # array before the call — writing into the discarded buffer.
        slot = self._slot(module)
        self._values[slot] = value

    def slots_for(
        self, modules: Tuple[str, ...], create: bool = True
    ) -> Optional[np.ndarray]:
        """Interned slot indices for a module tuple.

        The returned array is cached per exact module tuple, so a hot
        loop voting the same roster every round pays the dict lookups
        once and then reuses one index array.  Unseen modules are
        materialised, unless ``create`` is false: then the answer is
        None and nothing changes.
        """
        slots = self._slot_cache.get(modules)
        if slots is None:
            if not create:
                index = self._index
                if any(m not in index for m in modules):
                    return None
            slots = np.asarray([self._slot(m) for m in modules], dtype=np.intp)
            self._slot_cache[modules] = slots
        return slots

    def values_at(self, slots: np.ndarray) -> np.ndarray:
        """The current records at ``slots`` (a fresh array, safe to mutate)."""
        return self._values[slots]

    # -- access ---------------------------------------------------------

    def get(self, module: str) -> float:
        """Current record for ``module`` (the initial value if unseen)."""
        slot = self._index.get(module)
        if slot is None:
            return self.initial
        return float(self._values[slot])

    def ensure(self, modules: Iterable[str]) -> None:
        """Materialise records for ``modules`` without changing values."""
        index = self._index
        for module in modules:
            if module not in index:
                self._slot(module)

    def snapshot(self) -> Dict[str, float]:
        """A copy of all materialised records."""
        return dict(zip(self._index, self._values[: len(self._index)].tolist()))

    @property
    def update_count(self) -> int:
        """How many update rounds have been applied."""
        return self._updates

    @property
    def modules(self):
        return tuple(self._index)

    @property
    def store(self):
        """The attached persistent backend (None for in-memory records)."""
        return self._store

    def persist(self) -> None:
        """Write the current state through to the attached store (if any)."""
        if self._store is not None:
            self._store.save_state(self.snapshot(), self._updates)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, module: str) -> bool:
        return module in self._index

    # -- predicates used by the AVOC bootstrap trigger -------------------

    def all_fresh(self, modules: Iterable[str], tolerance: float = 1e-12) -> bool:
        """True when every record equals the pristine initial value of 1."""
        return all(abs(self.get(m) - 1.0) <= tolerance for m in modules)

    def all_failed(self, modules: Iterable[str], tolerance: float = 1e-12) -> bool:
        """True when every record has collapsed to 0."""
        mods = list(modules)
        return bool(mods) and all(self.get(m) <= tolerance for m in mods)

    # -- updates ----------------------------------------------------------

    def update(self, scores: Mapping[str, float]) -> Dict[str, float]:
        """Apply one round of agreement scores and return the new records.

        ``scores`` maps module name to its agreement score in [0, 1].
        Modules absent from ``scores`` (e.g. missing values this round)
        keep their record untouched.
        """
        if scores:
            slots = self.slots_for(tuple(scores))
            self.update_at(slots, np.fromiter(scores.values(), dtype=float))
        else:
            self._updates += 1
            self.persist()
        return self.snapshot()

    def update_at(self, slots: np.ndarray, scores: np.ndarray) -> None:
        """Apply one round of scores at interned ``slots`` — the fast path.

        Vectorized twin of the historical per-module loop: clamp the
        score, apply the policy step, clamp the record back into
        ``[0, 1]``.  Every operation is elementwise, so the results are
        bit-identical to updating each module separately.
        """
        current = self._values[slots]
        clamped = np.minimum(np.maximum(scores, 0.0), 1.0)
        if self.policy == "additive":
            updated = current + (
                self.reward * clamped - self.penalty * (1.0 - clamped)
            )
        else:  # ema
            updated = (1.0 - self.learning_rate) * current + (
                self.learning_rate * clamped
            )
        self._values[slots] = np.minimum(np.maximum(updated, 0.0), 1.0)
        self._updates += 1
        self.persist()

    def seed(self, records: Mapping[str, float], count_as_update: bool = True) -> None:
        """Overwrite records directly (used by the AVOC bootstrap)."""
        for module, value in records.items():
            self._set(module, min(max(float(value), 0.0), 1.0))
        if count_as_update:
            self._updates += 1
        self.persist()

    def absorb(self, records: Mapping[str, float], update_count: int) -> None:
        """Overwrite all records and the update counter in one step.

        Write-back hook for the vectorized batch kernel
        (:mod:`repro.fusion.batch`): the kernel evolves the records in a
        float array and deposits the final state here.  Values are
        clamped like :meth:`seed`.  The new state is written through to
        the attached store with one ``save_state`` (records plus update
        counter), so a batch costs one store commit, not one per round.
        """
        self._load(records, clamp=True)
        self._updates = int(update_count)
        self.persist()

    def commit_at(
        self, slots: np.ndarray, values: np.ndarray, update_count: int
    ) -> None:
        """Set the records at interned ``slots`` and the update counter.

        The array twin of :meth:`absorb` for a kernel whose records
        already hold every module it wrote: ``values`` (already in
        ``[0, 1]``) land at ``slots`` with no re-interning, and the new
        state goes to the attached store with one ``save_state``.
        """
        self._values[slots] = values
        self._updates = int(update_count)
        self.persist()

    def reset(self) -> None:
        """Forget everything; records return to the initial value."""
        self._index = {}
        self._values = np.empty(8, dtype=float)
        self._slot_cache.clear()
        self._updates = 0
        if self._store is not None:
            self._store.clear()

    # -- weights ----------------------------------------------------------

    def weights(self, modules: Iterable[str]) -> Dict[str, float]:
        """History-based voting weights (the records themselves)."""
        return {m: self.get(m) for m in modules}

    def below_mean(self, modules: Iterable[str], slack: float = 1e-12):
        """Modules whose record is strictly below the mean record.

        This is the module-elimination criterion of Me/Hybrid/AVOC: the
        returned modules are zero-weighted for the current round while
        their history keeps updating.
        """
        mods = list(modules)
        if not mods:
            return ()
        values = [self.get(m) for m in mods]
        mean = sum(values) / len(values)
        return tuple(m for m, v in zip(mods, values) if v < mean - slack)
