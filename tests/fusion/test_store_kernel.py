"""The history batch kernel on store-backed voters.

A voter with an attached history store runs the same vectorized
``history`` kernel as a store-less one and commits each batch's final
state once.  The contract under test, for every history-aware voter
under both record policies, in batches of 1, 2 and 50 rows, over a
memory and a packed backing:

* values, statuses, records, ``update_count`` and ``bootstraps_used``
  are bit-identical to a store-less engine and to ``fuse()``;
* after every batch the backing store holds exactly the in-memory
  records and update counter;
* ``put_state`` runs once per batch that voted, never per round;
* all of it holds when the series is evicted and rehydrated from the
  backing between batches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.light_uc1 import UC1Config, generate_uc1_dataset
from repro.fusion.batch import fuse
from repro.fusion.engine import FusionEngine
from repro.history import MemoryStateStore, PackedHistoryStore, TieredHistoryStore
from repro.obs import MetricsRegistry
from repro.voting.registry import create_voter

from .test_batch import inject_gaps

ALGORITHMS = ("standard", "me", "sdt", "hybrid", "avoc")
POLICIES = ("additive", "ema")
BATCH_ROWS = (1, 2, 50)
SERIES = "s"


class CountingTieredStore(TieredHistoryStore):
    """A tiered store that counts its state commits."""

    def __init__(self, backing):
        super().__init__(backing, registry=MetricsRegistry())
        self.puts = 0

    def put_state(self, series, records, updates):
        self.puts += 1
        super().put_state(series, records, updates)


@pytest.fixture(scope="module")
def uc1():
    data = generate_uc1_dataset(UC1Config(n_rounds=150))
    return inject_gaps(data.matrix), list(data.modules)


@pytest.fixture(params=("memory", "packed"))
def tiered(request, tmp_path):
    if request.param == "memory":
        backing = MemoryStateStore()
    else:
        backing = PackedHistoryStore(tmp_path / "packed")
    store = CountingTieredStore(backing)
    yield store
    store.close()


def voter_for(algorithm, policy, store=None):
    params = create_voter(algorithm).params.with_overrides(history_policy=policy)
    return create_voter(algorithm, params=params, history_store=store)


def bootstraps(voter):
    return getattr(voter, "bootstraps_used", 0)


@pytest.mark.parametrize("evict", (False, True), ids=("resident", "evicted"))
@pytest.mark.parametrize("rows", BATCH_ROWS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_store_backed_kernel_is_bit_identical(
    uc1, tiered, algorithm, policy, rows, evict
):
    matrix, modules = uc1
    view = tiered.store_for(SERIES)
    stored = FusionEngine(voter_for(algorithm, policy, view), roster=modules)
    plain = FusionEngine(voter_for(algorithm, policy), roster=modules)
    assert stored.voter.batch_kernel() == "history"
    retired_bootstraps = 0
    values, statuses = [], []

    for start in range(0, matrix.shape[0], rows):
        chunk = matrix[start : start + rows]
        if evict and start:
            # Drop the series from the hot tier and rebuild the voter
            # from the backing: records and update counter rehydrate.
            tiered.evict(SERIES)
            retired_bootstraps += bootstraps(stored.voter)
            stored.voter = voter_for(algorithm, policy, view)
        updates_before = stored.voter.history.update_count
        puts_before = tiered.puts

        got = stored.process_batch(chunk, modules)
        want = plain.process_batch(chunk, modules)

        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got.statuses, want.statuses)
        history, reference = stored.voter.history, plain.voter.history
        assert history.snapshot() == reference.snapshot()
        assert history.update_count == reference.update_count
        voted = history.update_count > updates_before
        assert tiered.puts - puts_before == (1 if voted else 0)
        state = tiered.backing.read(SERIES) or ({}, 0)
        assert state == (history.snapshot(), history.update_count)
        values.append(got.values)
        statuses.append(got.statuses)

    assert retired_bootstraps + bootstraps(stored.voter) == bootstraps(plain.voter)
    oracle_voter = voter_for(algorithm, policy)
    oracle = fuse(matrix, oracle_voter, modules)
    np.testing.assert_array_equal(np.concatenate(values), oracle.values)
    np.testing.assert_array_equal(np.concatenate(statuses), oracle.statuses)
    assert stored.voter.history.snapshot() == oracle_voter.history.snapshot()
    assert stored.voter.history.update_count == oracle_voter.history.update_count
    assert bootstraps(plain.voter) == bootstraps(oracle_voter)
