"""Cluster-aware live tuning: run the VDX searches against a running cluster.

The offline searches in this package score a parameter assignment by
fusing a recorded scenario in-process.  :class:`LiveObjective` scores
the *same* assignment against a **live cluster** instead: each trial is
a two-phase ``configure`` (the cluster swaps uniformly onto the trial's
spec, or not at all) followed by a replay of the held-out clean and
fault-injected datasets through the existing ``vote_batch`` protocol,
and the response series are scored with exactly the offline UC-1
arithmetic (settling round + weighted residual).

Because the shard engines are built from the very spec the trial's
:class:`~repro.voting.base.VoterParams` round-trips through (enforced
at runtime by :func:`spec_for_params`), and the cluster replay path is
bit-identical to a direct in-process fuse (the standing
``tests/ingest/test_cluster_identity.py`` contract), a live search
returns a ranking **bit-identical to the offline objective** — at any
shard count.  Parallelism lives where the paper's deployment story
puts it: in the cluster (replica fan-out, ``vote_batch`` replay), not in the
search driver, so the wrappers below pin ``workers=1`` and memoize
trials on their frozen parameter assignment instead.

This is what turns tuning into a capacity-planning tool: point
``avoc tune --live HOST:PORT`` at a staging cluster and the search
measures the deployment you would actually run.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..analysis.convergence import convergence_round
from ..datasets.dataset import Dataset
from ..exceptions import ConfigurationError
from ..obs import MetricsRegistry, OpsInstruments, get_default_registry
from ..vdx.factory import build_voter
from ..vdx.spec import VotingSpec
from ..voting.base import VoterParams
from .genetic import genetic_search
from .random_search import random_search
from .search import TuningResult, grid_search
from .space import ParameterSpace

__all__ = [
    "LiveObjective",
    "live_base_params",
    "live_genetic_search",
    "live_grid_search",
    "live_random_search",
    "spec_for_params",
]

#: Algorithms a live trial can express as a VDX document:
#: name → (history mode, bootstrapping).
_LIVE_ALGORITHMS: Dict[str, Tuple[str, bool]] = {
    "avoc": ("HYBRID", True),
    "hybrid": ("HYBRID", False),
    "standard": ("STANDARD", False),
    "me": ("ME", False),
    "sdt": ("SDT", False),
}

#: One dispatchable request → response callable (an in-process
#: ``ClusterGateway.dispatch`` or a ``VoterClient.request``).
Dispatch = Callable[[Dict[str, Any]], Dict[str, Any]]


def _base_spec(algorithm: str, params: VoterParams) -> VotingSpec:
    key = algorithm.lower()
    if key not in _LIVE_ALGORITHMS:
        raise ConfigurationError(
            f"live tuning cannot express algorithm {algorithm!r}; "
            f"supported: {tuple(sorted(_LIVE_ALGORITHMS))}"
        )
    history, bootstrapping = _LIVE_ALGORITHMS[key]
    return VotingSpec.from_dict(
        {
            "algorithm_name": f"live-{key}",
            "history": history,
            "bootstrapping": bootstrapping,
            "collation": params.collation,
            "params": {
                "error": params.error,
                "soft_threshold": params.soft_threshold,
                "history_policy": params.history_policy,
                "reward": params.reward,
                "penalty": params.penalty,
                "learning_rate": params.learning_rate,
            },
        }
    )


def spec_for_params(algorithm: str, params: VoterParams) -> VotingSpec:
    """The VDX document whose shard-side voter carries exactly ``params``.

    Bit-identity with the offline objective hinges on the shard voting
    with the *same* parameters the trial scored, so the round-trip is
    verified at runtime: the spec is rebuilt into a voter and its
    params compared field-for-field.  A parameter the VDX schema cannot
    carry (e.g. a non-default ``elimination_threshold``) fails loudly
    here instead of silently skewing every score.
    """
    spec = _base_spec(algorithm, params)
    built = build_voter(spec).params
    if built != params:
        mismatched = sorted(
            name
            for name in VoterParams.__dataclass_fields__
            if getattr(built, name) != getattr(params, name)
        )
        raise ConfigurationError(
            f"VDX cannot express {algorithm!r} params over the wire: "
            f"fields {mismatched} do not survive the spec round-trip "
            f"(use live_base_params({algorithm!r}) as the space base)"
        )
    return spec


def live_base_params(algorithm: str) -> VoterParams:
    """The space base that survives the VDX round-trip for ``algorithm``.

    Build search spaces for live tuning over this base: every field a
    live trial cannot carry through a spec keeps the value the shard
    would reconstruct, so :func:`spec_for_params` holds for any
    assignment over the schema-carried fields (``error``,
    ``soft_threshold``, ``history_policy``, ``reward``, ``penalty``,
    ``learning_rate``, ``collation``).
    """
    key = algorithm.lower()
    if key not in _LIVE_ALGORITHMS:
        raise ConfigurationError(
            f"live tuning cannot express algorithm {algorithm!r}; "
            f"supported: {tuple(sorted(_LIVE_ALGORITHMS))}"
        )
    return build_voter(_base_spec(key, VoterParams())).params


class LiveObjective:
    """Score parameter assignments against a running cluster.

    Args:
        dispatch: request → response callable — an in-process
            :meth:`ClusterGateway.dispatch` or a connected
            :meth:`VoterClient.request` (both raise on error replies).
        clean / faulty: the held-out scenario pair (equal length); the
            score is the offline UC-1 fault-recovery arithmetic over
            the replayed outputs.
        algorithm: which voter family trials configure the cluster to.
        tolerance / residual_weight: scoring knobs, identical to
            :func:`~repro.tuning.objective.uc1_fault_recovery_objective`.
        batch_rounds: rounds per ``vote_batch`` chunk during replay.
        registry: metrics registry for the ``ops_tuning_*`` counters.

    Evaluations are memoized on the frozen
    :class:`~repro.voting.base.VoterParams` (duplicate assignments —
    common in random and genetic searches — skip the cluster entirely);
    :attr:`cache_hits` and :attr:`trials` expose the tallies.
    """

    def __init__(
        self,
        dispatch: Dispatch,
        clean: Dataset,
        faulty: Dataset,
        algorithm: str = "avoc",
        tolerance: float = 0.3,
        residual_weight: float = 100.0,
        batch_rounds: int = 512,
        registry: Optional[MetricsRegistry] = None,
    ):
        if clean.n_rounds != faulty.n_rounds:
            raise ConfigurationError(
                "clean and faulty datasets must have equal length"
            )
        if batch_rounds < 1:
            raise ConfigurationError("batch_rounds must be >= 1")
        self._dispatch = dispatch
        self.clean = clean
        self.faulty = faulty
        self.algorithm = algorithm.lower()
        self.tolerance = tolerance
        self.residual_weight = residual_weight
        self.batch_rounds = batch_rounds
        self.trials = 0
        self.cache_hits = 0
        self._evaluations = 0
        self._cache: Dict[VoterParams, float] = {}
        self._obs = OpsInstruments(
            registry if registry is not None else get_default_registry()
        )
        # Fail fast on an unsupported algorithm, before the search runs.
        live_base_params(self.algorithm)

    # -- the objective protocol -------------------------------------------

    def __call__(self, params: VoterParams) -> float:
        cached = self._cache.get(params)
        if cached is not None:
            self.cache_hits += 1
            self._obs.tuning_cache_hits.inc()
            return cached
        score = self._evaluate(params)
        self._cache[params] = score
        self.trials += 1
        self._obs.tuning_trials.inc()
        return score

    # -- one trial ---------------------------------------------------------

    def _evaluate(self, params: VoterParams) -> float:
        spec = spec_for_params(self.algorithm, params)
        # Two-phase configure: every shard swaps onto the trial's spec
        # or none does, and all series state is cleared — each trial
        # starts from the same blank history an offline run does.
        self._dispatch({"op": "configure", "spec": spec.to_dict()})
        prefix = f"tune-{self._evaluations}"
        self._evaluations += 1
        clean_out = self._replay(self.clean, f"{prefix}-clean")
        fault_out = self._replay(self.faulty, f"{prefix}-faulty")
        # Exactly uc1_fault_recovery_objective's arithmetic, over the
        # cluster-fused series instead of the in-process one.
        diff = fault_out - clean_out
        settling = convergence_round(diff, self.tolerance)
        tail = np.abs(diff[len(diff) // 2 :])
        tail = tail[~np.isnan(tail)]
        residual = float(tail.mean()) if tail.size else float("inf")
        return settling + self.residual_weight * residual

    def _replay(self, dataset: Dataset, series: str) -> np.ndarray:
        """Stream one dataset through ``vote_batch``; fused series back."""
        matrix = dataset.matrix
        modules = list(dataset.modules)
        n = matrix.shape[0]
        values = np.full(n, np.nan)
        for start in range(0, n, self.batch_rounds):
            stop = min(start + self.batch_rounds, n)
            rows = [
                [
                    float(cell) if math.isfinite(cell) else None
                    for cell in matrix[index]
                ]
                for index in range(start, stop)
            ]
            response = self._dispatch(
                {
                    "op": "vote_batch",
                    "batches": [
                        {
                            "series": series,
                            "rounds": list(range(start, stop)),
                            "modules": modules,
                            "rows": rows,
                        }
                    ],
                }
            )
            for offset, payload in enumerate(response["results"][0]["results"]):
                value = payload.get("value")
                if value is not None:
                    values[start + offset] = float(value)
        return values


def _finish(result: TuningResult, objective: LiveObjective) -> TuningResult:
    result.cache_hits += objective.cache_hits
    return result


def live_random_search(
    objective: LiveObjective,
    space: ParameterSpace,
    n_trials: int = 8,
    seed: int = 0,
) -> TuningResult:
    """Seeded random search against a live cluster.

    Assignments come from the same sequential RNG stream as the offline
    :func:`~repro.tuning.random_search.random_search`, and every score
    is the offline arithmetic over a bit-identical replay — so the
    returned ranking is bit-identical to the offline search at any
    cluster size.  ``workers`` is deliberately absent: the cluster is
    the parallelism.
    """
    result = random_search(
        objective, space, n_trials=n_trials, seed=seed, workers=1
    )
    return _finish(result, objective)


def live_grid_search(
    objective: LiveObjective,
    space: ParameterSpace,
    points_per_dimension: int = 5,
    max_trials: Optional[int] = None,
) -> TuningResult:
    """Exhaustive grid search against a live cluster."""
    result = grid_search(
        objective,
        space,
        points_per_dimension=points_per_dimension,
        max_trials=max_trials,
        workers=1,
    )
    return _finish(result, objective)


def live_genetic_search(
    objective: LiveObjective,
    space: ParameterSpace,
    **kwargs: Any,
) -> TuningResult:
    """Genetic search against a live cluster (same seeded evolution)."""
    kwargs["workers"] = 1
    result = genetic_search(objective, space, **kwargs)
    return _finish(result, objective)
