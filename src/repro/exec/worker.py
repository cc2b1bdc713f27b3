"""The map side of sharded execution: per-shard E steps + prior state.

One :class:`ShardState` lives with each shard for the whole fit (in the
driver process for the serial/thread backends, inside the worker process
for the process backend). Each map round runs, for one shard:

1. the **deferred prior re-estimation** (Eq. 26) for the *previous*
   iteration, using the posterior/residual kept from that round and the
   accuracy the reduce just produced — equivalent to the unsharded
   engine's end-of-iteration update, just executed lazily at the start of
   the next map so one round trip per iteration suffices;
2. the **C step** (ExtCorr): per-coordinate vote counts + sigmoid;
3. the **V step** (TriplePr): per-item segmented softmax.

The per-source / per-column sufficient statistics (SrcAccu, ExtQuality)
are *not* summed here: the driver re-assembles ``p_correct`` and
``posterior`` globally and reduces them in the engine's original array
order, which is what makes sharded runs bit-identical to the unsharded
numpy engine (see :mod:`repro.exec.plan`).

:func:`run_task` is the body of one map task on a supervised worker —
a ``processes`` worker process and a ``remote`` worker run the same
steps; only how the task arrives and where its result goes differ.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.core.config import AbsenceScope, MultiLayerConfig
from repro.core.engine_numpy import _log_odds, _seeded_vcc, _sigmoid
from repro.exec.faults import FaultPlan
from repro.exec.plan import Shard
from repro.exec.spill import SpillError

#: Task kinds: a map round (:class:`IterationParams`) or the final prior
#: pass (:class:`FinalizeParams`).
_ITER = "iter"
_FINAL = "final"


@dataclass
class IterationParams:
    """Everything a shard needs for one map round, computed by the driver.

    ``base_absence`` is per-source under the ACTIVE absence scope and a
    scalar under ALL; ``source_vote`` is each source's V-step vote weight
    (``log n + log-odds(A_w)`` under ACCU, ``log-odds(A_w)`` under
    POPACCU). ``prior_accuracy`` is only read when ``do_prior_update`` is
    set (the deferred Eq. 26 pass for the previous iteration).
    """

    do_prior_update: bool
    prior_accuracy: np.ndarray | None
    pre_vote: np.ndarray
    abs_vote: np.ndarray
    base_absence: np.ndarray | float
    source_vote: np.ndarray


@dataclass
class FinalizeParams:
    """The end-of-fit prior pass (the engine's last Eq. 26 update)."""

    do_prior_update: bool
    accuracy: np.ndarray | None


@dataclass
class ShardState:
    """Mutable per-shard state carried across iterations.

    Holds the coordinate priors (Section 3.3.4) plus the previous
    round's value posteriors / residual mass — the inputs of the
    deferred Eq. 26 update. Invariant: a coordinate's triple and item
    live in the coordinate's own shard, so this state never needs
    cross-shard reads, which is what lets it stay resident with its
    worker while the packet arrays themselves may be re-mapped (or
    evicted) between rounds.
    """

    priors: np.ndarray
    posterior: np.ndarray
    residual: np.ndarray

    @classmethod
    def initial(cls, shard: Shard, cfg: MultiLayerConfig) -> "ShardState":
        return cls(
            priors=np.full(shard.num_coords, cfg.alpha),
            posterior=np.zeros(shard.num_triples),
            residual=np.zeros(shard.num_items),
        )


def rebuild_state(
    shard: Shard,
    cfg: MultiLayerConfig,
    priors: np.ndarray,
    posterior: np.ndarray,
) -> ShardState:
    """Reconstruct a shard's state from globally persisted vectors.

    Inputs are the shard's slices of the end-of-round *global* priors
    and value posteriors (a checkpoint, or the driver's restore
    snapshot). The residual mass is a pure function of the posterior and
    the shard's static item arrays; recomputing it here with the same
    :func:`_residual` as :func:`run_shard_iteration` makes the rebuilt state
    bit-identical to the one that was lost — the property both
    checkpoint resume and mid-fit shard re-dispatch rest on.

    Before any round has run the residual it derives from an all-zero
    posterior is not the initial all-zero residual — harmless, because
    round 1 never reads posterior/residual (the deferred Eq. 26 pass is
    not due before iteration 2) and overwrites both.
    """
    posterior = np.array(posterior, dtype=np.float64)
    if shard.num_items:
        residual = _residual(shard, posterior)
    else:
        posterior = np.zeros(0)
        residual = np.zeros(0)
    return ShardState(
        priors=np.array(priors, dtype=np.float64),
        posterior=posterior,
        residual=residual,
    )


def _residual(shard: Shard, posterior: np.ndarray) -> np.ndarray:
    """Each item's leftover posterior mass per unobserved value."""
    posterior_mass = np.add.reduceat(posterior, shard.item_ptr[:-1])
    return np.where(
        shard.num_unobserved > 0.0,
        np.maximum(1.0 - posterior_mass, 0.0)
        / np.maximum(shard.num_unobserved, 1.0),
        0.0,
    )


def run_shard_iteration(
    shard: Shard,
    cfg: MultiLayerConfig,
    state: ShardState,
    params: IterationParams,
) -> tuple[np.ndarray, np.ndarray]:
    """One map round: (deferred prior update,) C step, V step.

    Returns this shard's ``(p_correct, posterior)`` slices; ``state`` is
    updated in place (priors, posterior, residual for the next round).
    """
    if params.do_prior_update:
        assert params.prior_accuracy is not None
        _update_shard_priors(shard, cfg, state, params.prior_accuracy)

    # --- C step (Section 3.3.1) ---------------------------------------
    if cfg.absence_scope is AbsenceScope.ACTIVE:
        base = params.base_absence[shard.coord_source]
    else:
        base = params.base_absence
    vcc = _seeded_vcc(
        base,
        shard.entry_coord,
        shard.entry_conf
        * (params.pre_vote - params.abs_vote)[shard.entry_col],
        shard.num_coords,
    )
    p_correct = _sigmoid(vcc + _log_odds(state.priors))

    # --- V step (Sections 3.3.2-3.3.3) --------------------------------
    claim_p = p_correct[shard.claim_coord]
    if cfg.use_weighted_vcv:
        claim_weight = claim_p
    else:
        claim_weight = np.where(claim_p >= 0.5, 1.0, 0.0)
    if shard.claim_log_pop is None:
        contrib = claim_weight * params.source_vote[shard.claim_source]
    else:
        contrib = claim_weight * (
            params.source_vote[shard.claim_source] - shard.claim_log_pop
        )
    votes = np.bincount(
        shard.claim_triple, weights=contrib, minlength=shard.num_triples
    )
    if shard.num_items:
        starts = shard.item_ptr[:-1]
        shift = np.maximum(np.maximum.reduceat(votes, starts), 0.0)
        exp_votes = np.exp(votes - shift[shard.triple_item])
        z = np.add.reduceat(exp_votes, starts) + shard.num_unobserved * np.exp(
            -shift
        )
        posterior = exp_votes / z[shard.triple_item]
        residual = _residual(shard, posterior)
    else:
        posterior = np.zeros(0)
        residual = np.zeros(0)

    state.posterior = posterior
    state.residual = residual
    return p_correct, posterior


def finalize_shard(
    shard: Shard,
    cfg: MultiLayerConfig,
    state: ShardState,
    params: FinalizeParams,
) -> np.ndarray:
    """Run the engine's final Eq. 26 pass (if due) and return the priors."""
    if params.do_prior_update:
        assert params.accuracy is not None
        _update_shard_priors(shard, cfg, state, params.accuracy)
    return state.priors


def _update_shard_priors(
    shard: Shard,
    cfg: MultiLayerConfig,
    state: ShardState,
    accuracy: np.ndarray,
) -> None:
    """Eq. 26 over this shard's coordinates (all inputs are shard-local:
    a coordinate's triple and item always live in the coordinate's own
    shard, so the value posterior / residual lookups never cross shards).
    """
    p_true = np.zeros(shard.num_coords)
    has_triple = shard.coord_triple >= 0
    if state.posterior.size:
        p_true[has_triple] = state.posterior[shard.coord_triple[has_triple]]
    has_item = ~has_triple & (shard.coord_item >= 0)
    if state.residual.size:
        p_true[has_item] = state.residual[shard.coord_item[has_item]]
    source_accuracy = accuracy[shard.coord_source]
    state.priors = np.clip(
        p_true * source_accuracy
        + (1.0 - p_true) * (1.0 - source_accuracy),
        cfg.prior_floor,
        cfg.prior_ceiling,
    )


def param_vectors(
    params: IterationParams | FinalizeParams,
) -> tuple[dict[str, np.ndarray], float | None]:
    """The named vectors a task's parameters travel as, plus the
    ALL-scope ``base_absence`` scalar (None under ACTIVE and for the
    final pass). :func:`run_task` reads them back by the same names."""
    if isinstance(params, FinalizeParams):
        if not params.do_prior_update:
            return {}, None
        return {"accuracy": params.accuracy}, None
    vectors = {
        "pre_vote": params.pre_vote,
        "abs_vote": params.abs_vote,
        "source_vote": params.source_vote,
    }
    if params.do_prior_update:
        vectors["accuracy"] = params.prior_accuracy
    if isinstance(params.base_absence, np.ndarray):
        vectors["base_absence"] = params.base_absence
        return vectors, None
    return vectors, float(params.base_absence)


def run_task(
    kind: str,
    cfg: MultiLayerConfig,
    shard_index: int,
    round_id: int,
    attempt: int,
    *,
    fetch: Callable[[int], Shard],
    states: dict[int, ShardState],
    restore: tuple[np.ndarray, np.ndarray] | None,
    do_prior: bool,
    base_scalar: float | None,
    vectors: Mapping[str, np.ndarray],
    faults: FaultPlan,
) -> tuple[Shard, tuple[np.ndarray, ...]]:
    """Run one map task on a worker; return the shard and its results:
    ``(p_correct, posterior)`` for a map round, ``(priors,)`` for the
    final pass. ``restore`` rebuilds the shard state (a take-over or a
    resume); ``vectors``/``base_scalar`` come from :func:`param_vectors`.
    Map steps are idempotent (the deferred prior update is a pure
    function of the previous round's state), so re-running an attempt
    after a mid-step failure is always safe.
    """
    delay = faults.delay_seconds(shard_index, round_id, attempt)
    if delay > 0.0:
        time.sleep(delay)
    shard = fetch(shard_index)
    if faults.should_corrupt(shard_index, round_id, attempt):
        raise SpillError(
            f"injected corrupt packet read for shard {shard_index} "
            f"(fault plan, round {round_id}, attempt {attempt}); the "
            "spill directory is incomplete or corrupt — re-run the fit "
            "with --spill-dir to regenerate it"
        )
    if restore is not None:
        states[shard_index] = rebuild_state(shard, cfg, *restore)
    state = states.get(shard_index)
    if state is None:
        state = states[shard_index] = ShardState.initial(shard, cfg)
    accuracy = vectors["accuracy"] if do_prior else None
    if kind == _FINAL:
        final = FinalizeParams(do_prior_update=do_prior, accuracy=accuracy)
        return shard, (finalize_shard(shard, cfg, state, final),)
    params = IterationParams(
        do_prior_update=do_prior,
        prior_accuracy=accuracy,
        pre_vote=vectors["pre_vote"],
        abs_vote=vectors["abs_vote"],
        base_absence=(
            vectors["base_absence"]
            if cfg.absence_scope is AbsenceScope.ACTIVE
            else float(base_scalar)
        ),
        source_vote=vectors["source_vote"],
    )
    return shard, run_shard_iteration(shard, cfg, state, params)


def _describe_error(exc: BaseException) -> str:
    """What a worker reports on failure: user-facing errors (notably
    :class:`SpillError`, whose message carries the regenerate remedy)
    travel as their one-line message; everything else keeps the full
    traceback for debugging."""
    if isinstance(exc, SpillError):
        return str(exc)
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    ).strip()
