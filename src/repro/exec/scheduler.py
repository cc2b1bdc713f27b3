"""The supervised scheduler behind the ``processes`` and ``remote`` backends.

The paper runs each EM step as MapReduce jobs (Table 7) whose master
re-runs lost map tasks and backs up stragglers. :class:`_SupervisedSession`
is that master, written once. Each round it dispatches one task per
shard and matches acks by ``(round, shard, attempt)``:

* a failed attempt (an error ack, or its worker's death) is re-dispatched
  with capped exponential backoff under a per-shard attempt budget; when
  the budget runs out the round raises :class:`ExecError`;
* a dead worker's shards are re-homed and marked *dirty*, so their next
  dispatch carries slices of the driver's restore snapshot and the new
  worker rebuilds the shard state bit-identically
  (:func:`~repro.exec.worker.rebuild_state`);
* once half of a round has reported, a shard still running past a
  median-derived deadline gets one speculative copy on the least-loaded
  idle worker — first result wins, which is safe because map steps are
  pure and bit-deterministic;
* acks from an earlier round, and the loser's ack of a speculated shard,
  are discarded.

A transport subclass supplies what differs between the two backends:
how a task is sent (:meth:`_send`), where the next ack or death comes
from (:meth:`_poll`), where results land (:meth:`_begin_round`,
:meth:`_land`), who takes a dead worker's shards (:meth:`_replace`) and
what the round fence does (:meth:`_fence`).

Supervision knobs read from the environment, once per session:
``KBT_MAX_SHARD_ATTEMPTS``, ``KBT_RETRY_BACKOFF_S``,
``KBT_RETRY_BACKOFF_CAP_S``, ``KBT_STRAGGLER_FACTOR`` (0 disables
speculation), ``KBT_STRAGGLER_MIN_S``, ``KBT_WORKER_GRACE_S`` and
``KBT_REMOTE_CONNECT_TIMEOUT_S``.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from dataclasses import dataclass, field, fields

import numpy as np

from repro.core.config import MultiLayerConfig
from repro.exec.worker import _FINAL, _ITER, FinalizeParams, IterationParams

#: Scheduler poll interval: bounds how fast acks are collected, dead
#: workers are noticed, and due retries / speculation fire.
_POLL_S = 0.05

#: How long the remote coordinator waits for the initial workers to
#: register (and, mid-fit, for any worker at all to be connected).
CONNECT_TIMEOUT_ENV = "KBT_REMOTE_CONNECT_TIMEOUT_S"


class ExecError(RuntimeError):
    """A shard map step failed terminally (its retry budget ran out).

    Raised by the supervising sessions, naming the shard, the attempt
    count, and the underlying cause prefixed by the worker
    (``worker N (pid P)`` or ``worker N (host:port)``): a crash, a lost
    connection, or the error the worker reported — e.g. a
    :class:`~repro.exec.spill.SpillError` whose message carries the
    regenerate remedy. The CLI reports it as a one-line error.
    """

    def __init__(
        self,
        message: str,
        *,
        shard_index: int | None = None,
        attempts: int | None = None,
    ) -> None:
        super().__init__(message)
        self.shard_index = shard_index
        self.attempts = attempts


@dataclass(frozen=True)
class _Supervision:
    """Worker-supervision knobs; one snapshot is taken per session."""

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    straggler_factor: float = 4.0
    straggler_min_s: float = 0.5
    grace_s: float = 5.0
    connect_timeout_s: float = 60.0

    @classmethod
    def from_env(cls, environ=None) -> "_Supervision":
        """Read the knobs from the environment (unset or empty: default).

        A malformed or negative value (an attempt budget below 1) raises
        ``ValueError`` naming the variable and the value, so a typo
        cannot silently change how a fit recovers.
        """
        env = os.environ if environ is None else environ
        values = {}
        for knob in fields(cls):
            name = _ENV_NAMES[knob.name]
            raw = env.get(name, "")
            if not raw:
                continue
            kind = type(knob.default)
            least = 1 if kind is int else 0
            try:
                value = kind(raw)
            except ValueError:
                value = None
            if value is None or not value >= least:
                expected = "an integer" if kind is int else "a number"
                raise ValueError(
                    f"malformed {name}={raw!r}: expected {expected} "
                    f">= {least}"
                )
            values[knob.name] = value
        return cls(**values)


_ENV_NAMES = {
    "max_attempts": "KBT_MAX_SHARD_ATTEMPTS",
    "backoff_base_s": "KBT_RETRY_BACKOFF_S",
    "backoff_cap_s": "KBT_RETRY_BACKOFF_CAP_S",
    "straggler_factor": "KBT_STRAGGLER_FACTOR",
    "straggler_min_s": "KBT_STRAGGLER_MIN_S",
    "grace_s": "KBT_WORKER_GRACE_S",
    "connect_timeout_s": CONNECT_TIMEOUT_ENV,
}


@dataclass
class _ShardTask:
    """Per-round scheduling state of one shard's map step."""

    shard: int
    failures: int = 0
    next_attempt: int = 0
    #: attempt number -> worker index, for attempts still in flight.
    running: dict[int, int] = field(default_factory=dict)
    retry_at: float | None = None
    speculated: bool = False
    first_dispatch: float = 0.0
    done: bool = False


class _SupervisedSession:
    """The scheduling policy over an abstract worker transport.

    Subclasses register their workers in ``_workers`` (index -> handle
    with ``index``, ``alive`` and ``label``, the pid or address named in
    failure messages), taking indices from ``_next_worker`` — indices
    are never reused, so faults keyed to an index fire once and stale
    acks never alias a new worker — fill ``_home`` (shard -> worker)
    when entered, and implement the transport hooks. Acks and deaths
    reach the scheduler as events from :meth:`_poll`:
    ``("ack", worker, round, shard, attempt, error, payload)`` and
    ``("dead", worker, reason)``.
    """

    def __init__(self, source, cfg: MultiLayerConfig) -> None:
        self._source = source
        self._cfg = cfg
        self._sup = _Supervision.from_env()
        self._workers: dict = {}
        self._workers_lock = threading.Lock()
        self._next_worker = 0
        self._home: dict[int, int] = {}
        self._dirty: set[int] = set()
        #: worker index -> set of (round, shard, attempt) not yet acked.
        self._inflight: dict[int, set] = {}
        self._round = 0
        self._kind = _ITER
        self._params: IterationParams | FinalizeParams | None = None
        self._tasks: dict[int, _ShardTask] = {}
        self._durations: list[float] = []
        self._outputs: tuple[np.ndarray, ...] = ()
        # The restore snapshot defaults to the pre-round-1 state (initial
        # priors, zero posterior); the driver refreshes it every round.
        self._restore_priors = np.full(source.num_coords, cfg.alpha)
        self._restore_posterior = np.zeros(source.num_triples)

    # ------------------------------------------------------------------
    # Transport hooks
    # ------------------------------------------------------------------
    def _begin_round(
        self, kind: str, params: IterationParams | FinalizeParams
    ) -> tuple[np.ndarray, ...]:
        """Prepare a round; return the buffers its results land in —
        ``(p_correct, posterior)`` for a map round, ``(priors,)`` for the
        final pass."""
        raise NotImplementedError

    def _send(self, worker: int, shard: int, attempt: int, restore) -> None:
        """Deliver an attempt of ``shard`` in the current round (``_kind``,
        ``_round``, ``_params``). ``restore`` is ``None`` or the shard's
        ``(priors, posterior)`` slices of the restore snapshot, for a
        worker that must rebuild the shard state. A worker's death is
        reported by :meth:`_poll`, not here."""
        raise NotImplementedError

    def _poll(self, timeout: float) -> list[tuple]:
        """The next events, waiting at most ``timeout`` seconds."""
        raise NotImplementedError

    def _land(self, shard: int, payload) -> None:
        """Put a winning ack's results into the round's outputs (by
        default nothing: the worker wrote them already)."""

    def _replace(self, worker: int) -> int:
        """Release a dead or fenced worker; return its shards' new home."""
        raise NotImplementedError

    def _fence(self) -> None:
        """Round boundary: no attempt of this round may write later."""

    # ------------------------------------------------------------------
    # Restore state (checkpoint resume + mid-fit state reconstruction)
    # ------------------------------------------------------------------
    def set_restore_state(
        self, priors: np.ndarray, posterior: np.ndarray
    ) -> None:
        """Install the driver's end-of-previous-round global snapshot.

        Any shard dispatched to a worker that does not hold its current
        state (a replacement, a speculation target, or after
        :meth:`restore`) ships its slices of this snapshot so the worker
        can rebuild the state bit-identically. The arrays are
        driver-owned copies that no worker mutates mid-round.
        """
        self._restore_priors = priors
        self._restore_posterior = posterior

    def restore(self, priors: np.ndarray, posterior: np.ndarray) -> None:
        """Resume from a checkpoint: every shard state must be rebuilt."""
        self.set_restore_state(
            np.array(priors, dtype=np.float64),
            np.array(posterior, dtype=np.float64),
        )
        self._dirty.update(range(self._source.num_shards))

    # ------------------------------------------------------------------
    # The ExecutionSession contract
    # ------------------------------------------------------------------
    def run_iteration(
        self,
        params: IterationParams,
        out_p_correct: np.ndarray,
        out_posterior: np.ndarray,
    ) -> None:
        p_correct, posterior = self._run_round(_ITER, params)
        out_p_correct[:] = p_correct
        out_posterior[:] = posterior

    def finalize(self, params: FinalizeParams) -> np.ndarray:
        (priors,) = self._run_round(_FINAL, params)
        return priors.copy()

    # ------------------------------------------------------------------
    # Round engine
    # ------------------------------------------------------------------
    def _run_round(
        self, kind: str, params: IterationParams | FinalizeParams
    ) -> tuple[np.ndarray, ...]:
        self._round += 1
        self._kind = kind
        self._params = params
        self._outputs = self._begin_round(kind, params)
        total = self._source.num_shards
        self._tasks = {index: _ShardTask(index) for index in range(total)}
        self._durations = []
        for task in self._tasks.values():
            self._dispatch(task)
        while len(self._durations) < total:
            self._launch_due()
            self._maybe_speculate()
            for event in self._poll(_POLL_S):
                if event[0] == "dead":
                    self._on_dead(event[1], event[2])
                else:
                    self._on_ack(*event[1:])
        self._fence()
        return self._outputs

    def _describe(self, worker: int) -> str:
        return f"worker {worker} ({self._workers[worker].label})"

    def _alive_workers(self) -> list:
        with self._workers_lock:
            return [w for w in self._workers.values() if w.alive]

    def _dispatch(self, task: _ShardTask, target: int | None = None) -> None:
        shard_index = task.shard
        home = self._home[shard_index]
        if target is None:
            target = home
        attempt = task.next_attempt
        task.next_attempt += 1
        restore = None
        if shard_index in self._dirty or target != home:
            shard = self._source.get_shard(shard_index)
            restore = (
                self._restore_priors[shard.coord_idx],
                self._restore_posterior[shard.triple_lo : shard.triple_hi],
            )
        self._send(target, shard_index, attempt, restore)
        task.running[attempt] = target
        self._inflight.setdefault(target, set()).add(
            (self._round, shard_index, attempt)
        )
        if attempt == 0:
            task.first_dispatch = time.monotonic()

    def _record_failure(self, task: _ShardTask, cause: str) -> None:
        task.failures += 1
        if task.failures >= self._sup.max_attempts:
            raise ExecError(
                f"shard {task.shard} map step failed after "
                f"{task.failures} attempt(s) in round {self._round}; "
                f"last error: {cause}",
                shard_index=task.shard,
                attempts=task.failures,
            )
        delay = min(
            self._sup.backoff_base_s * (2.0 ** (task.failures - 1)),
            self._sup.backoff_cap_s,
        )
        task.retry_at = time.monotonic() + delay

    def _fail_attempt(
        self, task: _ShardTask, attempt: int, cause: str
    ) -> None:
        # With another attempt still live (speculation), let it race on;
        # only a shard with no live attempt and no scheduled retry
        # consumes budget and re-dispatches.
        task.running.pop(attempt, None)
        if not task.running and task.retry_at is None:
            self._record_failure(task, cause)

    def _on_ack(
        self, worker, ack_round, shard_index, attempt, error, payload
    ) -> None:
        self._inflight.get(worker, set()).discard(
            (ack_round, shard_index, attempt)
        )
        if ack_round != self._round:
            return  # stale ack from an already-fenced round
        task = self._tasks.get(shard_index)
        if task is None or task.done:
            return  # duplicate completion: speculation lost the race
        if error is not None:
            cause = f"{self._describe(worker)}: {error}"
            self._fail_attempt(task, attempt, cause)
            return
        self._land(shard_index, payload)
        task.done = True
        # First result wins: the acker holds the shard's current state
        # and becomes its home for subsequent rounds.
        self._home[shard_index] = worker
        self._dirty.discard(shard_index)
        self._durations.append(time.monotonic() - task.first_dispatch)

    def _on_dead(self, worker: int, reason: str) -> None:
        """Fail a dead worker's in-flight attempts of this round."""
        if not self._workers[worker].alive:
            return
        cause = f"{self._describe(worker)} {reason}"
        died = self._inflight.get(worker, set())
        self._retire(worker)
        for rnd, shard_index, attempt in died:
            task = self._tasks.get(shard_index)
            if rnd == self._round and task is not None and not task.done:
                self._fail_attempt(task, attempt, cause)

    def _retire(self, worker: int) -> None:
        """Take a worker out of service; its shards move to the heir the
        transport names, dirty (their next dispatch ships a restore)."""
        self._workers[worker].alive = False
        self._inflight.pop(worker, None)
        heir = self._replace(worker)
        for shard_index, owner in self._home.items():
            if owner == worker:
                self._home[shard_index] = heir
                self._dirty.add(shard_index)

    def _launch_due(self) -> None:
        now = time.monotonic()
        for task in self._tasks.values():
            if task.done or task.retry_at is None or now < task.retry_at:
                continue
            task.retry_at = None
            self._dispatch(task)

    def _maybe_speculate(self) -> None:
        """Speculative re-dispatch of stragglers, first result wins.

        The per-round deadline derives from the median completed-shard
        wall time once at least half the round has reported (scaled by
        ``straggler_factor``, floored at ``straggler_min_s``); each
        shard gets at most one speculative copy, placed on the least
        loaded worker not already running an attempt of it.
        """
        durations = self._durations
        if self._sup.straggler_factor <= 0.0:
            return
        if 2 * len(durations) < len(self._tasks):
            return
        deadline = max(
            statistics.median(durations) * self._sup.straggler_factor,
            self._sup.straggler_min_s,
        )
        now = time.monotonic()
        for task in self._tasks.values():
            if (
                task.done
                or task.speculated
                or task.retry_at is not None
                or not task.running
                or now - task.first_dispatch < deadline
            ):
                continue
            busy = set(task.running.values())
            idle = [w for w in self._alive_workers() if w.index not in busy]
            if not idle:
                continue
            target = min(
                idle, key=lambda w: len(self._inflight.get(w.index, ()))
            )
            task.speculated = True
            self._dispatch(task, target=target.index)
