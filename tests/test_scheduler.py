"""Unit tests of the supervised scheduler over an in-memory transport.

:class:`~repro.exec.scheduler._SupervisedSession` holds the retry,
re-homing, speculation and ack-matching policy of both the
``processes`` and the ``remote`` backend; the transports only move
tasks and events. Here a fake transport stands in for both: it records
every dispatched attempt and answers from a per-test script, so each
rule is checked without a process or a socket. Also covered: the
environment knobs' validation, the pipe-ack size cap, and the remote
worker's failure text.
"""

from __future__ import annotations

import pickle
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import MultiLayerConfig
from repro.exec.backends import _MAX_ACK_BYTES, _send_ack
from repro.exec.faults import FaultPlan
from repro.exec.remote import _execute_task
from repro.exec.scheduler import (
    ExecError,
    _ShardTask,
    _Supervision,
    _SupervisedSession,
)
from repro.exec.worker import FinalizeParams, IterationParams

#: Fast knobs: no backoff, speculation as soon as half the round is in.
FAST = dict(
    backoff_base_s=0.0,
    backoff_cap_s=0.0,
    straggler_factor=1e-9,
    straggler_min_s=0.0,
)


def ack(worker, task, error=None, round_id=None, attempt=None):
    """An ack event for ``task``; a success carries the worker index as
    its payload, so the outputs show which attempt won."""
    return (
        "ack", worker, task.round if round_id is None else round_id,
        task.shard, task.attempt if attempt is None else attempt, error,
        None if error else float(worker),
    )


class FakeSource:
    """One coordinate and one triple per shard."""

    def __init__(self, num_shards: int) -> None:
        self.num_shards = self.num_coords = self.num_triples = num_shards

    def get_shard(self, index: int):
        return SimpleNamespace(
            coord_idx=np.array([index]), triple_lo=index,
            triple_hi=index + 1,
        )


class FakeTransport(_SupervisedSession):
    """Workers answer each attempt with ``answer(worker, task)`` — a list
    of events delivered at the next poll — and ``tick(poll_number)``
    adds events at a given poll. Shard ``i`` starts at home on worker
    ``i % num_workers``; a dead worker is replaced by a fresh one."""

    def __init__(self, num_shards=2, num_workers=2, answer=None, **knobs):
        super().__init__(FakeSource(num_shards), MultiLayerConfig())
        self._sup = _Supervision(**{**FAST, **knobs})
        self.answer = answer or (lambda worker, task: [ack(worker, task)])
        self.tick = lambda poll: []
        self.sent: list[tuple] = []  # (poll number, worker, task)
        self.events: list[tuple] = []
        self.polls = 0
        self.fences = 0
        self.replaced: list[int] = []
        for _ in range(num_workers):
            self._add_worker()
        for shard in range(num_shards):
            self._home[shard] = shard % num_workers

    def _add_worker(self) -> int:
        index = self._next_worker
        self._next_worker += 1
        self._workers[index] = SimpleNamespace(
            index=index, alive=True, label=f"fake {index}"
        )
        return index

    def attempts(self, shard):
        return [(w, t.attempt) for _, w, t in self.sent if t.shard == shard]

    # -- transport hooks -----------------------------------------------
    def _begin_round(self, kind, params):
        n = self._source.num_shards
        return (np.zeros(n), np.zeros(n)) if kind == "iter" else (
            np.zeros(n),
        )

    def _send(self, worker, shard, attempt, restore):
        task = SimpleNamespace(
            round=self._round, shard=shard, attempt=attempt, restore=restore
        )
        self.sent.append((self.polls, worker, task))
        self.events.extend(self.answer(worker, task))

    def _poll(self, timeout):
        self.polls += 1
        events, self.events = self.events + self.tick(self.polls), []
        if not events:
            time.sleep(0.001)
        return events

    def _land(self, shard, payload):
        self._outputs[0][shard] = payload

    def _replace(self, worker):
        self.replaced.append(worker)
        return self._add_worker()

    def _fence(self):
        self.fences += 1


def iteration(session):
    """Run one map round; return the winners' payloads per shard."""
    n = session._source.num_shards
    p_correct, posterior = np.zeros(n), np.zeros(n)
    params = IterationParams(
        do_prior_update=False, prior_accuracy=None, pre_vote=np.zeros(1),
        abs_vote=np.zeros(1), base_absence=0.0, source_vote=np.zeros(1),
    )
    session.run_iteration(params, p_correct, posterior)
    return p_correct


def test_retry_budget_exhaustion_after_backed_off_retries():
    """Every attempt of shard 0 fails: the retries go to the same home in
    attempt order, each after its backoff, and the last failure raises
    an ExecError naming shard, attempts and the worker-prefixed cause.
    Speculation is off: an idle worker would otherwise take a copy."""
    session = FakeTransport(
        answer=lambda w, t: [ack(w, t, "boom" if t.shard == 0 else None)],
        max_attempts=3, backoff_base_s=0.01, backoff_cap_s=0.015,
        straggler_factor=0.0,
    )
    stamps = []
    send = session._send
    session._send = lambda *a: (stamps.append(time.monotonic()), send(*a))
    with pytest.raises(ExecError) as excinfo:
        iteration(session)
    error = excinfo.value
    assert error.shard_index == 0 and error.attempts == 3
    assert "shard 0 map step failed after 3 attempt(s) in round 1" in str(
        error
    )
    assert str(error).endswith("last error: worker 0 (fake 0): boom")
    assert session.attempts(0) == [(0, 0), (0, 1), (0, 2)]
    shard0 = [s for s, (_, _, t) in zip(stamps, session.sent) if t.shard == 0]
    assert shard0[1] - shard0[0] >= 0.01
    assert shard0[2] - shard0[1] >= 0.015


def test_backoff_doubles_up_to_its_cap():
    session = FakeTransport(
        max_attempts=5, backoff_base_s=1.0, backoff_cap_s=3.0
    )
    task = _ShardTask(0)
    for expected in (1.0, 2.0, 3.0, 3.0):
        before = time.monotonic()
        session._record_failure(task, "cause")
        assert before + expected <= task.retry_at
        assert task.retry_at <= time.monotonic() + expected
    with pytest.raises(ExecError, match="after 5 attempt"):
        session._record_failure(task, "cause")


def test_stale_round_ack_is_discarded():
    """An ack carrying an earlier round's id neither completes nor fails
    the current round's task, even with a budget of one attempt."""

    def answer(worker, task):
        if task.round == 2 and task.shard == 0:
            return [
                ack(7, task, round_id=1),
                ack(7, task, error="stale boom", round_id=1),
                ack(worker, task),
            ]
        return [ack(worker, task)]

    session = FakeTransport(answer=answer, max_attempts=1)
    iteration(session)
    assert list(iteration(session)) == [0.0, 1.0]
    assert session.attempts(0) == [(0, 0), (0, 0)]


def test_speculation_loser_duplicate_ack_is_discarded():
    """Shard 0 straggles on worker 0, its speculative copy on worker 1
    wins; the loser's late ack (an error) is dropped: no failure, no
    overwrite, and its in-flight entry is cleared."""

    def answer(worker, task):
        if task.shard == 0 and task.attempt == 0:
            return []
        if task.shard == 0:
            return [ack(worker, task), ack(0, task, "late loser", attempt=0)]
        return [ack(worker, task)]

    session = FakeTransport(answer=answer, max_attempts=1)
    assert list(iteration(session)) == [1.0, 1.0]
    assert session.attempts(0) == [(0, 0), (1, 1)]
    assert session._home[0] == 1
    assert not session._inflight.get(0)


def test_speculation_waits_for_half_the_round_and_fires_once_per_shard():
    """With 3 of 4 shards straggling nothing is speculated; once half the
    round has reported each straggler gets exactly one copy, even while
    that copy straggles too."""
    held = {0, 1, 2}
    session = FakeTransport(
        num_shards=4, num_workers=4,
        answer=lambda w, t: [] if t.shard in held else [ack(w, t)],
    )
    first = {}

    def tick(poll):
        # Shards 1, then 0 and 2, finally report from their homes.
        release = {20: (1,), 60: (0, 2)}.get(poll, ())
        for shard in release:
            held.discard(shard)
            first[shard] = poll
        return [
            ack(w, t) for _, w, t in session.sent
            if t.shard in release and t.attempt == 0
        ]

    session.tick = tick
    iteration(session)
    copies = [(p, w, t) for p, w, t in session.sent if t.attempt > 0]
    assert sorted(t.shard for _, _, t in copies) == [0, 2]
    assert all(p >= first[1] for p, _, _ in copies)
    # Each copy runs on a worker other than the shard's home.
    assert all(worker != task.shard for _, worker, task in copies)


def test_dead_worker_shards_rehome_dirty_and_ship_restore_slices():
    """Worker 0 dies on its round-1 task: a replacement (a fresh index)
    becomes home of shard 0, the retry carries shard 0's restore
    slices, and once it succeeds the next round sends no restore."""
    deaths = []

    def answer(worker, task):
        if worker == 0:
            deaths.append(task)
            return [("dead", 0, "died in test")]
        return [ack(worker, task)]

    session = FakeTransport(answer=answer)
    session.set_restore_state(np.array([0.25, 0.75]), np.array([0.5, 0.9]))
    assert list(iteration(session)) == [2.0, 1.0]
    assert session.replaced == [0] and not session._workers[0].alive
    assert session._home[0] == 2 and session._dirty == set()
    (_, worker, retry), = [
        entry for entry in session.sent if entry[2].shard == 0
        and entry[2].attempt == 1
    ]
    assert worker == 2
    priors, posterior = retry.restore
    assert list(priors) == [0.25] and list(posterior) == [0.5]
    iteration(session)
    assert [t.restore for _, _, t in session.sent if t.round == 2] == [
        None, None,
    ]


def test_dirty_shards_ship_restore_after_checkpoint_restore():
    session = FakeTransport()
    session.restore(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
    iteration(session)
    assert [list(t.restore[0]) for _, _, t in session.sent] == [[0.1], [0.2]]
    assert session._dirty == set()


def test_fence_runs_once_per_round():
    session = FakeTransport()
    iteration(session)
    iteration(session)
    priors = session.finalize(
        FinalizeParams(do_prior_update=False, accuracy=None)
    )
    assert list(priors) == [0.0, 1.0]
    assert session.fences == 3


@pytest.mark.parametrize(
    "name, value",
    [
        ("KBT_MAX_SHARD_ATTEMPTS", "abc"),
        ("KBT_MAX_SHARD_ATTEMPTS", "0"),
        ("KBT_MAX_SHARD_ATTEMPTS", "2.5"),
        ("KBT_RETRY_BACKOFF_S", "-5"),
        ("KBT_RETRY_BACKOFF_CAP_S", "fast"),
        ("KBT_STRAGGLER_FACTOR", "nan"),
        ("KBT_STRAGGLER_MIN_S", "-0.1"),
        ("KBT_WORKER_GRACE_S", "-1"),
        ("KBT_REMOTE_CONNECT_TIMEOUT_S", "soon"),
    ],
)
def test_malformed_supervision_env_is_rejected(name, value):
    with pytest.raises(ValueError) as excinfo:
        _Supervision.from_env({name: value})
    assert name in str(excinfo.value)
    assert repr(value) in str(excinfo.value)


def test_supervision_env_values_parse():
    sup = _Supervision.from_env({
        "KBT_MAX_SHARD_ATTEMPTS": "5",
        "KBT_STRAGGLER_FACTOR": "0",
        "KBT_REMOTE_CONNECT_TIMEOUT_S": "0.3",
        "KBT_WORKER_GRACE_S": "",
    })
    assert sup.max_attempts == 5 and sup.straggler_factor == 0.0
    assert sup.connect_timeout_s == 0.3
    assert sup.grace_s == _Supervision.grace_s


@pytest.mark.parametrize("char", ["x", "路", "\U0001f600"])
def test_ack_frames_stay_within_the_atomic_cap(char):
    """ASCII, 3-byte and 4-byte UTF-8 errors are all cut by encoded
    size, so every ack stays one atomic pipe write."""
    frames = []
    conn = SimpleNamespace(send_bytes=frames.append)
    _send_ack(conn, (3, 7, 1, 0, char * 9000))
    _send_ack(conn, (3, 7, 1, 0, None))
    assert all(len(frame) <= _MAX_ACK_BYTES for frame in frames)
    worker, round_id, shard, attempt, error = pickle.loads(frames[0])
    assert (worker, round_id, shard, attempt) == (3, 7, 1, 0)
    assert error.startswith(char * 100)
    assert error.endswith(" ... (truncated)")


def test_remote_worker_reports_spill_remedy_verbatim():
    """A remote worker's SpillError travels as its one-line message —
    the regenerate remedy, word for word, with no traceback."""
    meta = {
        "task_kind": "iter", "round": 1, "shard": 0, "attempt": 0,
        "do_prior": False, "base_scalar": 0.0,
    }
    reply, arrays = _execute_task(
        MultiLayerConfig(), meta, {}, {0: object()}, {},
        FaultPlan(corrupt_packet=((0, 1, 1),)),
    )
    assert arrays == {}
    assert reply["error"].startswith("injected corrupt packet read for")
    assert reply["error"].endswith(
        "re-run the fit with --spill-dir to regenerate it"
    )
