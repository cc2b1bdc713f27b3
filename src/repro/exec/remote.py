"""Distributed execution over TCP: coordinator + remote shard workers.

The ``remote`` backend is the multi-host transport of the supervised
scheduler (:mod:`repro.exec.scheduler`), shaped like the paper's
production deployment (Table 7): the **coordinator**, living inside the
driver process, dispatches the per-round C/V map steps to **workers**
that registered over TCP, and runs the reduce itself over globally
re-assembled arrays. Workers are started out-of-band (``kbt worker
--connect HOST:PORT``, any mix of local and remote machines) and connect
*to* the coordinator, so only the coordinator needs a reachable address.

Wire format: :mod:`repro.exec.protocol` — length-prefixed frames whose
arrays travel as raw ``.npy`` byte strings under a JSON manifest with a
SHA-256 blob digest. Shard packets ship to a worker at most once per
connection and are cached there; per-iteration parameter vectors ship
every round. The coordinator scatters each winning result into its
outputs in engine array order, so a remote fit is **bit-identical** to
the serial backend for any worker count, placement and recovery history.

A lost connection — or a frame whose digest mismatches
(:class:`~repro.exec.protocol.ProtocolError`), after which the stream
offsets are untrustworthy — moves the worker's shards to the
least-loaded survivor. Workers that lose their connection reconnect and
register under a fresh index, which is also what lets a restarted
coordinator (``resume=True``) pick its fleet up again. The
``drop_connection`` and ``corrupt_frame`` faults of
:mod:`repro.exec.faults` exercise both paths.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time

import numpy as np

from repro.core.config import MultiLayerConfig, parse_remote_endpoint
from repro.exec.backends import ShardSource
from repro.exec.faults import FaultPlan
from repro.exec.plan import Shard
from repro.exec.protocol import (
    ProtocolError,
    encode_message,
    recv_message,
    send_frame,
    send_message,
)
from repro.exec.scheduler import (
    CONNECT_TIMEOUT_ENV,
    ExecError,
    _POLL_S,
    _SupervisedSession,
)
from repro.exec.spill import SpillError, _SHARD_ARRAY_FIELDS
from repro.exec.worker import (
    _ITER,
    ShardState,
    _describe_error,
    param_vectors,
    run_task,
)


# ----------------------------------------------------------------------
# Worker side (`kbt worker --connect HOST:PORT`)
# ----------------------------------------------------------------------
def run_worker(
    endpoint: str,
    retry_interval: float = 1.0,
    max_retries: int | None = None,
) -> int:
    """Serve map steps for the coordinator at ``endpoint``; returns an
    exit code.

    The worker connects, registers (``hello`` -> ``welcome``, which
    assigns its index and carries the model config), then executes task
    messages until the coordinator sends ``stop`` (exit 0). A lost
    connection — the coordinator crashed, restarted, or the network
    hiccuped — is not fatal: the worker sleeps ``retry_interval``
    seconds and reconnects, re-registering under a fresh index with
    empty caches (the coordinator re-ships packets and restore state on
    demand). ``max_retries`` bounds *consecutive* failed connection
    attempts (None: retry forever); any successful registration resets
    the count.
    """
    host, port = parse_remote_endpoint(endpoint)
    faults = FaultPlan.from_env()
    failures = 0
    while True:
        try:
            sock = socket.create_connection((host, port))
        except OSError as err:
            failures += 1
            if max_retries is not None and failures > max_retries:
                print(
                    f"kbt worker: cannot reach coordinator at {endpoint} "
                    f"after {failures} attempt(s): {err}"
                )
                return 1
            time.sleep(retry_interval)
            continue
        failures = 0
        try:
            stopped = _serve_connection(sock, faults)
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if stopped:
            return 0
        time.sleep(retry_interval)


def _serve_connection(sock: socket.socket, faults: FaultPlan) -> bool:
    """One registration's task loop; True iff the coordinator said stop."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_message(sock, "hello")
        kind, meta, _ = recv_message(sock)
        if kind != "welcome":
            return False
        worker_index = int(meta["worker_index"])
        from repro.io.artifact import config_from_dict

        cfg = config_from_dict(meta["config"])
        packets: dict[int, Shard] = {}
        states: dict[int, ShardState] = {}
        while True:
            kind, meta, arrays = recv_message(sock)
            if kind == "stop":
                return True
            if kind != "task":
                return False
            round_id = int(meta["round"])
            if faults.should_kill(worker_index, round_id):
                os._exit(1)
            if faults.drops_connection(worker_index, round_id):
                # Abrupt close mid-protocol: the coordinator sees a dead
                # connection; this worker reconnects under a new index,
                # so the fault fires exactly once.
                sock.close()
                return False
            reply_meta, reply_arrays = _execute_task(
                cfg, meta, arrays, packets, states, faults
            )
            payload = encode_message("result", reply_meta, reply_arrays)
            if faults.corrupts_frame(worker_index, round_id):
                # Flip the last blob byte *after* the digest was
                # computed: the frame arrives well-formed but fails
                # verification, which must condemn the connection.
                payload = payload[:-1] + bytes([payload[-1] ^ 0xFF])
            send_frame(sock, payload)
    except (EOFError, ProtocolError, OSError):
        return False


def _execute_task(
    cfg: MultiLayerConfig,
    meta: dict,
    arrays: dict[str, np.ndarray],
    packets: dict[int, Shard],
    states: dict[int, ShardState],
    faults: FaultPlan,
) -> tuple[dict, dict[str, np.ndarray]]:
    """Run one map step; returns the result message's (meta, arrays)."""
    kind = meta["task_kind"]
    reply: dict = {
        "round": int(meta["round"]),
        "shard": int(meta["shard"]),
        "attempt": int(meta["attempt"]),
        "task_kind": kind,
        "error": None,
    }

    def fetch(index: int) -> Shard:
        shard = packets.get(index)
        if shard is None:
            shard = _unpack_shard(meta, arrays)
            if shard is None:
                raise SpillError(
                    f"task for shard {index} arrived without a packet "
                    "and none is cached on this worker"
                )
            packets[index] = shard
        return shard

    try:
        restore = None
        if "restore.priors" in arrays:
            restore = (arrays["restore.priors"], arrays["restore.posterior"])
        _, result = run_task(
            kind, cfg, reply["shard"], reply["round"], reply["attempt"],
            fetch=fetch, states=states, restore=restore,
            do_prior=bool(meta["do_prior"]), base_scalar=meta["base_scalar"],
            vectors=arrays, faults=faults,
        )
    except Exception as exc:  # reported to the coordinator, never fatal
        reply["error"] = _describe_error(exc)
        return reply, {}
    names = ("p_correct", "posterior") if kind == _ITER else ("priors",)
    return reply, dict(zip(names, result))


def _unpack_shard(
    meta: dict, arrays: dict[str, np.ndarray]
) -> Shard | None:
    packet = meta.get("packet")
    if packet is None:
        return None
    kwargs: dict = {
        "index": int(packet["index"]),
        "triple_lo": int(packet["triple_lo"]),
        "triple_hi": int(packet["triple_hi"]),
    }
    for name in _SHARD_ARRAY_FIELDS:
        kwargs[name] = arrays.get(f"packet.{name}")
    return Shard(**kwargs)


def _pack_shard(shard: Shard) -> tuple[dict, dict[str, np.ndarray]]:
    """The (meta entry, array segments) that ship a packet to a worker."""
    meta = {
        "index": int(shard.index),
        "triple_lo": int(shard.triple_lo),
        "triple_hi": int(shard.triple_hi),
    }
    arrays = {}
    for name in _SHARD_ARRAY_FIELDS:
        value = getattr(shard, name)
        if value is not None:
            arrays[f"packet.{name}"] = value
    return meta, arrays


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class _RemoteWorker:
    """Coordinator-side record of one registered worker connection."""

    __slots__ = ("index", "sock", "label", "alive", "shipped", "send_lock")

    def __init__(self, index: int, sock: socket.socket, label: str) -> None:
        self.index = index
        self.sock = sock
        #: The worker's ``host:port``, named in failure messages.
        self.label = label
        self.alive = True
        #: Shard indices whose packet this connection already received.
        self.shipped: set[int] = set()
        self.send_lock = threading.Lock()

    def send(self, kind: str, meta: dict, arrays: dict) -> None:
        with self.send_lock:
            send_message(self.sock, kind, meta, arrays)

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.close()
        except OSError:
            pass


class _RemoteSession(_SupervisedSession):
    """The scheduler's TCP transport: the coordinator.

    A task is one frame, carrying the shard packet the first time a
    connection sees that shard. One reader thread per worker turns
    result frames and broken connections into events on one queue,
    which :meth:`_poll` drains. Results are scattered by the
    coordinator. A lost connection's shards move to the least-loaded
    survivor (new capacity only arrives when a worker reconnects). The
    round fence is bookkeeping only: the coordinator alone writes the
    outputs, so a superseded attempt's late result is simply discarded.
    """

    def __init__(self, source: ShardSource, cfg: MultiLayerConfig) -> None:
        super().__init__(source, cfg)
        self._endpoint = cfg.remote_endpoint
        self._num_workers = cfg.num_workers or 1
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._readers: dict[int, threading.Thread] = {}
        self._events: queue.Queue = queue.Queue()
        self._closing = False
        self._config_payload: dict | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "_RemoteSession":
        from repro.io.artifact import config_to_dict

        self._config_payload = config_to_dict(self._cfg)
        host, port = parse_remote_endpoint(self._endpoint)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
            )
            listener.bind((host, port))
            listener.listen()
            listener.settimeout(_POLL_S)
            self._listener = listener
            self._accept_thread = threading.Thread(
                target=self._accept_loop, daemon=True,
                name="kbt-remote-accept",
            )
            self._accept_thread.start()
            self._await_workers(self._num_workers)
            alive = sorted(self._alive_workers(), key=lambda w: w.index)
            for shard_index in range(self._source.num_shards):
                self._home[shard_index] = alive[shard_index % len(alive)].index
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._closing = True
        with self._workers_lock:
            workers = list(self._workers.values())
        for worker in workers:
            if worker.alive:
                try:
                    worker.send("stop", {}, {})
                except OSError:
                    pass
            worker.close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=self._sup.grace_s)
            self._accept_thread = None
        for thread in self._readers.values():
            thread.join(timeout=self._sup.grace_s)
        self._readers.clear()
        self._inflight.clear()
        self._home.clear()

    def _accept_loop(self) -> None:
        """Register connecting workers; one reader thread per worker."""
        while not self._closing:
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                conn.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
                kind, _, _ = recv_message(conn)
                if kind != "hello":
                    conn.close()
                    continue
                with self._workers_lock:
                    index = self._next_worker
                    self._next_worker += 1
                    worker = _RemoteWorker(
                        index, conn, f"{addr[0]}:{addr[1]}"
                    )
                    self._workers[index] = worker
                worker.send(
                    "welcome",
                    {
                        "worker_index": index,
                        "config": self._config_payload,
                    },
                    {},
                )
            except (EOFError, OSError):
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            reader = threading.Thread(
                target=self._reader_loop, args=(worker,), daemon=True,
                name=f"kbt-remote-reader-{index}",
            )
            self._readers[index] = reader
            reader.start()

    def _reader_loop(self, worker: _RemoteWorker) -> None:
        """Push one event per received result; 'dead' on any break.

        A digest mismatch (:class:`ProtocolError`) lands here too: one
        torn frame makes every later read on this stream untrustworthy,
        so the connection is condemned, not just the frame.
        """
        while True:
            try:
                kind, meta, arrays = recv_message(worker.sock)
                if kind != "result":
                    raise ProtocolError(
                        f"unexpected {kind!r} message from worker"
                    )
                ack = (
                    int(meta["round"]),
                    int(meta["shard"]),
                    int(meta["attempt"]),
                    meta.get("error"),
                )
            except (EOFError, OSError, KeyError, TypeError, ValueError) as err:
                self._events.put(("dead", worker.index, f"lost: {err!r}"))
                return
            self._events.put(("ack", worker.index, *ack, arrays))

    def _await_workers(self, count: int) -> None:
        """Block until ``count`` workers are registered and alive."""
        timeout_s = self._sup.connect_timeout_s
        deadline = time.monotonic() + timeout_s
        while True:
            alive = len(self._alive_workers())
            if alive >= count:
                return
            if time.monotonic() >= deadline:
                raise ExecError(
                    f"remote backend: only {alive} of {count} worker(s) "
                    f"connected to {self._endpoint} within "
                    f"{timeout_s:g}s; start workers with "
                    f"'kbt worker --connect {self._endpoint}' (or raise "
                    f"{CONNECT_TIMEOUT_ENV})"
                )
            time.sleep(_POLL_S)

    # ------------------------------------------------------------------
    # Transport hooks
    # ------------------------------------------------------------------
    def _begin_round(self, kind, params) -> tuple[np.ndarray, ...]:
        if kind == _ITER:
            return (
                np.empty(self._source.num_coords),
                np.empty(self._source.num_triples),
            )
        return (np.empty(self._source.num_coords),)

    def _send(self, worker: int, shard: int, attempt: int, restore) -> None:
        target = self._workers[worker]
        vectors, base_scalar = param_vectors(self._params)
        meta: dict = {
            "task_kind": self._kind,
            "round": self._round,
            "shard": shard,
            "attempt": attempt,
            "do_prior": self._params.do_prior_update,
            "base_scalar": base_scalar,
        }
        # Parameter vectors travel under their plain names, beside the
        # "packet." and "restore." segments.
        arrays = dict(vectors)
        if shard not in target.shipped:
            meta["packet"], packet_arrays = _pack_shard(
                self._source.get_shard(shard)
            )
            arrays.update(packet_arrays)
        if restore is not None:
            arrays["restore.priors"], arrays["restore.posterior"] = restore
        try:
            target.send("task", meta, arrays)
            target.shipped.add(shard)
        except OSError:
            pass  # the reader thread reports the dead connection

    def _poll(self, timeout: float) -> list[tuple]:
        try:
            return [self._events.get(timeout=timeout)]
        except queue.Empty:
            return []

    def _land(self, shard_index: int, arrays: dict) -> None:
        """Scatter a winning result in engine array order (the
        determinism ladder's reduce invariant)."""
        shard = self._source.get_shard(shard_index)
        if "priors" in arrays:
            self._outputs[0][shard.coord_idx] = arrays["priors"]
            return
        p_correct, posterior = self._outputs
        p_correct[shard.coord_idx] = arrays["p_correct"]
        posterior[shard.triple_lo : shard.triple_hi] = arrays["posterior"]

    def _replace(self, worker: int) -> int:
        self._workers[worker].close()
        if not self._alive_workers():
            # No capacity left: wait for any worker (a reconnecting one
            # or a fresh join); give up with the endpoint in the message.
            self._await_workers(1)
        return min(
            self._alive_workers(),
            key=lambda w: len(self._inflight.get(w.index, ())),
        ).index


class RemoteBackend:
    """Distributed execution: TCP coordinator + remote shard workers.

    The multi-host realization of the paper's MapReduce deployment
    (Table 7): map steps run wherever a ``kbt worker`` joined from,
    the reduce stays in the driver, and the coordinator supervises the
    fleet with the same retry/re-dispatch/speculation machinery as the
    ``processes`` backend. Bit-identical to every other backend for any
    worker count and any recovery history.
    """

    name = "remote"

    def open(
        self, source: ShardSource, cfg: MultiLayerConfig
    ) -> _RemoteSession:
        return _RemoteSession(source, cfg)


__all__ = ["CONNECT_TIMEOUT_ENV", "RemoteBackend", "run_worker"]
