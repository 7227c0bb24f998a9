"""The routing daemon: admission, coalescing, execution, graceful drain.

Front ends
----------
* **stdio** — :meth:`RoutingDaemon.serve` reads JSON-lines requests
  from a stream (stdin) and writes responses to another (stdout); EOF
  ends the session after the backlog is served.
* **socket** — :meth:`RoutingDaemon.serve_socket` accepts localhost TCP
  connections, each speaking the same JSON-lines protocol.

Both feed one bounded :class:`~repro.service.admission.AdmissionQueue`;
both answer *every* frame — malformed input, overload, draining, and
execution failures all come back as typed error responses.

Execution
---------
``workers=0`` routes requests serially on the daemon's main thread,
where the runtime pool's ``trial_deadline`` arms ``SIGALRM``;
``workers>=1`` ships requests to a persistent
:class:`~repro.runtime.pool.WorkerPool` of isolated processes, so a
kill or hard hang costs one request and one worker, never the daemon.

Identical requests (same config fingerprint) are *coalesced*: the first
becomes the leader, later ones wait for the leader's response and
receive a copy marked ``"coalesced": true``. Clean results also fill
the journal-backed warm cache, so repeats after the leader finished are
served without routing at all.

Shutdown
--------
SIGTERM (or :meth:`RoutingDaemon.request_drain`) triggers the graceful
drain: admission closes (new requests get ``draining`` rejections), the
backlog and in-flight requests get up to ``drain_grace`` seconds to
finish, stragglers are failed with structured ``drained`` errors, the
journal-backed cache is already durable (atomic per-record writes), and
the daemon exits 0.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, IO, Iterator

from repro.contracts import boundary
from repro.runtime.journal import ResultCache, atomic_write_text
from repro.runtime.pool import PoolTask, WorkerPool
from repro.runtime.trial import (
    FAILURE_DRAINED,
    TrialFailure,
    TrialOutcome,
)
from repro.service.admission import (
    AdmissionQueue,
    ServiceDraining,
    ServiceOverload,
)
from repro.service.breaker import BreakerBoard, BreakerPolicy
from repro.service.protocol import (
    ERROR_DRAINING,
    ERROR_EXCEPTION,
    ERROR_OVERLOAD,
    ERROR_PROTOCOL,
    ERROR_TIMEOUT,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    encode_frame,
    error_response,
    ok_response,
)
from repro.service.session import (
    SessionConfig,
    multinet_eligible,
    outcome_to_response,
    request_fingerprint,
    route_fleet_outcomes,
    route_outcome,
    run_route_task,
    task_frame,
    wire_frame,
)
from repro.service.supervisor import HEARTBEAT_FILENAME, PID_FILENAME
from repro.service.wal import PendingEntry, RequestWAL, compact, load_pending
from repro.startup import take_latched_sigterm

#: One response writer: thread-safe, never raises into the executor.
Reply = Callable[[dict[str, Any]], None]

#: Executor poll tick (seconds) — bounds drain-flag reaction latency.
_TICK = 0.1


@dataclass(frozen=True)
class ServiceConfig:
    """Daemon-level knobs, wrapping the per-request session config.

    Attributes:
        session: how each request executes (oracle, retries, chaos).
        queue_capacity: bound of the admission queue (load shedding
            beyond it).
        workers: 0 = serial on the daemon thread; N >= 1 = a persistent
            pool of N isolated worker processes.
        drain_grace: seconds the graceful drain gives the backlog and
            in-flight requests before failing them as ``drained``.
        cache_dir: warm-result journal directory (``None`` = in-memory
            cache only).
        cache_capacity: in-memory warm-cache bound.
        max_coalesced: waiters allowed behind one in-flight fingerprint
            before further duplicates are shed as overload.
        run_dir: durability/supervision state directory — the
            write-ahead request log, heartbeat file, and pid file live
            here (``None`` disables all three).
        recover: replay admitted-but-unanswered WAL entries from
            ``run_dir`` at startup (requires ``run_dir``).
        breaker: per-engine circuit-breaker policy over the oracle
            ladder (``None`` disables breakers).
        heartbeat_interval: seconds between heartbeat-file touches
            (the supervisor's hang detector watches the file's mtime).
        wal_fail_after: chaos hook — the WAL append with this 0-based
            index raises ``OSError`` once (disk-full simulation).
    """

    session: SessionConfig = field(default_factory=SessionConfig)
    queue_capacity: int = 64
    workers: int = 0
    drain_grace: float = 10.0
    cache_dir: Path | None = None
    cache_capacity: int = 4096
    max_coalesced: int = 64
    run_dir: Path | None = None
    recover: bool = False
    breaker: BreakerPolicy | None = field(default_factory=BreakerPolicy)
    heartbeat_interval: float = 1.0
    wal_fail_after: int | None = None

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.drain_grace < 0:
            raise ValueError("drain_grace must be non-negative")
        if self.max_coalesced < 1:
            raise ValueError("max_coalesced must be >= 1")
        if self.recover and self.run_dir is None:
            raise ValueError("recover requires run_dir (the WAL to "
                             "replay)")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")


@dataclass
class ServiceStats:
    """Service-level counters, reported by the ``stats`` op.

    The counters are mutated by the executor thread and read by reader/
    connection threads assembling stats frames, so every access goes
    through a method holding the internal lock — callers never touch
    the fields directly. ``to_json_dict`` is therefore a consistent
    snapshot (``requests_failed`` always equals the sum over
    ``errors_by_kind``, never a torn mid-update view).
    """

    requests_ok: int = 0
    requests_failed: int = 0
    protocol_errors: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    degraded: int = 0
    worker_crashes: int = 0
    replayed: int = 0
    wal_errors: int = 0
    errors_by_kind: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def count_error(self, kind: str) -> None:
        with self._lock:
            self.requests_failed += 1
            self.errors_by_kind[kind] = (
                self.errors_by_kind.get(kind, 0) + 1)

    def count_protocol_error(self, kind: str) -> None:
        """One malformed frame: a protocol error that also failed."""
        with self._lock:
            self.protocol_errors += 1
            self.requests_failed += 1
            self.errors_by_kind[kind] = (
                self.errors_by_kind.get(kind, 0) + 1)

    def count_ok(self, *, cached: bool = False,
                 degraded: bool = False) -> None:
        with self._lock:
            self.requests_ok += 1
            if cached:
                self.cache_hits += 1
            if degraded:
                self.degraded += 1

    def record_worker_crash(self) -> None:
        with self._lock:
            self.worker_crashes += 1

    def record_replayed(self) -> None:
        with self._lock:
            self.replayed += 1

    def record_coalesced(self) -> None:
        with self._lock:
            self.coalesced += 1

    def record_wal_error(self) -> None:
        with self._lock:
            self.wal_errors += 1

    def to_json_dict(self) -> dict[str, Any]:
        with self._lock:
            return {"requests_ok": self.requests_ok,
                    "requests_failed": self.requests_failed,
                    "protocol_errors": self.protocol_errors,
                    "cache_hits": self.cache_hits,
                    "coalesced": self.coalesced,
                    "degraded": self.degraded,
                    "worker_crashes": self.worker_crashes,
                    "replayed": self.replayed,
                    "wal_errors": self.wal_errors,
                    "errors_by_kind": dict(self.errors_by_kind)}


@dataclass
class _Admitted:
    """One admitted route request, with everything delivery needs."""

    request: Request
    fingerprint: str
    reply: Reply
    admitted_at: float
    budget: float
    wal_seq: int | None = None
    replayed: bool = False
    skip_engines: frozenset[str] = frozenset()
    followers: list["_Admitted"] = field(default_factory=list)

    def remaining(self) -> float:
        return self.budget - (time.monotonic() - self.admitted_at)


class RoutingDaemon:
    """A fault-tolerant routing service over JSON-lines transports."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config if config is not None else ServiceConfig()
        self.queue: AdmissionQueue[_Admitted] = AdmissionQueue(
            capacity=self.config.queue_capacity)
        self.cache = ResultCache(self.config.cache_dir,
                                 capacity=self.config.cache_capacity)
        self.stats = ServiceStats()
        self._drain_requested = threading.Event()
        #: Leaders by fingerprint: queued or in-flight requests later
        #: duplicates coalesce onto. Bounded by queue capacity + pool
        #: size; entries are removed the moment the leader responds.
        self._leaders: dict[str, _Admitted] = {}
        self._leaders_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._previous_sigterm: Any = None
        self._signals_installed = False
        self._heartbeat_stop = threading.Event()
        self.breakers = (None if self.config.breaker is None
                         else BreakerBoard(self.config.session.engines,
                                           self.config.breaker))
        self.wal: RequestWAL | None = None
        self._pending_replay: tuple[PendingEntry, ...] = ()
        if self.config.run_dir is not None:
            run_dir = Path(self.config.run_dir)
            run_dir.mkdir(parents=True, exist_ok=True)
            next_seq = 0
            if self.config.recover:
                replay = load_pending(run_dir)
                compact(run_dir, replay)
                self._pending_replay = replay.pending
                next_seq = replay.next_seq
            self.wal = RequestWAL(run_dir, next_seq=next_seq,
                                  fail_after=self.config.wal_fail_after)

    # -- shutdown -----------------------------------------------------

    def request_drain(self) -> None:
        """Begin graceful shutdown (idempotent, any thread)."""
        self._drain_requested.set()
        self._begin_drain()

    def _begin_drain(self) -> None:
        """Stop admitting: close the queue and the listening socket."""
        self.queue.close()
        listener = self._listener
        if listener is not None:
            try:
                listener.close()
            except OSError:  # repro: allow=contracts-broad-catch-swallow — double-close while racing the accept loop is harmless; the goal (stop accepting) is met
                pass

    def _install_signal_handlers(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return

        def _on_term(signum: int, frame: object) -> None:
            # Only set the flag: the handler interrupts the executor
            # thread at an arbitrary bytecode, possibly while it holds
            # the (non-reentrant) queue lock inside take() — closing
            # the queue here could self-deadlock. The executor loop
            # notices the flag within one poll tick and drains.
            self._drain_requested.set()

        self._previous_sigterm = signal.getsignal(signal.SIGTERM)
        signal.signal(signal.SIGTERM, _on_term)
        self._signals_installed = True
        if take_latched_sigterm(self._previous_sigterm):
            # SIGTERM came during start-up, before this handler: drain
            # now, before the transport reads a frame, so every frame
            # is answered ``draining`` instead of going unread.
            self.request_drain()

    def _restore_signal_handlers(self) -> None:
        """Put back whatever SIGTERM handler the host process had.

        Embedding the daemon (tests, the supervisor's in-process uses)
        must not permanently clobber the host's handlers.
        """
        if not self._signals_installed:
            return
        self._signals_installed = False
        try:
            signal.signal(signal.SIGTERM, self._previous_sigterm)
        except (ValueError, TypeError):  # repro: allow=contracts-broad-catch-swallow — restoring from a non-main thread (or an exotic saved handler) is best-effort; the daemon is exiting either way
            pass

    # -- intake -------------------------------------------------------

    @boundary(raises=())
    def handle_line(self, line: str, reply: Reply) -> None:
        """Parse, validate, and admit (or immediately answer) one frame.

        Runs on reader threads; a total boundary — every outcome is a
        reply, never an exception into the transport loop.
        """
        stripped = line.strip()
        if not stripped:
            return
        try:
            request = parse_checked(stripped, self.config.session)
        except ProtocolError as exc:
            self.stats.count_protocol_error(ERROR_PROTOCOL)
            reply(error_response(exc.frame_id, ERROR_PROTOCOL,
                                 type(exc).__name__, str(exc)))
            return
        try:
            if request.op == "ping":
                reply(ok_response(request.id, "ping", {
                    "version": PROTOCOL_VERSION,
                    "draining": self._drain_requested.is_set()}))
                return
            if request.op == "stats":
                # Each component snapshots its own counters under its
                # owning lock; the frame is a composition of consistent
                # snapshots, never a lock-free read of live counters.
                payload: dict[str, Any] = {
                    "service": self.stats.to_json_dict(),
                    "admission": self.queue.stats_snapshot(),
                    "cache": self.cache.stats_snapshot()}
                if self.breakers is not None:
                    payload["breakers"] = self.breakers.to_json_dict()
                reply(ok_response(request.id, "stats", payload))
                return
            self._admit_route(request, reply)
        except Exception as exc:
            # The last line of defense: whatever went wrong inside
            # admission must not kill the reader thread or leave the
            # client without an answer.
            self.stats.count_error(ERROR_EXCEPTION)
            reply(error_response(request.id, ERROR_EXCEPTION,
                                 type(exc).__name__, str(exc)))

    def _admit_route(self, request: Request, reply: Reply) -> None:
        fp = request_fingerprint(request, self.config.session)
        item = _Admitted(request=request, fingerprint=fp, reply=reply,
                         admitted_at=time.monotonic(),
                         budget=self.config.session.deadline_for(request))
        # Write-ahead: the frame is durably journaled *before* any
        # admission decision executes it, so a crash after this line
        # can never silently lose the request. Frames shed below get a
        # terminal record immediately.
        self._wal_admit(item)
        # Only the coalescing *decision* happens under the leaders
        # lock; the overload reply and its terminal WAL record (an
        # fsync) run after release so a slow disk cannot stall every
        # other admission.
        coalesce_full = False
        with self._leaders_lock:
            leader = self._leaders.get(fp)
            if leader is not None:
                if len(leader.followers) >= self.config.max_coalesced:
                    coalesce_full = True
                else:
                    leader.followers.append(item)
                    return
        if coalesce_full:
            self.stats.count_error(ERROR_OVERLOAD)
            self._wal_done(item, ERROR_OVERLOAD)
            reply(error_response(
                request.id, ERROR_OVERLOAD, "ServiceOverload",
                f"too many requests coalesced behind fingerprint "
                f"{fp} (cap {self.config.max_coalesced})"))
            return
        try:
            self.queue.offer(item)
        except ServiceOverload as exc:
            self.stats.count_error(ERROR_OVERLOAD)
            self._wal_done(item, ERROR_OVERLOAD)
            reply(error_response(request.id, ERROR_OVERLOAD,
                                 type(exc).__name__, str(exc)))
            return
        except ServiceDraining as exc:
            self.stats.count_error(ERROR_DRAINING)
            self._wal_done(item, ERROR_DRAINING)
            reply(error_response(request.id, ERROR_DRAINING,
                                 type(exc).__name__, str(exc)))
            return
        with self._leaders_lock:
            self._leaders[fp] = item

    # -- write-ahead log ----------------------------------------------

    def _wal_admit(self, item: _Admitted) -> None:
        """Journal one admitted frame; a WAL failure degrades durability,
        never availability (the request is still served)."""
        if self.wal is None:
            return
        try:
            item.wal_seq = self.wal.admit(wire_frame(item.request),  # repro: allow=interlock-unguarded-shared-field — single write before the item is published: every later reader acquires queue/leaders locks first, which fences this store
                                          item.fingerprint)
        except OSError:  # disk-full must not reject the request: served undurably, error counted (clients needing the guarantee watch wal_errors)
            self.stats.record_wal_error()

    def _wal_done(self, item: _Admitted, status: str) -> None:
        if self.wal is None or item.wal_seq is None:
            return
        try:
            self.wal.done(item.wal_seq, status)
        except OSError:  # a lost terminal record means at worst one extra idempotent, cache-served replay after the next crash
            self.stats.record_wal_error()

    # -- recovery & run-dir services ----------------------------------

    def _replay_pending(self, reply: Reply) -> None:
        """Re-enqueue the previous generation's unanswered WAL entries.

        Runs once, before the transport starts reading. Entries whose
        fingerprint already completed are answered from the warm cache
        by the normal execution path (that is what makes recovery
        idempotent); the rest are routed again. Admission capacity does
        not apply — these requests were already admitted once, and
        shedding them now would break the exactly-once promise the WAL
        exists to keep.
        """
        entries, self._pending_replay = self._pending_replay, ()
        for entry in entries:
            try:
                request = parse_checked(json.dumps(entry.frame),
                                        self.config.session)
            except ProtocolError as exc:
                # The frame was valid when admitted, so this means the
                # config changed between generations (e.g. fault
                # injection turned off). Terminal-record it so it is
                # never replayed again.
                self.stats.count_protocol_error(ERROR_PROTOCOL)
                reply(error_response(exc.frame_id, ERROR_PROTOCOL,
                                     type(exc).__name__, str(exc)))
                if self.wal is not None:
                    try:
                        self.wal.done(entry.seq, ERROR_PROTOCOL)
                    except OSError:  # same availability-over-durability trade as _wal_done
                        self.stats.record_wal_error()
                continue
            # Recomputed, never trusted from the log: the fingerprint
            # must bind the request to *this* generation's config.
            fp = request_fingerprint(request, self.config.session)
            item = _Admitted(
                request=request, fingerprint=fp, reply=reply,
                admitted_at=time.monotonic(),
                budget=self.config.session.deadline_for(request),
                wal_seq=entry.seq, replayed=True)
            with self._leaders_lock:
                leader = self._leaders.get(fp)
                if leader is not None:
                    leader.followers.append(item)
                    continue
            try:
                self.queue.requeue(item)
            except ServiceDraining:
                self._deliver(item, self._drained_response(item))
                continue
            with self._leaders_lock:
                self._leaders[fp] = item

    def _start_run_dir_services(self) -> None:
        """Write the pid file and start the heartbeat thread."""
        if self.config.run_dir is None:
            return
        run_dir = Path(self.config.run_dir)
        try:
            atomic_write_text(run_dir / PID_FILENAME, f"{os.getpid()}\n")
        except OSError:  # repro: allow=contracts-broad-catch-swallow — the pid file is advisory (chaos harnesses read it); serving continues without it
            pass
        threading.Thread(
            target=self._heartbeat_loop,
            args=(run_dir / HEARTBEAT_FILENAME,),
            name="service-heartbeat", daemon=True).start()

    def _heartbeat_loop(self, path: Path) -> None:
        """Touch the heartbeat file until told to stop.

        The supervisor's hang detector watches this file's mtime. The
        beat runs on its own thread, so it proves the process is alive
        and scheduling threads — catching stopped (``SIGSTOP``),
        swapped-to-death, and interpreter-wedged daemons; executor
        stalls on one slow request deliberately do *not* trip it (they
        are bounded by per-request deadlines, not the watchdog).
        """
        while True:
            try:
                path.touch()
            except OSError:  # repro: allow=contracts-broad-catch-swallow — a missed beat on a sick filesystem at worst triggers a supervisor restart, which is the safe direction
                pass
            if self._heartbeat_stop.wait(self.config.heartbeat_interval):
                return

    # -- delivery -----------------------------------------------------

    def _deliver(self, item: _Admitted, response: dict[str, Any]) -> None:
        """Reply to the leader and every coalesced follower, then untrack."""
        with self._leaders_lock:
            if self._leaders.get(item.fingerprint) is item:
                del self._leaders[item.fingerprint]
            followers = list(item.followers)
            item.followers.clear()
        if item.replayed:
            response = dict(response, replayed=True)
            self.stats.record_replayed()
        self._count_response(response)
        item.reply(response)
        self._wal_done(item, _disposition(response))
        for follower in followers:
            echoed = dict(response,
                          id=follower.request.id, coalesced=True)
            echoed.pop("replayed", None)
            if follower.replayed:
                echoed["replayed"] = True
                self.stats.record_replayed()
            self.stats.record_coalesced()
            self._count_response(echoed)
            follower.reply(echoed)
            self._wal_done(follower, _disposition(echoed))

    def _count_response(self, response: dict[str, Any]) -> None:
        if response.get("status") == "ok":
            self.stats.count_ok(cached=bool(response.get("cached")),
                                degraded=bool(response.get("degraded")))
            return
        error = response.get("error")
        kind = (error.get("kind", "exception")
                if isinstance(error, dict) else "exception")
        if kind == "crash":
            self.stats.record_worker_crash()
        self.stats.count_error(kind)

    # -- execution ----------------------------------------------------

    def _execute(self, item: _Admitted) -> dict[str, Any]:
        """Serial path: warm cache, deadline bookkeeping, then route."""
        warm = self.cache.lookup_cached(item.fingerprint)
        if warm is not None:
            return ok_response(item.request.id, "route",
                               dict(warm, fingerprint=item.fingerprint,
                                    cached=True))
        remaining = item.remaining()
        if remaining <= 0:
            return self._expired(item)
        if multinet_eligible(item.request, self.config.session):
            # Fleet-of-one keeps serial answers on the same oracle (and
            # hence the same fingerprint → answer mapping) as pooled
            # batches of the same daemon config. The stacked path is
            # pure graph-Elmore, so breakers do not apply.
            outcome = route_fleet_outcomes(
                [item.request], self.config.session, remaining)[0]
        else:
            skip = (frozenset() if self.breakers is None
                    else self.breakers.open_engines())
            outcome = route_outcome(item.request, self.config.session,
                                    remaining, skip)
            if self.breakers is not None:
                self.breakers.observe(
                    outcome, self.breakers.engine_of_record(skip))
        return outcome_to_response(item.request, item.fingerprint, outcome,
                                   cache=self.cache)

    def _expired(self, item: _Admitted) -> dict[str, Any]:
        return error_response(
            item.request.id, ERROR_TIMEOUT, "TrialTimeout",
            f"deadline ({item.budget:g}s) expired after "
            f"{time.monotonic() - item.admitted_at:.3f}s in queue",
            extra={"fingerprint": item.fingerprint})

    def _drained_response(self, item: _Admitted,
                          outcome: TrialOutcome | None = None
                          ) -> dict[str, Any]:
        if outcome is None:
            outcome = TrialFailure(
                kind=FAILURE_DRAINED, error_type="TrialDrained",
                message="request abandoned by graceful drain")
        return outcome_to_response(item.request, item.fingerprint, outcome)

    def _run_serial(self) -> None:
        """Executor loop, serial mode (runs on the calling thread)."""
        while not self._drain_requested.is_set():
            item = self.queue.take(timeout=_TICK)
            if item is not None:
                self._deliver(item, self._execute(item))
            elif self.queue.closed:
                break
        if self._drain_requested.is_set():
            self._begin_drain()
            self._drain_serial_backlog()

    def _drain_serial_backlog(self) -> None:
        """Serve what fits in the drain grace; fail the rest as drained."""
        deadline = time.monotonic() + self.config.drain_grace
        backlog = self.queue.drain_backlog()
        for index, item in enumerate(backlog):
            if time.monotonic() >= deadline:
                for straggler in backlog[index:]:
                    self._deliver(straggler,
                                  self._drained_response(straggler))
                return
            self._deliver(item, self._execute(item))

    def _run_pooled(self) -> None:
        """Executor loop, worker-pool mode."""
        pool = WorkerPool(self.config.workers)
        in_flight: dict[tuple[int, int], _Admitted] = {}
        sequence = 0

        def settle(key: tuple[int, int], outcome: TrialOutcome) -> None:
            settled = in_flight.pop(key, None)
            if settled is not None:
                if self.breakers is not None:
                    self.breakers.observe(
                        outcome, self.breakers.engine_of_record(
                            settled.skip_engines))
                self._deliver(settled, outcome_to_response(
                    settled.request, settled.fingerprint, outcome,
                    cache=self.cache))

        try:
            while not self._drain_requested.is_set():
                batch: list[_Admitted] = []
                while pool.can_accept():
                    item = self.queue.take(timeout=0.0)
                    if item is None:
                        break
                    if multinet_eligible(item.request,
                                         self.config.session):
                        # Fleet-eligible requests never occupy a pool
                        # slot: the whole gathered batch becomes one
                        # stacked in-process route_fleet call below.
                        batch.append(item)
                        continue
                    self._dispatch(pool, item, in_flight,
                                   key=(0, sequence))
                    sequence += 1
                if batch:
                    self._execute_fleet(batch)
                if in_flight:
                    for key, outcome in pool.poll(_TICK):
                        settle(key, outcome)
                elif self.queue.closed and len(self.queue) == 0:
                    break
                else:
                    # Idle: park on the queue instead of spinning
                    # (poll returns immediately with no busy workers).
                    idle_item = self.queue.take(timeout=_TICK)
                    if idle_item is not None:
                        if multinet_eligible(idle_item.request,
                                             self.config.session):
                            self._execute_fleet([idle_item])
                        else:
                            self._dispatch(pool, idle_item, in_flight,
                                           key=(0, sequence))
                            sequence += 1
            if self._drain_requested.is_set():
                self._begin_drain()
                for key, outcome in pool.drain(
                        self.config.drain_grace).items():
                    settle(key, outcome)
                for leftover in in_flight.values():
                    self._deliver(leftover,
                                  self._drained_response(leftover))
                in_flight.clear()
                for item in self.queue.drain_backlog():
                    self._deliver(item, self._drained_response(item))
        finally:
            pool.shutdown()

    def _execute_fleet(self, batch: list[_Admitted]) -> None:
        """Answer gathered fleet-eligible requests as one stacked batch.

        Runs in-process on the executor thread — the stacked graph-
        Elmore path has no SPICE subprocess to isolate and finishes in
        milliseconds, so it does not need a pool slot. Warm-cache and
        expiry bookkeeping is per member; survivors route through one
        :func:`~repro.service.session.route_fleet_outcomes` call whose
        deadline is the tightest member's remaining budget.
        """
        ready: list[_Admitted] = []
        for item in batch:
            warm = self.cache.lookup_cached(item.fingerprint)
            if warm is not None:
                self._deliver(item, ok_response(
                    item.request.id, "route",
                    dict(warm, fingerprint=item.fingerprint,
                         cached=True)))
                continue
            if item.remaining() <= 0:
                self._deliver(item, self._expired(item))
                continue
            ready.append(item)
        if not ready:
            return
        budget = min(item.remaining() for item in ready)
        outcomes = route_fleet_outcomes(
            [item.request for item in ready], self.config.session, budget)
        for item, outcome in zip(ready, outcomes):
            self._deliver(item, outcome_to_response(
                item.request, item.fingerprint, outcome,
                cache=self.cache))

    def _dispatch(self, pool: WorkerPool, item: _Admitted,
                  in_flight: dict[tuple[int, int], _Admitted],
                  key: tuple[int, int]) -> None:
        warm = self.cache.lookup_cached(item.fingerprint)
        if warm is not None:
            self._deliver(item, ok_response(
                item.request.id, "route",
                dict(warm, fingerprint=item.fingerprint, cached=True)))
            return
        remaining = item.remaining()
        if remaining <= 0:
            self._deliver(item, self._expired(item))
            return
        skip = (frozenset() if self.breakers is None
                else self.breakers.open_engines())
        item.skip_engines = skip
        task = PoolTask(key=key, fn=run_route_task,
                        args=(task_frame(item.request),
                              self.config.session, skip))
        immediate = pool.submit(task, timeout=remaining)
        if immediate is not None:
            self._deliver(item, outcome_to_response(
                item.request, item.fingerprint, immediate))
            return
        in_flight[key] = item

    # -- front ends ---------------------------------------------------

    @boundary(raises=(OSError,))
    def serve(self, input_stream: IO[str], output_stream: IO[str],
              install_signal_handlers: bool = False) -> int:
        """stdio front end: serve frames until EOF or drain; return 0.

        The reader thread feeds the admission queue; execution runs on
        the calling thread (main thread in the CLI, so per-request
        ``SIGALRM`` deadlines arm). Every line gets a response on
        ``output_stream``.
        """
        if install_signal_handlers:
            self._install_signal_handlers()
        write_lock = threading.Lock()

        def reply(frame: dict[str, Any]) -> None:
            with write_lock:
                try:
                    output_stream.write(encode_frame(frame) + "\n")
                    output_stream.flush()
                except (OSError, ValueError):  # repro: allow=contracts-broad-catch-swallow — the client hung up; dropping its response is the only option and the request itself already completed
                    pass

        self._start_run_dir_services()
        self._replay_pending(reply)
        reader = threading.Thread(  # repro: allow=interlock-daemon-thread-durable-io — daemon so a wedged stdin cannot block drain; a torn WAL tail from exit-kill is tolerated by load_pending's truncation scan
            target=self._read_stream, args=(input_stream, reply),
            name="service-reader", daemon=True)
        reader.start()
        try:
            if self.config.workers > 0:
                self._run_pooled()
            else:
                self._run_serial()
        finally:
            self._heartbeat_stop.set()
            self._restore_signal_handlers()
        reader.join(timeout=5.0)
        return 0

    def _read_stream(self, stream: IO[str], reply: Reply,
                     close_on_eof: bool = True) -> None:
        """Reader loop: one frame per line.

        ``close_on_eof`` distinguishes the transports: stdio EOF means
        the whole session is over (close admission, serve the backlog,
        exit), while one socket client hanging up must not affect the
        daemon or its other connections.
        """
        try:
            while True:
                line = stream.readline(MAX_FRAME_BYTES + 2)
                if line == "":
                    break
                if len(line) > MAX_FRAME_BYTES:
                    self.stats.count_protocol_error(ERROR_PROTOCOL)
                    reply(error_response(
                        None, ERROR_PROTOCOL, "ProtocolError",
                        f"frame exceeds {MAX_FRAME_BYTES} bytes"))
                    continue
                self.handle_line(line, reply)
        except (OSError, ValueError):  # repro: allow=contracts-broad-catch-swallow — transport died mid-read; already-admitted requests still execute
            pass
        finally:
            if close_on_eof:
                self.queue.close()

    @boundary(raises=(OSError,))
    def serve_socket(self, host: str = "127.0.0.1", port: int = 0,
                     install_signal_handlers: bool = False,
                     ready: Callable[[str, int], None] | None = None,
                     client_timeout: float = 60.0) -> int:
        """Localhost TCP front end (JSON-lines per connection).

        Binds, reports the bound address via ``ready`` (port 0 picks a
        free port), and serves until :meth:`request_drain`. Each
        connection gets its own reader thread; a connection idle longer
        than ``client_timeout`` seconds mid-request is dropped (the
        slow-client guard).
        """
        if install_signal_handlers:
            self._install_signal_handlers()
        listener = socket.create_server((host, port))
        self._listener = listener
        bound_host, bound_port = listener.getsockname()[:2]
        if ready is not None:
            ready(str(bound_host), int(bound_port))
        self._start_run_dir_services()
        # Socket replays answer into the void: the admitting
        # connection died with the previous generation, so the value of
        # the replay is filling the cache — the client's retry hits it.
        self._replay_pending(lambda frame: None)
        accept_thread = threading.Thread(  # repro: allow=interlock-daemon-thread-durable-io — daemon so a hung accept cannot outlive drain; WAL tails torn at exit are recovered (truncated) on the next generation's replay
            target=self._accept_loop, args=(listener, client_timeout),
            name="service-accept", daemon=True)
        accept_thread.start()
        try:
            if self.config.workers > 0:
                self._run_pooled()
            else:
                self._run_serial()
        finally:
            self._heartbeat_stop.set()
            self._restore_signal_handlers()
        try:
            listener.close()
        except OSError:  # repro: allow=contracts-broad-catch-swallow — already closed by request_drain; shutdown proceeds either way
            pass
        return 0

    def _accept_loop(self, listener: socket.socket,
                     client_timeout: float) -> None:
        while not self._drain_requested.is_set():
            try:
                conn, _addr = listener.accept()
            except OSError:  # repro: allow=contracts-broad-catch-swallow — listener closed by request_drain: the accept loop's normal exit
                break
            conn.settimeout(client_timeout)
            threading.Thread(target=self._serve_connection, args=(conn,),  # repro: allow=interlock-daemon-thread-durable-io — daemon so one wedged client cannot block shutdown; its in-flight admit at worst leaves a torn tail that load_pending truncates
                             name="service-conn", daemon=True).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        write_lock = threading.Lock()
        stream = conn.makefile("r", encoding="utf-8", newline="\n")

        def reply(frame: dict[str, Any]) -> None:
            with write_lock:
                try:
                    conn.sendall((encode_frame(frame) + "\n")
                                 .encode("utf-8"))
                except OSError:  # repro: allow=contracts-broad-catch-swallow — client hung up; its responses have nowhere to go and the connection closes below
                    pass

        try:
            self._read_stream(stream, reply, close_on_eof=False)
        finally:
            try:
                stream.close()
                conn.close()
            except OSError:  # repro: allow=contracts-broad-catch-swallow — double-close on a dead socket during teardown is harmless
                pass


def _disposition(response: dict[str, Any]) -> str:
    """A delivered response's WAL terminal status (``ok`` or error kind)."""
    if response.get("status") == "ok":
        return "ok"
    error = response.get("error")
    return (str(error.get("kind", "exception"))
            if isinstance(error, dict) else "exception")


def parse_checked(line: str, session: SessionConfig) -> Request:
    """Protocol parse plus daemon-level policy checks.

    Raises:
        ProtocolError: malformed frame, unknown algorithm, or a
            fault-injection directive on a daemon that has injection
            disabled (a production daemon must not let clients crash
            workers).
    """
    from repro.service.protocol import parse_frame
    from repro.service.session import ALGORITHMS

    request = parse_frame(line)
    if request.op == "route" and request.algorithm not in ALGORITHMS:
        raise ProtocolError(
            f"unknown algorithm {request.algorithm!r}; expected one of "
            f"{', '.join(sorted(ALGORITHMS))}", frame_id=request.id)
    if request.inject is not None and not session.enable_fault_injection:
        raise ProtocolError(
            "'inject' requires the daemon to run with fault injection "
            "enabled (--fault-injection)", frame_id=request.id)
    return request


def iter_responses(lines: Iterator[str]) -> Iterator[dict[str, Any]]:
    """Parse a response stream (client-side helper for tests/harnesses)."""
    import json

    for line in lines:
        stripped = line.strip()
        if stripped:
            data = json.loads(stripped)
            if isinstance(data, dict):
                yield data
