"""The daemon's keeper: spawn, watch, restart, and know when to stop.

``repro serve --supervised`` runs this parent process instead of the
daemon itself. The supervisor spawns the daemon as a child (stdio
inherited, so the JSON-lines pipes — and any bytes buffered in them —
survive child death), then watches two signals:

* **crash** — the child process exits with a nonzero status;
* **hang** — the child's heartbeat file (touched by the daemon every
  ``ServiceConfig.heartbeat_interval`` seconds) goes stale for longer
  than ``heartbeat_timeout``; the supervisor SIGKILLs the wedged child
  and treats it as a crash.

Either way the child is restarted after a seeded exponential backoff —
with ``--run-dir`` state (write-ahead log, warm cache) intact, the new
generation replays every admitted-but-unanswered request via
``--recover``. A *crash loop* (more than ``restart_budget`` restarts
inside ``restart_window`` seconds) means restarts are not helping: the
supervisor writes a structured ``supervisor-giveup.json``, prints one
structured JSON line to stderr, and exits **3** (the CLI's
guard-incident code: the operator must intervene).

A clean child exit (0 — EOF drain or SIGTERM drain) ends supervision
with exit 0. SIGTERM/SIGINT to the supervisor are forwarded to the
child as SIGTERM, so the whole tree drains gracefully as one unit. A
stop that comes while no child runs (during start-up or a restart
backoff) is handed to the next child through the environment (see
:mod:`repro.startup`): it starts with SIGTERM latched and drains at
once, so frames already in the pipe are still answered.

Every lifecycle decision is appended to ``supervisor.log.jsonl`` in the
run directory (one JSON object per line), so a post-mortem can replay
exactly what the supervisor saw.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.contracts import boundary
from repro.runtime.journal import atomic_write_text
from repro.runtime.retry import RetryPolicy
from repro.startup import LATCHED_ENV, take_latched_sigterm

#: Exit status of a supervisor that gave up on a crash-looping child.
EXIT_GIVE_UP = 3

#: Files the supervisor shares with the daemon inside the run directory.
HEARTBEAT_FILENAME = "heartbeat"
PID_FILENAME = "daemon.pid"
GIVEUP_FILENAME = "supervisor-giveup.json"
LOG_FILENAME = "supervisor.log.jsonl"


def _default_backoff() -> RetryPolicy:
    return RetryPolicy(max_attempts=16, base_delay=0.1, multiplier=2.0,
                       max_delay=5.0, jitter=0.5, seed=0)


@dataclass(frozen=True)
class SupervisorPolicy:
    """Restart discipline of one supervisor.

    Attributes:
        restart_budget: restarts allowed inside ``restart_window``
            before the supervisor gives up (exit 3).
        restart_window: the crash-loop window, seconds.
        heartbeat_timeout: seconds of heartbeat staleness that declare
            the child hung (``0`` disables hang detection).
        poll_interval: child/heartbeat poll tick, seconds.
        backoff: seeded backoff between restarts (delays are drawn in
            order per restart-within-window, so reruns are
            reproducible).
    """

    restart_budget: int = 5
    restart_window: float = 60.0
    heartbeat_timeout: float = 10.0
    poll_interval: float = 0.1
    backoff: RetryPolicy = field(default_factory=_default_backoff)

    def __post_init__(self) -> None:
        if self.restart_budget < 1:
            raise ValueError("restart_budget must be >= 1")
        if self.restart_window <= 0:
            raise ValueError("restart_window must be positive")
        if self.heartbeat_timeout < 0:
            raise ValueError("heartbeat_timeout must be non-negative")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")


class Supervisor:
    """Spawn-and-watch loop around one daemon command line.

    Args:
        child_argv: the daemon command (already carrying ``--run-dir``
            and ``--recover``; the supervisor never edits it, so every
            generation starts identically).
        run_dir: shared state directory (heartbeat, WAL, logs).
        policy: restart discipline.
        sleep: injectable sleep (tests compress the backoff).
    """

    def __init__(self, child_argv: Sequence[str], run_dir: Path,
                 policy: SupervisorPolicy | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.child_argv = list(child_argv)
        self.run_dir = Path(run_dir)
        self.policy = policy if policy is not None else SupervisorPolicy()
        self._sleep = sleep
        self._stop_requested = False
        self._child: subprocess.Popen[bytes] | None = None
        self._spawned_at = 0.0
        self.generation = 0
        self.restarts_total = 0

    # -- lifecycle ----------------------------------------------------

    @boundary(raises=(OSError, subprocess.TimeoutExpired))
    def run(self) -> int:
        """Supervise until clean exit, forwarded shutdown, or give-up."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        previous = self._install_signal_forwarding()
        #: Restart wall-clock stamps inside the current window.
        recent: list[float] = []
        delays = list(self.policy.backoff.backoff_delays())
        try:
            while True:
                child = self._spawn()
                exit_code, hung = self._watch(child)
                if self._stop_requested:
                    self._log({"event": "stopped", "exit_code": exit_code,
                               "generation": self.generation})
                    return exit_code
                if exit_code == 0 and not hung:
                    self._log({"event": "clean-exit",
                               "generation": self.generation})
                    return 0
                now = time.monotonic()
                recent = [t for t in recent
                          if now - t <= self.policy.restart_window]
                if len(recent) >= self.policy.restart_budget:
                    return self._give_up(exit_code, hung, len(recent))
                recent.append(now)
                self.restarts_total += 1
                delay = (delays[min(len(recent) - 1, len(delays) - 1)]
                         if delays else 0.0)
                self._log({"event": "restart",
                           "generation": self.generation,
                           "exit_code": exit_code, "hung": hung,
                           "backoff_s": delay,
                           "restarts_in_window": len(recent)})
                if delay > 0:
                    self._sleep(delay)
                self.generation += 1
        finally:
            self._restore_signal_forwarding(previous)

    def _spawn(self) -> "subprocess.Popen[bytes]":
        # stdio is inherited on purpose: the request/response pipes
        # belong to the supervisor's caller and must survive child
        # death, so a restarted generation keeps reading the same
        # stream where its predecessor stopped.
        env = None
        if self._stop_requested:
            # Told to stop while no child was running to forward to:
            # the new child starts with SIGTERM latched and drains at
            # once, so frames already in the pipe are still answered.
            env = {**os.environ, LATCHED_ENV: "1"}
        child = subprocess.Popen(self.child_argv, env=env)
        self._child = child
        self._spawned_at = time.time()
        self._log({"event": "spawn", "generation": self.generation,
                   "pid": child.pid})
        return child

    def _watch(self, child: "subprocess.Popen[bytes]") -> tuple[int, bool]:
        """Block until the child exits or hangs; returns (code, hung)."""
        while True:
            code = child.poll()
            if code is not None:
                return code, False
            if self._heartbeat_stale():
                self._log({"event": "hang-detected",
                           "generation": self.generation,
                           "pid": child.pid,
                           "heartbeat_timeout": self.policy
                           .heartbeat_timeout})
                child.kill()
                child.wait()
                return -9, True
            self._sleep(self.policy.poll_interval)

    def _heartbeat_stale(self) -> bool:
        if self.policy.heartbeat_timeout <= 0:
            return False
        path = self.run_dir / HEARTBEAT_FILENAME
        try:
            beat = path.stat().st_mtime
        except OSError:
            beat = 0.0
        # Measured from the later of last-beat and spawn: a child still
        # importing has never beaten and must not be "stale" at birth.
        reference = max(beat, self._spawned_at)
        return time.time() - reference > self.policy.heartbeat_timeout

    def _give_up(self, exit_code: int, hung: bool, in_window: int) -> int:
        record = {
            "event": "give-up",
            "generation": self.generation,
            "last_exit_code": exit_code,
            "last_failure": "hang" if hung else "crash",
            "restarts_in_window": in_window,
            "restart_window_s": self.policy.restart_window,
            "restart_budget": self.policy.restart_budget,
            "restarts_total": self.restarts_total,
            "exit_code": EXIT_GIVE_UP,
        }
        self._log(record)
        try:
            atomic_write_text(self.run_dir / GIVEUP_FILENAME,
                              json.dumps(record, indent=2,
                                         sort_keys=True) + "\n")
        except OSError:  # repro: allow=contracts-broad-catch-swallow — the give-up artifact is advisory; the stderr line and exit code below carry the decision even on a full disk
            pass
        print(json.dumps(record, sort_keys=True), file=sys.stderr,
              flush=True)
        return EXIT_GIVE_UP

    # -- signals ------------------------------------------------------

    def _install_signal_forwarding(self) -> dict[int, Any]:
        if threading.current_thread() is not threading.main_thread():
            return {}

        def _forward(signum: int, frame: object) -> None:
            self._stop_requested = True
            child = self._child
            if child is not None and child.poll() is None:
                try:
                    child.send_signal(signal.SIGTERM)
                except OSError:  # repro: allow=contracts-broad-catch-swallow — the child exited between poll and signal; the watch loop reaps it either way
                    pass

        previous: dict[int, Any] = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.getsignal(signum)
            signal.signal(signum, _forward)
        if take_latched_sigterm(previous[signal.SIGTERM]):
            # SIGTERM came during start-up, before forwarding existed.
            self._stop_requested = True
        return previous

    def _restore_signal_forwarding(self, previous: dict[int, Any]) -> None:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    # -- logging ------------------------------------------------------

    def _log(self, record: dict[str, Any]) -> None:
        line = json.dumps(
            dict(record, ts=time.time(), supervisor_pid=os.getpid()),
            sort_keys=True)
        try:
            with open(self.run_dir / LOG_FILENAME, "a",
                      encoding="utf-8") as handle:
                handle.write(line + "\n")
        except OSError:  # repro: allow=contracts-broad-catch-swallow — lifecycle logging is best-effort; supervision must continue on a full disk
            pass
