"""A SIGTERM during ``repro serve`` start-up drains instead of killing.

``repro serve`` latches SIGTERM before it imports the routing stack;
the daemon (or the supervisor) takes the latch over when it installs
its own handler. A signal in between must still end in a drain: every
frame answered, exit 0.
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys

import pytest

from repro.service import RoutingDaemon, Supervisor, SupervisorPolicy
from repro.service.supervisor import LOG_FILENAME
from repro.startup import LATCHED_ENV, latch_sigterm, take_latched_sigterm

NET = {"source": [0, 0], "sinks": [[400, 300], [700, 100]]}
FRAMES = [json.dumps({"op": "route", "id": f"r{i}", "algorithm": "ldrg",
                      "net": NET}) for i in range(5)]


@pytest.fixture
def latched():
    """Install a latch and deliver one SIGTERM to it."""
    previous = signal.getsignal(signal.SIGTERM)
    try:
        latch = latch_sigterm()
        os.kill(os.getpid(), signal.SIGTERM)
        yield latch
    finally:
        signal.signal(signal.SIGTERM, previous)


def kinds(out):
    return [json.loads(line)["error"]["kind"] for line in out.splitlines()]


def run_cli(*flags, env_extra=None, timeout=120):
    env = dict(os.environ, PYTHONPATH="src", **(env_extra or {}))
    return subprocess.run(
        [sys.executable, "-m", "repro", "serve", *flags],
        input="\n".join(FRAMES) + "\n", capture_output=True, text=True,
        env=env, timeout=timeout)


class TestLatch:
    def test_sigterm_is_recorded_not_fatal(self, latched):
        assert signal.getsignal(signal.SIGTERM) is latched
        assert take_latched_sigterm(latched) is True
        assert take_latched_sigterm(latched) is False  # taking clears it

    def test_environment_hands_a_latched_signal_on(self, monkeypatch):
        previous = signal.getsignal(signal.SIGTERM)
        monkeypatch.setenv(LATCHED_ENV, "1")
        try:
            latch = latch_sigterm()
            assert LATCHED_ENV not in os.environ  # not passed further
            assert take_latched_sigterm(latch) is True
        finally:
            signal.signal(signal.SIGTERM, previous)


class TestTakers:
    def test_daemon_drains_at_once_on_a_latched_signal(self, latched):
        out = io.StringIO()
        rc = RoutingDaemon().serve(io.StringIO("\n".join(FRAMES) + "\n"),
                                   out, install_signal_handlers=True)
        assert rc == 0
        assert kinds(out.getvalue()) == ["draining"] * len(FRAMES)

    def test_daemon_without_handlers_leaves_the_latch(self, latched):
        out = io.StringIO()
        RoutingDaemon().serve(io.StringIO(FRAMES[0] + "\n"), out)
        assert json.loads(out.getvalue())["status"] == "ok"
        assert take_latched_sigterm(latched) is True

    def test_supervisor_hands_a_latched_signal_to_its_child(self, latched,
                                                           tmp_path):
        probe = (f"import os, sys; "
                 f"sys.exit(0 if os.environ.get({LATCHED_ENV!r}) == '1' "
                 f"else 9)")
        supervisor = Supervisor(
            [sys.executable, "-c", probe], tmp_path,
            SupervisorPolicy(heartbeat_timeout=0.0, poll_interval=0.01))
        assert supervisor.run() == 0
        events = [json.loads(line)["event"] for line in
                  (tmp_path / LOG_FILENAME).read_text().splitlines()]
        assert events == ["spawn", "stopped"]


@pytest.mark.slow
class TestCommandLine:
    def test_serve_answers_every_frame_draining(self):
        proc = run_cli(env_extra={LATCHED_ENV: "1"})
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert kinds(proc.stdout) == ["draining"] * len(FRAMES)

    def test_supervised_serve_drains_its_first_child(self, tmp_path):
        proc = run_cli("--supervised", "--run-dir", str(tmp_path),
                       env_extra={LATCHED_ENV: "1"})
        assert proc.returncode == 0, proc.stderr
        assert kinds(proc.stdout) == ["draining"] * len(FRAMES)
        events = [json.loads(line) for line in
                  (tmp_path / LOG_FILENAME).read_text().splitlines()]
        assert [e["event"] for e in events] == ["spawn", "stopped"]
        assert events[-1]["exit_code"] == 0

    def test_import_repro_defers_numpy(self):
        probe = ("import sys, repro; "
                 "assert 'numpy' not in sys.modules; "
                 "assert repro.Net.__name__ == 'Net'; "
                 "assert 'numpy' in sys.modules")
        subprocess.run([sys.executable, "-c", probe], check=True,
                       env=dict(os.environ, PYTHONPATH="src"), timeout=60)
