"""Process start-up for ``repro serve``: latch SIGTERM until drain exists.

The daemon installs its drain handler only once ``RoutingDaemon.serve``
starts, after the routing stack (numpy, scipy, the delay models) has
been imported — most of a second on a small machine. Until then a
SIGTERM would end the process by the default action, and every frame
already written to its stdin would go unanswered.

:func:`latch_sigterm` is the first thing the ``serve`` entry point does
(see ``repro/__main__.py``): it installs a :class:`SigtermLatch`, a
handler that only records the signal. Whichever component later takes
SIGTERM over — the daemon's drain handler, or the supervisor's
forwarder — passes the handler it replaced to
:func:`take_latched_sigterm` and acts on a signal that came in between
as if it had arrived just then. Installing the new handler first means
a signal lands either in the latch or in that handler, never in
between.

This module imports nothing else from the package, so the latch is in
place as soon as the interpreter itself has started.
"""

from __future__ import annotations

import os
import signal
import threading

__all__ = ["LATCHED_ENV", "SigtermLatch", "latch_sigterm",
           "take_latched_sigterm"]

#: Set to ``"1"`` in the environment of a ``repro serve`` process to
#: start it with the latch already set: a supervisor told to stop while
#: no child runs hands the signal on to its next child this way.
LATCHED_ENV = "REPRO_SIGTERM_LATCHED"


class SigtermLatch:
    """A SIGTERM handler that only records that the signal came."""

    def __init__(self) -> None:
        self._fired = threading.Event()

    def __call__(self, signum: int, frame: object) -> None:
        self._fired.set()

    def take(self) -> bool:
        """Whether SIGTERM came since the last take; clears the record."""
        fired = self._fired.is_set()
        self._fired.clear()
        return fired


def latch_sigterm() -> SigtermLatch:
    """Install a fresh latch as the SIGTERM handler (main thread only)."""
    latch = SigtermLatch()
    if os.environ.pop(LATCHED_ENV, "") == "1":  # repro: allow=dataflow-env-read — a process-start hand-off from the supervisor; it decides when to drain, never what a route computes
        latch(signal.SIGTERM, None)
    signal.signal(signal.SIGTERM, latch)
    return latch


def take_latched_sigterm(replaced: object) -> bool:
    """Whether ``replaced``, the SIGTERM handler just swapped out, is a
    latch that caught a signal (clearing it)."""
    return isinstance(replaced, SigtermLatch) and replaced.take()
