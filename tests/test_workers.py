"""Tests for :mod:`repro.core.workers` -- the shared process reaper.

The worker-process runtime puts workers down on hard deadlines, stalls
and cancellations; it used to ``terminate()`` and hope. A worker wedged
in a C-level solver loop ignores SIGTERM, so :func:`repro.core.workers.reap`
must escalate terminate -> kill -> join and close the result pipe either
way, or every hard timeout leaks a process and a pair of descriptors.
"""

import multiprocessing
import signal
import time

from repro.core.workers import reap


def _sleep_forever(ready):
    ready.send("up")
    ready.close()
    while True:
        time.sleep(60)


def _ignore_sigterm_and_sleep(ready):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    ready.send("up")
    ready.close()
    while True:
        time.sleep(60)


def _exit_quickly(ready):
    ready.send("done")
    ready.close()


def _start(target):
    parent, child = multiprocessing.Pipe()
    process = multiprocessing.Process(target=target, args=(child,),
                                      daemon=True)
    process.start()
    child.close()
    return process, parent


class TestReap:
    def test_cooperative_worker_dies_on_terminate(self):
        process, conn = _start(_sleep_forever)
        assert conn.recv() == "up"
        exitcode = reap(process, conn, grace=5.0)
        assert not process.is_alive()
        assert exitcode == -signal.SIGTERM

    def test_sigterm_ignoring_worker_is_killed(self):
        """The satellite regression: terminate alone never reaps this one."""
        process, conn = _start(_ignore_sigterm_and_sleep)
        assert conn.recv() == "up"
        exitcode = reap(process, conn, grace=0.5)
        assert not process.is_alive()
        assert exitcode == -signal.SIGKILL

    def test_connection_is_closed_even_for_a_finished_worker(self):
        process, conn = _start(_exit_quickly)
        assert conn.recv() == "done"
        process.join(timeout=10)
        reap(process, conn, terminate=False)
        assert not process.is_alive()
        assert conn.closed

    def test_already_closed_connection_is_tolerated(self):
        process, conn = _start(_sleep_forever)
        assert conn.recv() == "up"
        conn.close()
        exitcode = reap(process, conn, grace=5.0)
        assert not process.is_alive()
        assert exitcode is not None
