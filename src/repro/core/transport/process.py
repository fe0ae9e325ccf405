"""Process mode: a replica's application calls run in child processes.

Every replica stays in the harness process (queue, workers, gate,
batching, cache, faults, tracer); only the application call leaves
it. Each worker thread owns one child holding a copy of the replica's
application: ``process`` / ``handle_batch`` crosses the child's pipe,
and the result, or the child's traceback, comes back. A request's
``service`` time so includes the pipe round trip. A child exits on a
stop message, or on end-of-file when the harness dies; a child that
dies turns its worker's in-flight and later calls into errors.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
import traceback
import weakref

__all__ = ["ChildApp", "ChildError"]

#: The parent end of every child's pipe. A forked child inherits them
#: all and closes them first: a child holding its own or a sibling's
#: parent end would keep that child from ever seeing end-of-file.
_PARENT_ENDS: "weakref.WeakSet" = weakref.WeakSet()
#: Held from a pipe's creation until the parent has closed the child's
#: end, so no other child is forked holding it: a child that dies must
#: close the last copy of its end, or its worker never sees it go.
_START_LOCK = threading.Lock()


class ChildError(RuntimeError):
    """An application call that failed in, or with, its child process."""


def _serve(conn, app) -> None:
    """A child's whole life: answer calls until stopped or orphaned."""
    for end in list(_PARENT_ENDS):
        end.close()
    # Ctrl-C reaches the whole process group; the harness decides.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    conn.send(None)  # up
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return  # the harness is gone
        if message is None:
            return
        method, arg = message
        try:
            reply = (True, getattr(app, method)(arg))
        except Exception:  # noqa: BLE001 - the worker reports it
            reply = (False, traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:
            return
        except Exception:  # noqa: BLE001 - an unpicklable result
            conn.send((False, traceback.format_exc()))


class ChildApp:
    """A replica's application as its worker threads see it in process mode.

    Starts ``n`` children, each with its own copy of ``app`` (a forked
    one shares nothing written after the fork with its siblings), and
    with ``wait`` returns once they are all up. A worker thread's first
    call claims one child for the thread's lifetime, and waits for it
    if nobody has. ``cache_key`` runs in the parent, where the cache is.
    """

    def __init__(self, app, n: int, start_method: str, wait: bool) -> None:
        self._app = app
        if getattr(app, "handle_batch", None) is None:
            self.handle_batch = None  # the server loops ``process``
        context = multiprocessing.get_context(start_method)
        self.processes, self._conns = [], []
        for i in range(n):
            with _START_LOCK:
                ours, theirs = context.Pipe()
                _PARENT_ENDS.add(ours)
                process = context.Process(
                    target=_serve, args=(theirs, app),
                    name=f"tb-app-{i}", daemon=True,
                )
                process.start()
                theirs.close()
            self.processes.append(process)
            self._conns.append(ours)
        if wait:
            try:
                for conn in self._conns:
                    conn.recv()
            except EOFError:
                self.close(1.0)
                raise ChildError("application process failed to start")
        self._free = [(conn, wait) for conn in self._conns]
        self._local = threading.local()

    def process(self, payload):
        return self._call("process", payload)

    def handle_batch(self, payloads):
        return self._call("handle_batch", payloads)

    def cache_key(self, payload):
        return self._app.cache_key(payload)

    def _call(self, method: str, arg):
        conn = getattr(self._local, "conn", None)
        try:
            if conn is None:
                conn, up = self._free.pop()
                self._local.conn = conn
                if not up:
                    conn.recv()
            conn.send((method, arg))
            ok, value = conn.recv()
        except (EOFError, OSError):
            raise ChildError("application process exited") from None
        if not ok:
            raise ChildError(value)
        return value

    def stop(self) -> None:
        """Ask every child to exit once its current call returns."""
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:
                pass  # already gone

    def close(self, timeout: float) -> None:
        """Stop every child, kill what still runs after ``timeout``, reap
        all, close the pipes. Called once the workers joined or failed
        to: one still waiting on a killed child has read end-of-file."""
        self.stop()
        deadline = time.monotonic() + timeout
        for process in self.processes:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.exitcode is None:
                process.kill()
                process.join()
        for conn in self._conns:
            _PARENT_ENDS.discard(conn)
            conn.close()
