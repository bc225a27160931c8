"""Work done by a forked child while the caller goes on.

A child is forked only while the process may run on at least two CPUs,
on more CPUs than it has live children, and runs no other Python thread.
So on two CPUs up to two children run at once: train's log child ends
about halfway through the grid read beside it, and the CPU it frees then
goes to the grid child instead of sitting idle.  On one CPU nothing is
forked, and where a pipe or a fork fails the caller does the work.
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterator, Optional

# Children forked by forked() and not yet reaped.  Module state, as the
# CPUs they hold are the whole process's.
_live = 0


def cpu_free() -> bool:
    """Whether the process may run on two CPUs or more, on more CPUs than
    it has live children, and a child forked now would copy the only
    Python thread."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 0
    return cpus > 1 and _live < cpus and threading.active_count() == 1


def _fork() -> Optional[tuple[int, int, int]]:
    """(os.fork(), read end, write end of a pipe opened before it), or None
    where the pipe or the fork raised OSError (no process id or file
    descriptor left to take), with no descriptor left open."""
    try:
        ends = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns of any OS thread, such as a BLAS pool numpy
            # started; cpu_free rules out Python threads.
            warnings.simplefilter("ignore", DeprecationWarning)
            return os.fork(), *ends
    except OSError:
        for end in ends:
            os.close(end)
        return None


@contextmanager
def forked(function: Callable, *args) -> Iterator[Callable]:
    """Yield a callable that returns function(*args) or raises what it raised.

    When cpu_free(), a child forked on entry calls function while the
    caller goes on, and the callable unpickles the outcome the child
    sends through a pipe as it arrives.  An outcome that does not come
    back (the child died, or the outcome does not pickle and unpickle)
    leaves the call to the callable.  Otherwise, and where the pipe or
    the fork fails, the callable calls function itself.  On exit, a
    child still running is killed, and the child is always reaped.
    """
    global _live
    child = _fork() if cpu_free() else None
    if child is None:
        yield partial(function, *args)
        return
    pid, read_end, write_end = child
    if pid == 0:
        try:
            os.close(read_end)
            try:
                outcome = (True, function(*args))
            except Exception as exc:
                outcome = (False, exc)
            with open(write_end, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    _live += 1
    os.close(write_end)

    def result():
        try:
            with open(read_end, "rb", closefd=False) as pipe:
                ok, value = pickle.load(pipe)
        except Exception:  # nothing sent, a short stream, or one that does not unpickle
            return function(*args)
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        import signal  # only a process that forked needs it

        os.kill(pid, signal.SIGKILL)  # an exited child is a zombie until reaped
        os.waitpid(pid, 0)
        _live -= 1
        os.close(read_end)
