"""The scheduling loop's idle wait (DESIGN.md §13): it ends early when
a watched store directory gains a completed stream (inotify
``IN_CLOSE_WRITE`` or ``IN_MOVED_TO``; a stream still being written
wakes nothing) or when :meth:`StoreWatch.wake` is called.  Without
inotify it is the same wait on the stop pipe and the timeout alone."""

from __future__ import annotations

import os
import selectors
import threading
from typing import Iterable, Optional

_IN_CLOSE_WRITE = 0x8
_IN_MOVED_TO = 0x80


def _inotify(directories: Iterable[str]) -> Optional[int]:
    """A non-blocking inotify fd watching every directory, or ``None``."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        init, add = libc.inotify_init1, libc.inotify_add_watch
        fd = init(os.O_NONBLOCK | os.O_CLOEXEC)
    except (AttributeError, OSError, TypeError):
        return None
    if fd < 0:
        return None
    for directory in directories:
        if add(fd, os.fsencode(directory), _IN_CLOSE_WRITE | _IN_MOVED_TO) < 0:
            os.close(fd)
            return None
    return fd


class StoreWatch:
    """One idle wait over a set of store directories and a stop pipe."""

    def __init__(self, directories: Iterable[str]):
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        os.set_blocking(self._write, False)
        self._inotify = _inotify(directories)
        self.watching = self._inotify is not None  # do store events wake?
        self._selector = selectors.DefaultSelector()
        self._lock = threading.RLock()  # reentrant: wake() runs in signal handlers
        for fd in (self._read, self._inotify):
            if fd is not None:
                self._selector.register(fd, selectors.EVENT_READ)

    def wait(self, timeout: float) -> None:
        for key, _ in self._selector.select(max(0.0, timeout)):
            try:
                while os.read(key.fd, 4096):  # drain: the next wait blocks
                    pass
            except BlockingIOError:
                pass

    def wake(self) -> None:
        """Signal-safe: end the current (or next) wait; a no-op once closed."""
        with self._lock:  # never write to a closed (maybe reused) fd
            if self._write is not None:
                try:
                    os.write(self._write, b"\0")
                except OSError:  # pipe full: a wake is already pending
                    pass

    def close(self) -> None:
        with self._lock:
            fds, self._write = (self._write, self._read, self._inotify), None
            self._selector.close()
            for fd in fds:
                if fd is not None:
                    os.close(fd)
