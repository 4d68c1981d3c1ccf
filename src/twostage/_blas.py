"""One OpenBLAS thread for the span of a fit.

OpenBLAS threads every product above about 64^3 multiply-adds.  On fits of
a few hundred columns its second thread saves no wall time, spins while
idle, and adds threaded sums in another order than one thread does.
``one_thread()`` sets every OpenBLAS library mapped into the process to one
thread, and the last caller to leave restores their counts.  The libraries
are found on first use from /proc/self/maps; where that file does not
exist none are found, and ``one_thread()`` does nothing.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import cache

# (get, set) symbol names in the order tried: scipy-openblas's 64-bit and
# 32-bit integer builds (numpy's and scipy's wheels), then plain OpenBLAS
_SYMBOLS = [
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
]

_lock = threading.Lock()
_depth = 0
_saved: list = []  # (set, count) of each library, while _depth > 0


@cache
def libraries() -> tuple:
    """The (get, set) thread-count functions of each OpenBLAS library mapped
    into the process, looked up once."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return ()
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].rsplit("/", 1)[-1]})
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file is gone: "<path> (deleted)"
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return tuple(found)


@contextmanager
def one_thread():
    """Run the body with every OpenBLAS library on one thread.  Nests, and is
    shared between Python threads: the first to enter saves the counts, and
    the last to leave restores them, also when the body raises."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [(set_, get()) for get, set_ in libraries()]
            for set_, _ in _saved:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_, count in _saved:
                    set_(count)
