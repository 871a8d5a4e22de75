"""Point-chunk runner for the forward passes and tensor FE evaluation.

A kernel splits its batch into fixed chunks and hands run_chunks a body
that evaluates one chunk and writes that chunk's slice of the output.
The chunks go to a thread pool with one worker per CPU the process may
use; numpy ufuncs and scipy's CSR products release the GIL, so they run
side by side. A chunk's arithmetic does not depend on which thread runs
it or on what the other chunks do, so every output is the same float as
on one thread.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor

# kernels (and the mesh module's containment tests and vertex merge) size
# their chunks so that each chunk's float temporaries hold about this many
# floats (2 MB), which the next step re-reads while it is still in cache
CHUNK_ELEMENTS = 2 ** 18

if hasattr(os, "sched_getaffinity"):
    _workers = len(os.sched_getaffinity(0))
else:
    _workers = os.cpu_count() or 1

_lock = threading.Lock()
_pool = None  # (worker count, executor), made by the first pooled batch


def _drop_pool():
    # a forked child has none of the parent's worker threads: a task
    # submitted to the inherited executor would wait forever
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _executor():
    global _pool
    with _lock:
        if _pool is None or _pool[0] != _workers:
            _pool = (_workers, ThreadPoolExecutor(
                _workers, thread_name_prefix="relufem-chunk"))
        return _pool[1]


def run_chunks(body, count, chunk):
    """Call body(lo, hi) for every chunk [lo, hi) of range(count).

    With one usable CPU, or at most two chunks, the chunks run in order on
    the calling thread, where a pool's dispatch would cost more than it
    saves. Otherwise each chunk runs on the pool in a copy of the caller's
    context, so numpy's context-local errstate still applies; the first
    chunk (in order) that raised re-raises its exception here.
    """
    spans = [(lo, min(lo + chunk, count)) for lo in range(0, count, chunk)]
    if _workers < 2 or len(spans) <= 2:
        for lo, hi in spans:
            body(lo, hi)
        return
    pool = _executor()
    futures = [pool.submit(contextvars.copy_context().run, body, lo, hi)
               for lo, hi in spans]
    try:
        for f in futures:
            f.result()
    finally:
        for f in futures:
            f.cancel()
