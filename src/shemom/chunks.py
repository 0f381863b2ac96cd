"""The thread pool that runs the Monte Carlo routes' independent chunks.

``simulate_polymer``, ``sample_airy_points`` and ``airy.laplace_R_mc`` split
their work into chunks that each draw from their own generators and write
disjoint rows of one result, so running the chunks at the same time leaves
every value unchanged.  Most of the time goes to numpy and LAPACK calls that
release the GIL, so plain threads reach every core, and all memory stays in
the calling process.

``_equal_chunks`` is the one chunk rule of the polymer and GUE edge routes.
``simulate_polymer`` asks for a multiple of 6, the least common multiple of
1, 2 and 3 workers, because its chunks' streams are seeded by their first
paths and so must not depend on the worker count; ``sample_airy_points``,
whose replicas are seeded one by one, asks for a multiple of the usable cores.

``_run_chunks`` runs them on one thread pool for the whole process, made on
the first call that needs more than one worker and replaced by a larger one
only when a call asks for more workers than it has; a forked child drops its
parent's pool and makes its own.  A chunk must not call ``_run_chunks``:
it would wait for workers that are all busy with the chunks of its caller.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

_pool: ThreadPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()


def _shared_pool(workers: int) -> ThreadPoolExecutor:
    """The process's chunk pool, with at least ``workers`` workers."""
    global _pool, _pool_workers
    with _pool_lock:
        if _pool_workers < workers:
            if _pool is not None:
                _pool.shutdown(wait=False)  # its idle threads end; work already queued there still runs
            _pool = ThreadPoolExecutor(workers, thread_name_prefix="shemom-chunk")
            _pool_workers = workers
        return _pool


def _forget_pool() -> None:
    """In a forked child: the parent's workers do not exist here, so the next call makes a new pool."""
    global _pool, _pool_workers, _pool_lock
    _pool, _pool_workers, _pool_lock = None, 0, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _equal_chunks(total: int, multiple: int, cap: int) -> list[range]:
    """Split range(total) into ``multiple``·j chunks of at most ``cap``, j as small as it can be.

    The chunks differ in length by at most one, the longer ones first, so
    w workers, w dividing ``multiple``, each run the same number of chunks.
    With fewer than ``multiple`` items there is one chunk per item.
    """
    count = min(total, multiple * math.ceil(total / (multiple * cap)))
    size, longer = divmod(total, count)
    bounds = [i * size + min(i, longer) for i in range(count + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _run_chunks(run_chunk, chunks, buffer_sets: list) -> None:
    """Call run_chunk(chunk, *buffers) on every chunk, one worker per buffer set.

    A chunk is whatever run_chunk takes, a first row or a range of rows.
    The caller allocates the buffer sets: buffers allocated in the workers
    would stay in their malloc arenas after the call.  Each worker holds one
    set and takes the chunks in order, the next one free, until none is
    left.  With one set the chunks run inline, in order.  Each worker runs in
    a copy of the caller's context, so its chunks see the caller's
    np.errstate.  The first chunk to raise ends the call with its exception,
    and so does an interrupt of the caller; either way no chunk starts after
    it and the call returns once the running chunks are done.
    """
    if len(buffer_sets) == 1:
        for chunk in chunks:
            run_chunk(chunk, *buffer_sets[0])
        return
    todo = iter(chunks)
    todo_lock = threading.Lock()
    stop = threading.Event()

    def work(buffers) -> None:
        while not stop.is_set():
            with todo_lock:
                chunk = next(todo, None)
            if chunk is None:
                return
            try:
                run_chunk(chunk, *buffers)
            except BaseException:
                stop.set()
                raise

    pool = _shared_pool(len(buffer_sets))
    futures = [pool.submit(contextvars.copy_context().run, work, buffers) for buffers in buffer_sets]
    try:
        finished, _ = wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            if future in finished:
                future.result()
    finally:
        stop.set()
        for future in futures:
            future.cancel()
        wait(futures)
