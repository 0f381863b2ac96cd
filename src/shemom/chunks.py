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
"""

from __future__ import annotations

import contextvars
import math
import os
import queue
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait


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
    would stay in their malloc arenas after the call.  Each running chunk
    holds a set that no other running chunk holds.  With one set the chunks
    run inline, in order.  Each chunk runs in a copy of the caller's context,
    so it sees the caller's np.errstate.  The first chunk to raise ends the
    call with its exception, and so does an interrupt of the caller; either
    way the chunks not yet started are cancelled.
    """
    if len(buffer_sets) == 1:
        for chunk in chunks:
            run_chunk(chunk, *buffer_sets[0])
        return
    free = queue.SimpleQueue()  # never empty when a chunk starts: there are as many sets as workers
    for buffers in buffer_sets:
        free.put(buffers)

    def run_with_buffers(chunk) -> None:
        buffers = free.get()
        try:
            run_chunk(chunk, *buffers)
        finally:
            free.put(buffers)

    pool = ThreadPoolExecutor(len(buffer_sets), thread_name_prefix="shemom-chunk")
    try:
        futures = [pool.submit(contextvars.copy_context().run, run_with_buffers, chunk) for chunk in chunks]
        finished, _ = wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            if future in finished:
                future.result()
    finally:
        pool.shutdown(cancel_futures=True)
