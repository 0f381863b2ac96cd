"""The thread pool that runs the Monte Carlo routes' independent chunks.

``simulate_polymer`` and ``sample_airy_points`` split their replicas into
chunks that write disjoint rows of one result, so running the chunks at the
same time leaves every value unchanged.  ``airy.laplace_R_mc`` does the same
with its samples; its chunks share the caller's one generator, so they take
their draws from it in turn, in chunk order.  Most of the time goes to numpy
and LAPACK calls that release the GIL, so plain threads reach every core, and
all memory stays in the calling process.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunks(run_chunk, starts: range, workers: int) -> None:
    """Call run_chunk on every start: inline with one worker, else on a thread pool.

    Each chunk runs in a copy of the caller's context, so it sees the caller's
    np.errstate.  The first chunk to raise ends the call with its exception,
    and so does an interrupt of the caller; either way the chunks not yet
    started are cancelled.
    """
    if workers == 1:
        for start in starts:
            run_chunk(start)
        return
    pool = ThreadPoolExecutor(workers, thread_name_prefix="shemom-chunk")
    try:
        futures = [pool.submit(contextvars.copy_context().run, run_chunk, start) for start in starts]
        finished, _ = wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            if future in finished:
                future.result()
    finally:
        pool.shutdown(cancel_futures=True)
