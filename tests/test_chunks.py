"""The chunk rule and the chunk runner shared by the polymer, GUE edge and residue-sum Monte Carlo routes."""

import itertools
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from shemom import chunks


class TestEqualChunks:
    @pytest.mark.parametrize(
        "total,multiple,cap",
        [
            (15_000, 6, 10_001),  # the polymer benchmark's N = 1 call: six chunks of 2_500 pairs
            (15_000, 6, 3_334),  # and its N = 3 call, the same six
            (13, 6, 100),  # a ceiling-sized rule would leave 3 + 3 + 3 + 3 + 1
            (4_000, 6, 626),  # twelve chunks: six would exceed the cap
            (4, 6, 100_001),  # fewer items than the multiple: one chunk each
            (2_000, 2, 128),
            (1, 3, 5),
            (36_013, 6, 3_001),
        ],
    )
    def test_rule(self, total, multiple, cap):
        parts = chunks._equal_chunks(total, multiple, cap)
        lengths = [len(rows) for rows in parts]
        assert [i for rows in parts for i in rows] == list(range(total))  # in order, each item once
        assert max(lengths) <= cap and max(lengths) - min(lengths) <= 1
        assert lengths == sorted(lengths, reverse=True)
        if total >= multiple:
            assert len(parts) % multiple == 0
            assert len(parts) == multiple or -(-total // (len(parts) - multiple)) > cap  # no fewer chunks would do
        else:
            assert lengths == [1] * total

    @pytest.mark.parametrize("cores", [1, 2])
    def test_sampler_shape(self, cores):
        # the GUE edge sampler's 400 replicas, chunks of at most 128 in a multiple of the cores
        assert [len(rows) for rows in chunks._equal_chunks(400, cores, 128)] == [100] * 4


class TestRunChunks:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_chunk_ends_the_call(self, workers):
        started = []

        def run_chunk(start):
            started.append(start)
            if start == 1:
                raise ArithmeticError("chunk 2 of 20")
            time.sleep(0.05)

        with pytest.raises(ArithmeticError, match="chunk 2 of 20"):
            chunks._run_chunks(run_chunk, range(20), [()] * workers)
        if workers == 1:
            assert started == [0, 1]
        else:
            assert len(started) <= 5  # the chunks not yet started are cancelled

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunks_see_callers_warning_filters_and_errstate(self, workers):
        def overflowing_chunk(start):
            np.float64(1e308) * 10.0

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow"):
                chunks._run_chunks(overflowing_chunk, range(3), [()] * workers)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            chunks._run_chunks(overflowing_chunk, range(3), [()] * workers)

    def test_running_chunks_never_share_a_buffer_set(self):
        buffer_sets = [(np.empty(1),) for _ in range(3)]
        lock = threading.Lock()
        clock = itertools.count()
        spans = []  # (set id, thread, entered, left) per chunk

        def run_chunk(start, buffer):
            with lock:
                entered = next(clock)
            time.sleep(start % 4 * 1e-3)  # uneven, so the chunks finish out of order
            with lock:
                spans.append((id(buffer), threading.get_ident(), entered, next(clock)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more workers than cores, switching often: a shared set would show
        try:
            chunks._run_chunks(run_chunk, range(20), buffer_sets)
        finally:
            sys.setswitchinterval(interval)
        assert len(spans) == 20
        assert {s for s, *_ in spans} <= {id(b) for (b,) in buffer_sets}
        for (set_a, _, in_a, out_a), (set_b, _, in_b, out_b) in itertools.combinations(spans, 2):
            assert set_a != set_b or out_a < in_b or out_b < in_a  # one set, never two chunks in flight
        assert len({thread for _, thread, *_ in spans}) <= 3
