"""The chunk runner shared by the polymer, GUE edge and residue-sum Monte Carlo routes."""

import time
import warnings

import numpy as np
import pytest

from shemom import chunks


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
            chunks._run_chunks(run_chunk, range(20), workers)
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
                chunks._run_chunks(overflowing_chunk, range(3), workers)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            chunks._run_chunks(overflowing_chunk, range(3), workers)
