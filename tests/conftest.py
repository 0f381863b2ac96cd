"""Fixtures shared by more than one test module."""

import pytest

from shemom import she_moments


@pytest.fixture
def imaginary_residue(monkeypatch):
    """Make the contour kernel, as she_moments calls it, add an imaginary part 1e3 times the value."""
    kernel = she_moments.pairwise_tensor_sum
    monkeypatch.setattr(she_moments, "pairwise_tensor_sum", lambda ws, pair: kernel(ws, pair) * (1.0 + 1e3j))
