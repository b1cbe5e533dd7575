"""``classify.beats`` on arrays equals ``beats`` on each pair of floats, and
``beats`` on floats is ``lhs > rhs - tol`` (``>=`` unless strict)."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itensor.classify import beats

# Signed zeros, infinities, NaN, the extreme doubles and values one
# tolerance apart; every pair of them is tried, equal sides included.
SPECIAL = (-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308,
           1.0, 1.0 - 1e-9, 0.5, -0.5, 1e-9, -1e-9)
TOLS = (0.0, 1e-9, 0.5)


def _stated(lhs, rhs, tol, strict):
    return lhs > rhs - tol if strict else lhs >= rhs - tol


def assert_elementwise(lhs, rhs, tol, strict):
    want = [beats(a, b, tol, strict) for a, b in zip(lhs, rhs)]
    assert all(type(w) is bool for w in want)
    assert want == [_stated(a, b, tol, strict) for a, b in zip(lhs, rhs)]
    got = beats(np.array(lhs), np.array(rhs), tol, strict)
    assert got.dtype == bool and got.tolist() == want
    for b in rhs[:3]:
        # A float side against an array side, as the kernels pass 0.0.
        got = beats(np.array(lhs), b, tol, strict).tolist()
        assert got == [beats(a, b, tol, strict) for a in lhs]


@pytest.mark.parametrize("strict", (True, False))
@pytest.mark.parametrize("tol", TOLS)
def test_special_values(tol, strict):
    lhs, rhs = zip(*itertools.product(SPECIAL, repeat=2))
    assert_elementwise(list(lhs), list(rhs), tol, strict)


@settings(max_examples=200)
@given(
    st.lists(st.tuples(st.floats() | st.sampled_from(SPECIAL),
                       st.floats() | st.sampled_from(SPECIAL)),
             min_size=1, max_size=16),
    st.sampled_from(TOLS),
    st.booleans(),
)
def test_arbitrary_doubles(pairs, tol, strict):
    lhs, rhs = zip(*pairs)
    assert_elementwise(list(lhs), list(rhs), tol, strict)

