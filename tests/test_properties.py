"""Hypothesis properties of the rational knob and the Born sampler.

Kept apart from the example-based tests so that an environment without
Hypothesis loses only this module.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsource import ControlKnob, FieldParams, j_parameter, rational_approx
from bellsource.statevec import _born_index

# Derandomized and without an example database: the same examples on every
# run, and nothing written next to the tests.
PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)

finite = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY_SETTINGS
@given(
    j=st.floats(min_value=-0.5, max_value=0.5, allow_subnormal=True),
    max_den=st.integers(min_value=1, max_value=2**62),
)
def test_rational_approx_has_fraction_semantics(j, max_den):
    best = Fraction(j).limit_denominator(max_den)
    num, den, delta = rational_approx(j, max_den)
    assert (num, den) == (best.numerator, best.denominator)
    assert delta.hex() == float(Fraction(j) - best).hex()


@PROPERTY_SETTINGS
@given(
    J=finite.filter(lambda v: v != 0.0),
    B1=finite,
    B2=finite,
    max_den=st.integers(min_value=1, max_value=2**62),
    n=st.integers(min_value=0, max_value=10**6),
)
def test_from_field_params_accepts_its_own_provenance(J, B1, B2, max_den, n):
    fp = FieldParams(J, B1, B2)
    knob = ControlKnob.from_field_params(fp, max_den, n=n)
    j, num, den = knob.provenance
    assert j == j_parameter(fp)
    assert (num, den, knob.delta) == rational_approx(j, max_den)
    # The knob's own check accepts the provenance it was built with.
    assert ControlKnob(n, knob.delta, knob.provenance).ndelta == knob.ndelta


class _FixedDraw:
    """Stand-in generator whose ``random()`` returns a chosen draw."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


@st.composite
def weights_and_draw(draw):
    """Weights with zeros, and a draw that may equal a running sum or exceed them all."""
    probs = draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=1, max_size=16))
    sums = [s for s in np.cumsum(probs).tolist() if s < 1.0]
    u = draw(st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(sums or [0.0]))
    return probs, u


@PROPERTY_SETTINGS
@given(case=weights_and_draw())
@example(case=([0.0, 0.0], 0.5))
@example(case=([0.25, 0.0, 0.25], 0.5))
@example(case=([0.0, 0.5, 0.5], 0.0))
def test_born_index_is_clamped_searchsorted(case):
    probs, u = case
    expected = min(int(np.searchsorted(np.cumsum(probs), u, side="right")), len(probs) - 1)
    assert _born_index(probs, _FixedDraw(u)) == expected
