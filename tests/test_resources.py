"""Unit and property tests for ResourceVector."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.resources import RESOURCE_NAMES, ResourceVector

nonneg = st.floats(min_value=0, max_value=1e6, allow_nan=False)
vectors = st.builds(ResourceVector, nonneg, nonneg, nonneg)


class TestConstruction:
    def test_zero(self):
        assert ResourceVector.zero() == ResourceVector(0, 0, 0)

    def test_of_keywords(self):
        v = ResourceVector.of(gpus=1, cpus=4, ram_gb=16)
        assert v.as_tuple() == (1.0, 4.0, 16.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(-1, 0, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="'cpus' must be finite"):
            ResourceVector(0, bad, 0)

    def test_sum_empty_is_zero(self):
        assert ResourceVector.sum([]) == ResourceVector.zero()

    def test_sum_matches_addition(self):
        a = ResourceVector(1, 2, 3)
        b = ResourceVector(4, 5, 6)
        assert ResourceVector.sum([a, b]) == a + b


class TestArithmetic:
    def test_add(self):
        assert ResourceVector(1, 2, 3) + ResourceVector(1, 1, 1) == ResourceVector(2, 3, 4)

    def test_sub_clamps_at_zero(self):
        result = ResourceVector(1, 2, 3) - ResourceVector(5, 1, 1)
        assert result == ResourceVector(0, 1, 2)

    def test_scalar_multiplication(self):
        assert 2 * ResourceVector(1, 2, 3) == ResourceVector(2, 4, 6)


class TestComparison:
    def test_fits_within_equal(self):
        v = ResourceVector(1, 2, 3)
        assert v.fits_within(v)

    def test_fits_within_strict(self):
        assert ResourceVector(1, 2, 3).fits_within(ResourceVector(2, 3, 4))
        assert not ResourceVector(3, 2, 3).fits_within(ResourceVector(2, 3, 4))

    def test_get_by_name(self):
        v = ResourceVector(1, 2, 3)
        assert [v.get(r) for r in RESOURCE_NAMES] == [1, 2, 3]

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            ResourceVector(1, 2, 3).get("disk")

    def test_iteration_order(self):
        assert list(ResourceVector(1, 2, 3)) == [1, 2, 3]


class TestProperties:
    @given(vectors, vectors)
    def test_addition_commutative(self, a, b):
        assert a + b == b + a

    @given(vectors, vectors)
    def test_sum_fits_iff_components_bounded(self, a, b):
        total = a + b
        assert a.fits_within(total)
        assert b.fits_within(total)

    @given(vectors, vectors)
    def test_sub_never_negative(self, a, b):
        diff = a - b
        assert diff.gpus >= 0 and diff.cpus >= 0 and diff.ram_gb >= 0

    @given(vectors)
    def test_zero_is_identity(self, v):
        assert v + ResourceVector.zero() == v

    @given(vectors, vectors, vectors)
    def test_fits_within_transitive(self, a, b, c):
        if a.fits_within(b) and b.fits_within(c):
            # Tolerance slack makes this hold only up to epsilon; use a
            # widened capacity to absorb it.
            padded = ResourceVector(c.gpus + 1e-6, c.cpus + 1e-6, c.ram_gb + 1e-6)
            assert a.fits_within(padded)
