"""Tests for wire-size estimation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.payload import nbytes_of
from tests.reference import reference_nbytes


class _Record:
    """A payload sized through its ``__dict__``."""

    def __init__(self, **attrs):
        self.__dict__.update(attrs)


class _Flag(int):
    """An int subclass: must take the isinstance route, not the exact one."""


_HASHABLE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.complex_numbers(allow_nan=False), st.text(max_size=6), st.binary(max_size=6),
    st.integers(-5, 5).map(_Flag),
)
_LEAVES = st.one_of(
    _HASHABLE,
    st.integers(-9, 9).map(np.int32),
    st.floats(-1e3, 1e3).map(np.float64),
    st.booleans().map(np.bool_),
    st.lists(st.floats(-1.0, 1.0), max_size=5).map(np.array),
    st.integers(0, 4).map(lambda n: np.zeros((n, 2), dtype=np.int16)),
    st.binary(max_size=4).map(bytearray),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.frozensets(_HASHABLE, max_size=4),
        st.sets(st.tuples(st.integers(), _HASHABLE), max_size=4),
        st.dictionaries(_HASHABLE, inner, max_size=4),
        st.dictionaries(st.text(max_size=3), inner, max_size=3).map(
            lambda d: _Record(**{f"a{k}": v for k, v in d.items()})
        ),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_nbytes_matches_recursive_reference(payload):
    """Exact-type shortcuts give the sizes of the plain isinstance chain."""
    assert nbytes_of(payload) == reference_nbytes(payload)


class TestNbytesOf:
    def test_none_is_free(self):
        assert nbytes_of(None) == 0

    def test_numpy_exact(self):
        assert nbytes_of(np.zeros(10, dtype=np.float64)) == 80
        assert nbytes_of(np.zeros((4, 4), dtype=np.int32)) == 64

    def test_bytes_and_str(self):
        assert nbytes_of(b"abc") == 3
        assert nbytes_of("abc") == 3
        assert nbytes_of("ü") == 2  # utf-8

    def test_scalars(self):
        assert nbytes_of(1) == 8
        assert nbytes_of(1.5) == 8
        assert nbytes_of(True) == 8
        assert nbytes_of(np.float64(2.0)) == 8

    def test_containers_sum_plus_overhead(self):
        assert nbytes_of([1, 2]) == 16 + 16
        assert nbytes_of((1,)) == 16 + 8
        assert nbytes_of({"k": 1}) == 16 + 1 + 8

    def test_nested(self):
        payload = {"a": np.zeros(4), "b": [1, 2]}
        assert nbytes_of(payload) == 16 + 1 + 32 + 1 + (16 + 16)

    def test_object_with_dict(self):
        class Thing:
            def __init__(self):
                self.x = np.zeros(2)
                self.y = 3

        assert nbytes_of(Thing()) == 16 + 16 + 8
