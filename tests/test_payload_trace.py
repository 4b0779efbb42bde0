"""Tests for wire-size estimation."""

import numpy as np

from repro.models.payload import nbytes_of


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
