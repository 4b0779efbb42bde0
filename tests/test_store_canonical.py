"""The store's canonical JSON against its one-walk reference.

:func:`repro.serving.store.canonical_json` lets ``json`` write the
JSON-native values and calls ``_plain`` only for the rest, with exact
type checks first.  :func:`tests.reference.reference_canonical_json`
plains the whole value by one ``isinstance`` chain and then dumps it,
as the store did before.  Over generated nested values the two texts
must be identical, since the text is what a store key hashes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.adapt import AdaptConfig
from repro.serving import Cell, canonical_json
from tests.reference import reference_canonical_json


@dataclass(frozen=True)
class Leaf:
    value: Any
    label: str = "leaf"


@dataclass(frozen=True)
class Node:
    left: Any
    right: Any
    extra: tuple = ()


class Pair(NamedTuple):
    first: Any
    second: Any


class Opaque:
    """An unknown object: both sides must fall back to its ``repr``."""

    def __init__(self, tag: int):
        self.tag = tag

    def __repr__(self) -> str:
        return f"Opaque<{self.tag}>"


_numpy_scalars = st.one_of(
    st.integers(-2**31, 2**31 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
)

_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.text(max_size=8),
    st.text(max_size=8).map(Path),
    _numpy_scalars,
    st.integers(0, 9).map(Opaque),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.builds(Pair, children, children),
        st.builds(Leaf, children, st.text(max_size=4)),
        st.builds(Node, children, children, st.lists(children, max_size=3).map(tuple)),
    )


values = st.recursive(_leaves, _containers, max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(values)
def test_canonical_json_matches_reference(value):
    assert canonical_json(value) == reference_canonical_json(value)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=6), values, max_size=5))
def test_signature_needs_no_second_walk(derived):
    derived = derived or None
    sig = Cell("adapt", "mpi", 4, AdaptConfig(mesh_n=6), derived=derived,
               faults="bursty-links").signature()
    # the reference plains the raw ``derived`` dict inside the whole walk
    assert canonical_json(sig) == reference_canonical_json(dict(sig, derived=derived))

