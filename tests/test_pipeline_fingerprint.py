"""The production fingerprint against its reference implementation.

``repro.pipeline.fingerprint`` dispatches on exact types and memoises
the token streams of immutable values. None of that may move a digest:
cache entries written by the plain ``isinstance`` chain
(``tests/fingerprint_reference.py``) must keep hitting. The memo is keyed
by identity, so values that compare equal but stream differently, or
that change under it, must not share an entry.
"""

import collections
import enum
import gc
import importlib
import pickle
from dataclasses import dataclass
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fingerprint_reference import reference_fingerprint
from repro.core.policies import NoReissue, SingleD, SingleR
from repro.distributions import Exponential, Pareto
from repro.experiments.common import Scale
from repro.experiments.registry import EXPERIMENTS
from repro.pipeline import compile_plan, fingerprint
from repro.pipeline.spec import SystemRef, system_ref
from repro.simulation.workloads import independent_workload, queueing_workload

# The package re-exports the function under the module's name.
fingerprint_module = importlib.import_module("repro.pipeline.fingerprint")


def cell_a(x):
    return x + 1


def cell_b(x):
    return x * 2


@dataclass(frozen=True)
class Box:
    value: Any


class Colour(enum.IntEnum):
    RED = 1


Pair = collections.namedtuple("Pair", "left right")

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan")]),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
    st.text(max_size=8),
    st.binary(max_size=8),
    hnp.arrays(
        st.sampled_from([np.float64, np.int32, np.uint8]),
        hnp.array_shapes(min_dims=0, max_dims=2, max_side=3),
    ),
    st.sampled_from([cell_a, cell_b, queueing_workload, np.median]),
    st.sampled_from([Colour.RED]),
    st.builds(
        SingleR,
        st.floats(0, 100, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    ),
    st.builds(SingleD, st.floats(0, 100, allow_nan=False)),
    st.just(NoReissue()),
    st.builds(Exponential, st.floats(0.1, 10)),
    st.builds(Pareto, st.floats(1.1, 3), st.floats(0.5, 2)),
    st.builds(
        Scale,
        name=st.text(max_size=5),
        n_queries=st.integers(1, 10_000),
        eval_seeds=st.lists(st.integers(0, 999), max_size=3).map(tuple),
        adaptive_trials=st.integers(1, 5),
        sweep_points=st.integers(1, 5),
    ),
    st.builds(
        system_ref,
        st.just(independent_workload),
        n_queries=st.one_of(st.integers(1, 5000), st.floats(1, 5000)),
    ),
)

values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=3).map(
            collections.OrderedDict
        ),
        st.builds(Pair, children, children),
        st.builds(Box, children),
        st.builds(
            SystemRef,
            st.just(cell_a),
            st.lists(st.tuples(st.text(max_size=3), children), max_size=3).map(
                tuple
            ),
        ),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_fingerprint_equals_reference(value):
    expected = reference_fingerprint(value)
    assert fingerprint(value) == expected
    assert fingerprint(value) == expected  # served from the memo this time
    assert fingerprint([value, value]) == reference_fingerprint([value, value])


def _quick_spec(driver, monkeypatch):
    """The spec a registered figure would run at quick scale, unexecuted."""
    module = importlib.import_module(driver.__module__)
    specs = []
    monkeypatch.setattr(
        module, "run_pipeline", lambda spec, **_: specs.append(spec)
    )
    driver(scale="quick", seed=42)
    (spec,) = specs
    return spec


@pytest.mark.parametrize("eid", sorted(EXPERIMENTS))
def test_quick_plan_cell_fingerprints_equal_reference(eid, monkeypatch):
    from repro.pipeline import plan as plan_module

    spec = _quick_spec(EXPERIMENTS[eid], monkeypatch)
    plan = compile_plan(spec)
    monkeypatch.setattr(plan_module, "fingerprint", reference_fingerprint)
    reference = compile_plan(spec)
    assert plan.fingerprints == reference.fingerprints
    assert plan.aliases == reference.aliases


class TestMemoSafety:
    def test_equal_refs_of_different_types_stay_apart(self):
        for first, second in ((1, 1.0), (1.0, 1)):
            a = system_ref(independent_workload, n_queries=first)
            b = system_ref(independent_workload, n_queries=second)
            assert a == b and hash(a) == hash(b)
            fa, fb = fingerprint(a), fingerprint(b)
            assert fa != fb
            assert fa == reference_fingerprint(a)
            assert fb == reference_fingerprint(b)
            assert (fingerprint(a), fingerprint(b)) == (fa, fb)

    @pytest.mark.parametrize("make", [lambda: [1, 2], lambda: np.arange(3.0)])
    def test_mutable_field_is_rehashed_after_mutation(self, make):
        box = Box(make())
        before = fingerprint(box)
        box.value[0] = 7
        after = fingerprint(box)
        assert after != before
        assert after == reference_fingerprint(box)

    def test_replaced_code_gets_a_new_digest(self):
        ref = SystemRef(cell_a, (("x", 1),))
        before = fingerprint(cell_a), fingerprint(ref)
        original = cell_a.__code__
        cell_a.__code__ = cell_b.__code__
        try:
            after = fingerprint(cell_a), fingerprint(ref)
            assert after[0] != before[0] and after[1] != before[1]
            assert after == (
                reference_fingerprint(cell_a),
                reference_fingerprint(ref),
            )
        finally:
            cell_a.__code__ = original
        assert (fingerprint(cell_a), fingerprint(ref)) == before

    def test_pickle_carries_no_memo(self):
        ref = system_ref(queueing_workload, n_queries=1000, utilization=0.3)
        fresh = system_ref(queueing_workload, n_queries=1000, utilization=0.3)
        fingerprint(ref)
        assert pickle.dumps(ref) == pickle.dumps(fresh)
        assert fingerprint(pickle.loads(pickle.dumps(ref))) == fingerprint(ref)

    def test_memo_entry_dies_with_its_value(self):
        ref = system_ref(independent_workload, n_queries=321)
        fingerprint(ref)
        key = id(ref)
        assert key in fingerprint_module._FROZEN
        del ref
        gc.collect()
        assert key not in fingerprint_module._FROZEN
