"""Property-based tests for the columnar round-trip contract.

The boundary adapters must be exact: for any uniform tuple batch,
``from_tuples(to_tuples(batch)) == batch`` and the materialized tuples
are byte-identical (per-element ``pickle.dumps``) to the originals —
including NaN and ±inf payloads, exact (``None``) sample sizes, and
empty batches.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.streams.columnar import ColumnarBatch
from repro.streams.tuples import UncertainTuple

# Full float64 terrain: NaN, ±inf, subnormals, -0.0.
any_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
variances = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)


@st.composite
def uniform_tuple_lists(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    rows = []
    for _ in range(n):
        rows.append(
            {
                "x": draw(any_floats),
                "k": draw(int64s),
                "g": DfSized(
                    GaussianDistribution(
                        draw(finite_floats), draw(variances)
                    ),
                    draw(
                        st.one_of(
                            st.none(),
                            st.integers(min_value=1, max_value=10**6),
                        )
                    ),
                ),
                "tag": draw(st.text(max_size=6)),
            }
        )
    probabilities = [
        draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        for _ in range(n)
    ]
    # Timestamps are all-None or all-float: a uniform stream layout.
    if draw(st.booleans()) and n:
        timestamps = [draw(finite_floats) for _ in range(n)]
    else:
        timestamps = [None] * n
    return [
        UncertainTuple(row, probability=p, timestamp=ts)
        for row, p, ts in zip(rows, probabilities, timestamps)
    ]


@given(tuples=uniform_tuple_lists())
@settings(max_examples=120, deadline=None)
def test_from_to_from_is_identity(tuples):
    batch = ColumnarBatch.from_tuples(tuples)
    assert ColumnarBatch.from_tuples(batch.to_tuples()) == batch


@given(tuples=uniform_tuple_lists())
@settings(max_examples=120, deadline=None)
def test_materialized_tuples_byte_identical(tuples):
    batch = ColumnarBatch.from_tuples(tuples)
    assert [pickle.dumps(t) for t in batch.to_tuples()] == [
        pickle.dumps(t) for t in tuples
    ]


@given(tuples=uniform_tuple_lists())
@settings(max_examples=60, deadline=None)
def test_payload_roundtrip_preserves_batch(tuples):
    # Sharded execution ships each shard as the pickled batch.
    batch = ColumnarBatch.from_tuples(tuples)
    assert pickle.loads(pickle.dumps(batch)) == batch


def test_empty_batch_round_trip():
    batch = ColumnarBatch.from_tuples([])
    assert len(batch) == 0
    assert ColumnarBatch.from_tuples(batch.to_tuples()) == batch
