"""The batch convention every geometry module keeps, as two shared tests.

A test module holds a ``_BATCHED`` table, name -> call(r), where call(r)
evaluates one closed form on the rows r (a slice) of a shared batch of k
points, and may return nested tuples of arrays.  The module then builds
its two tests from the table:

    test_batch_row_equals_one_row_batch = batch_row_test(_BATCHED, _K)
    test_one_point_is_rejected = one_point_test(_BATCHED, r"shape \\(k, 3\\)")

so each test keeps its name, and each table entry its test id.
"""

import numpy as np
import pytest

from hkgeom.errors import ConfigError


def _leaves(value):
    """The arrays of a result, which may nest tuples."""
    if isinstance(value, tuple):
        return [leaf for part in value for leaf in _leaves(part)]
    return [np.asarray(value)]


def batch_row_test(batched, k):
    """A test over the table: row r of the k-row batch equals the one-row batch of row r."""

    @pytest.mark.parametrize("name", sorted(batched))
    def test_batch_row_equals_one_row_batch(name):
        call = batched[name]
        batch = _leaves(call(slice(None)))
        for r in range(k):
            alone = _leaves(call(slice(r, r + 1)))
            for whole, one in zip(batch, alone, strict=True):
                assert whole.shape[0] == k and one.shape[0] == 1
                assert np.array_equal(whole[r : r + 1], one), (name, r)

    return test_batch_row_equals_one_row_batch


def one_point_test(batched, pattern):
    """A test over the table: an integer row index, one point, is a ConfigError matching pattern."""

    @pytest.mark.parametrize("name", sorted(batched))
    def test_one_point_is_rejected(name):
        with pytest.raises(ConfigError, match=pattern):
            batched[name](0)

    return test_one_point_is_rejected
