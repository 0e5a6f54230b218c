"""Fixtures shared by the group and hardware tests."""

import pytest

from avcs.groups import count_group_ops


@pytest.fixture
def point_ops():
    """``point_ops(fn)`` runs ``fn()`` and returns the (doublings, mixed
    additions, inversions) it made on either curve, as ``count_group_ops``
    tallies them: every conversion to affine coordinates takes one
    inversion, and so does every ``_add_lanes`` step.  After the call,
    ``point_ops.lanes`` holds its (lane additions, lane steps): a step of
    m lanes adds m, whether or not a lane then takes the exact
    ``sum_points``, whose own operations count in the tuple."""

    def pattern(fn):
        with count_group_ops() as ops:
            fn()
        pattern.lanes = (ops.lane_additions, ops.lane_steps)
        return ops.doublings, ops.additions, ops.inversions

    return pattern
