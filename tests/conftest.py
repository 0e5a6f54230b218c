"""Fixtures shared by the group and hardware tests."""

import pytest

from avcs.groups import CurveGroup


@pytest.fixture
def point_ops(monkeypatch):
    """``point_ops(fn)`` runs ``fn()`` and returns the (doublings, mixed
    additions, inversions) it made on either curve, counted on the
    formulas themselves; every conversion to affine coordinates takes
    one inversion, and so does every ``_add_lanes`` step.  After the
    call, ``point_ops.lanes`` holds its (lane additions, lane steps):
    a step of m lanes adds m, whether or not a lane then takes the
    exact ``add``, whose own operations count in the tuple."""
    calls = dict.fromkeys(("_jac_double", "_jac_add_affine", "_batch_to_affine"), 0)
    lanes = [0, 0]

    def counted(name):
        method = getattr(CurveGroup, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(CurveGroup, name, counted(name))
    add_lanes = CurveGroup._add_lanes

    def counted_lanes(self, acc, pts):
        lanes[0] += len(pts)
        lanes[1] += 1
        return add_lanes(self, acc, pts)

    monkeypatch.setattr(CurveGroup, "_add_lanes", counted_lanes)

    def pattern(fn):
        for name in calls:
            calls[name] = 0
        lanes[:] = [0, 0]
        fn()
        pattern.lanes = tuple(lanes)
        doublings, additions, conversions = calls.values()
        return doublings, additions, conversions + lanes[1]

    return pattern
