"""Fixtures shared by the group and hardware tests."""

import pytest

from avcs.groups import CurveGroup


@pytest.fixture
def point_ops(monkeypatch):
    """``point_ops(fn)`` runs ``fn()`` and returns the (doublings, mixed
    additions, inversions) it made on either curve, counted on the
    formulas themselves; every conversion to affine coordinates takes
    one inversion."""
    calls = dict.fromkeys(("_jac_double", "_jac_add_affine", "_batch_to_affine"), 0)

    def counted(name):
        method = getattr(CurveGroup, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(CurveGroup, name, counted(name))

    def pattern(fn):
        for name in calls:
            calls[name] = 0
        fn()
        return tuple(calls.values())

    return pattern
