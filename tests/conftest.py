from collections import Counter
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from torus_action import DiffOperator


@pytest.fixture
def count_transforms(monkeypatch):
    """Start counting the real transforms that operators make, and refuse complex ones.

    Every transform in the package goes through ``DiffOperator._rfft`` or
    ``_irfft``, so the counts are taken there.  Calling the fixture starts
    the count and returns its dict.
    """
    import scipy.fft

    def start():
        counts = {"rfft": 0, "irfft": 0, "complex": 0}
        for name in ("rfft", "irfft"):
            def counted(self, array, _name=name, _method=getattr(DiffOperator, f"_{name}")):
                counts[_name] += 1
                return _method(self, array)

            monkeypatch.setattr(DiffOperator, f"_{name}", counted)
        for mod in (np.fft, scipy.fft):
            for name in ("fftn", "ifftn"):
                def refused(*args, **kwargs):
                    counts["complex"] += 1
                    raise AssertionError("complex transform on the real-data path")

                monkeypatch.setattr(mod, name, refused)
        return counts

    return start


@pytest.fixture
def count_exp(monkeypatch):
    """Start counting the arrays that ``np.exp`` sweeps, by shape.

    The log-sum-exp kind is the one built-in potential that calls
    ``np.exp``: each of its points sweeps it once, when the point is made,
    over its J logit planes, shape ``(J,) + batch``.  Calling the fixture
    starts the count and returns its Counter.
    """

    def start():
        counts = Counter()

        def counted(x, *args, _exp=np.exp, **kwargs):
            counts[np.shape(x)] += 1
            return _exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counted)
        return counts

    return start


def with_evaluations(pot, **evaluations):
    """``pot`` rebuilt with some of its value, gradient and Hessian replaced.

    Each replacement is a ``(t, x)`` callable, read at the (t, x) of each
    point of the rebuilt potential; the rest are read from ``pot``'s own
    point there.  Faulty and counting potentials are built this way.
    """
    names = ("value", "gradient", "hessian")
    unknown = set(evaluations) - set(names)
    if unknown:
        raise TypeError(f"cannot replace {sorted(unknown)}; only {names}")

    def at(t, x):
        point = pot.at(t, x)
        return SimpleNamespace(**{
            name: partial(evaluations[name], t, x) if name in evaluations
            else getattr(point, name)
            for name in names
        })

    return replace(pot, at=at)
