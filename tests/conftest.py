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
