import inspect
import pickle

import pytest

from normgeom import errors


def _instances():
    """One instance of every exception class ``normgeom.errors`` defines."""
    for name, cls in inspect.getmembers(errors, inspect.isclass):
        if cls.__module__ != errors.__name__:
            continue
        if cls is errors.NonManifoldSuspected:
            yield pytest.param(cls(1.5e-3, 1e-3, 1e-4), id=name)
        else:
            yield pytest.param(cls(f"{name} raised"), id=name)


@pytest.mark.parametrize("error", _instances())
def test_every_error_survives_pickling(error):
    # an error must cross a process boundary, e.g. from a multiprocessing pool
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is type(error)
    assert str(again) == str(error)
    assert again.args == error.args
    assert vars(again) == vars(error)


def test_non_manifold_suspected_keeps_its_fields():
    error = pickle.loads(pickle.dumps(errors.NonManifoldSuspected(1.5e-3, 1e-3, 1e-4)))
    assert (error.residual, error.sample_radius, error.threshold) == (1.5e-3, 1e-3, 1e-4)
    assert "1.500e-03 exceeds 1.000e-04" in str(error)
