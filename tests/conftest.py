import sys

import pytest

from seel import estimators


@pytest.fixture
def expectile_calls(monkeypatch):
    """Row counts of the datasets passed to expectile_fit, one entry per call,
    counted through every seel module that binds the function."""
    calls = []
    real = estimators.expectile_fit

    def counting(ds, *args, **kwargs):
        calls.append(ds.n)
        return real(ds, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "seel" or name.startswith("seel.")) \
                and getattr(module, "expectile_fit", None) is real:
            monkeypatch.setattr(module, "expectile_fit", counting)
    return calls
