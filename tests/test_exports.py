import importlib

import pytest

import exunits

MODULES = ("arith", "cli", "counting", "errors", "oracle", "poly", "verify")
DELETED = ("eval_mod", "DEFAULT_SCAN_CAP", "ScanCapExceededError")


@pytest.mark.parametrize("name", ("exunits",) + tuple(f"exunits.{m}" for m in MODULES))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    assert not set(DELETED) & set(exported)
    assert not any(hasattr(module, attr) for attr in DELETED)
