"""The import surface: every exported name resolves and has one home."""

import importlib
import types

import triconc

MODULES = ("exactmath", "teststate", "oracle", "protocol", "eof")


def test_every_name_in_all_resolves():
    for name in MODULES:
        module = importlib.import_module(f"triconc.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], (name, missing)


def test_every_package_export_is_in_a_module_all():
    homes = set()
    for name in MODULES:
        homes.update(importlib.import_module(f"triconc.{name}").__all__)
    exported = {n for n, v in vars(triconc).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported - homes == set()


def test_protocol_takes_nothing_from_the_oracle():
    # the stopping rule needs exact combinatorics only, not dense states
    borrowed = [n for n, v in vars(triconc.protocol).items()
                if getattr(v, "__module__", None) == "triconc.oracle"]
    assert borrowed == []


def test_oracle_takes_nothing_from_exactmath():
    # the dense oracle builds states and takes spectra; closed forms live
    # in teststate
    borrowed = [n for n, v in vars(triconc.oracle).items()
                if getattr(v, "__module__", None) == "triconc.exactmath"]
    assert borrowed == []


def _origin(value) -> str:
    if isinstance(value, types.ModuleType):
        return value.__name__
    return getattr(value, "__module__", None) or ""


def test_encodings_live_in_the_oracle():
    # pair encodings are dense-state matrices; teststate is the closed forms
    # of the Bell test state and needs neither numpy nor the oracle
    oracle_borrowed = {n for n, v in vars(triconc.oracle).items()
                       if _origin(v) == "triconc.teststate"}
    assert oracle_borrowed == {"TestStateSpec"}
    teststate_borrowed = [n for n, v in vars(triconc.teststate).items()
                          if _origin(v).split(".")[0] == "numpy"
                          or _origin(v) == "triconc.oracle"]
    assert teststate_borrowed == []
