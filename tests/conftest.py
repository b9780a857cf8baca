import builtins
import sys
from pathlib import Path

import pytest

try:
    import triconc  # noqa: F401
except ImportError:
    # fresh checkout without `pip install -e .`: use the src tree directly
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def _compensated_sum(iterable, start=0):
    """The built-in sum() as CPython 3.12 has it for floats: exact on
    ints, Neumaier-compensated from the first float on."""
    total, it = start, iter(iterable)
    for x in it:
        if isinstance(x, float):
            break
        total = total + x
    else:
        return total
    s, c = float(total), 0.0
    for v in [x, *it]:
        t = s + v
        c += (s - t) + v if abs(s) >= abs(v) else (v - t) + s
        s = t
    return s + c


@pytest.fixture
def compensated_sum(monkeypatch):
    """Run a test with builtins.sum replaced by _compensated_sum."""
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
