import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

for path in (SRC, BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture
def at_root(monkeypatch):
    """Workloads name the bundled fixtures relative to the checkout root."""
    monkeypatch.chdir(ROOT)
    return ROOT
