"""Fixtures shared by the lint test modules."""

import os

import pytest

from repro.analysis import LintEngine
from repro.analysis.engine import DEFAULT_ROOTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session")
def real_tree_diags():
    """The one whole-tree lint of the session: every root CI lints."""
    return LintEngine().run([os.path.join(ROOT, r) for r in DEFAULT_ROOTS])
