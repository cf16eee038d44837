"""Shared test fixtures."""
import pytest

from critpoly import construct

try:
    from hypothesis import settings
except ImportError:  # optional test tooling
    pass
else:
    # the same examples on every run; each test keeps its own max_examples
    settings.register_profile("critpoly", derandomize=True)
    settings.load_profile("critpoly")


@pytest.fixture(autouse=True)
def cold_builders():
    """Start every test with empty builder caches and empty Gauss-Jacobi
    rule and Beta memos: a test that monkeypatches a kernel then sees its
    patch take effect whatever ran before it, each acceptance budget times
    a cold build, as a fresh run pays it, and a count of memo work starts
    from cold."""
    construct.clear_caches()
    yield
