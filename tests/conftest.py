import pytest

from biquat.harness import SuiteConfig, run_suite


@pytest.fixture(scope="session")
def full_report():
    """The `verify all` report at the default grids (17, 33) and seed 1234,
    run once per session."""
    return run_suite(SuiteConfig(suite="all"))
