import threading

import pytest

from biquat.harness import SuiteConfig, run_suite


@pytest.fixture(scope="session")
def full_report():
    """The `verify all` report at the default grids (17, 33) and seed 1234,
    run once per session."""
    return run_suite(SuiteConfig(suite="all"))


@pytest.fixture(autouse=True)
def no_block_threads_left():
    """A kernel call that splits joins its threads before it returns."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("biquat-blocks")]
    if left:
        pytest.fail(f"kernel threads outlived the test: {left}")
