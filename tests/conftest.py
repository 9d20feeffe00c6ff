import multiprocessing

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def no_process_left():
    """Fail a test that leaves a child process running (the F_hat worker)."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.kill()
        proc.join()
    assert left == [], f"processes left running: {left}"


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(99)


def pytest_terminal_summary(terminalreporter):
    try:
        import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "RESULTS", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
