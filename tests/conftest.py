import pytest

from swsense.controller import ControllerConfig
from swsense.estimator import build_calibration
from swsense.readout import ChainConfig


@pytest.fixture(scope="session")
def chain():
    return ChainConfig()


@pytest.fixture(scope="session")
def controller():
    return ControllerConfig()


@pytest.fixture(scope="session")
def calibration(chain, controller):
    # Built once, by an 80-round AGC walk; about 0.04 s. Everything downstream
    # treats it as immutable.
    return build_calibration(chain, None, controller)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the acceptance verdict lines where they cannot be missed."""
    import sys

    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for line in results:
        terminalreporter.write_line(line)
