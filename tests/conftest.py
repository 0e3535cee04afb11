import pytest

import swsense.engine
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
    # Built once in 5 chain_codes_cw reads: settle_cw searches the one row
    # that stands for every row in 4 reads, of 41, 500, 78 and 20 cells, and
    # one more read gives the other 150 rows. About 0.002 s, the median of
    # 15 builds on a 2-core host. Everything downstream treats it as
    # immutable.
    return build_calibration(chain, None, controller)


@pytest.fixture
def drop_kept_scenario():
    """Drop the scenario the engine keeps, so the test's next run pushes its lines and reads its codes afresh.

    Dropped once before the test; the fixture's value drops it again.
    """

    def drop():
        swsense.engine._KEPT_SCENARIO = (None, {})

    drop()
    return drop


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
