import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

# Pass/fail lines recorded by the acceptance tests, echoed after the
# run so they survive output capture.
ACCEPTANCE_LINES = []

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # Hypothesis caches what it reads from source files under its home
    # directory, ./.hypothesis by default; keep that out of the working tree.
    home = tempfile.TemporaryDirectory(prefix="gaussbath-hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[_HYPOTHESIS_HOME].cleanup()


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture
def criterion():
    def record(line):
        ACCEPTANCE_LINES.append(line)
        print(line)
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
