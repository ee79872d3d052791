"""Shared pytest plumbing: the acceptance-criteria summary block and the
environment for running felab as a module in a child process."""

import os
from pathlib import Path

import felab

ACCEPTANCE_RESULTS = {}


def record_criterion(num, outcome, title):
    """Store one criterion outcome for the end-of-run summary."""
    ACCEPTANCE_RESULTS[num] = (outcome, title)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        outcome, title = ACCEPTANCE_RESULTS[num]
        terminalreporter.write_line("[C%02d] %s %s" % (num, outcome, title))


def module_env():
    """Environment for ``python -m felab`` in a child process.

    The directory holding the imported ``felab`` package goes first on
    PYTHONPATH, so the child runs the felab under test whatever its working
    directory and whatever other felab is installed.
    """
    env = dict(os.environ)
    root = str(Path(felab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env
