"""Shared fixtures."""

import pytest


@pytest.fixture(scope="session")
def verify_suite():
    """Run an oracle agreement suite at most once per session.

    Returns a function of the suite name that gives the lines the suite
    emitted and its (checks, failures) per group of checks, so the suite's
    own test and the tests of single groups share one run.
    """

    from parisian.oracle import verify_groups

    runs = {}

    def run(suite):
        if suite not in runs:
            lines = []
            runs[suite] = lines, verify_groups(suite, seed=0, emit=lines.append)
        return runs[suite]

    return run
