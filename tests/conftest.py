"""Prints a one-line verdict per acceptance criterion after the run.

Tests opt in by carrying a ``_criterion = (number, label)`` attribute, set
by the ``criterion`` decorator in test_acceptance.py.  The summary goes
through pytest's terminal reporter so it survives output capture.

Hypothesis runs derandomized: every test draws the same examples on every
run, so the suite's outcome does not depend on a random seed.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

_labels = {}
_outcomes = {}


def pytest_collection_modifyitems(items):
    for item in items:
        mark = getattr(getattr(item, "function", None), "_criterion", None)
        if mark is not None:
            _labels[item.nodeid] = mark


def pytest_runtest_logreport(report):
    if report.nodeid not in _labels:
        return
    if report.outcome == "failed":
        _outcomes[report.nodeid] = "failed"
    elif report.when == "call" and report.nodeid not in _outcomes:
        _outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    status_word = {"passed": "PASS", "failed": "FAIL"}
    terminalreporter.section("acceptance criteria")
    for nodeid, (num, label) in sorted(_labels.items(), key=lambda kv: kv[1][0]):
        outcome = _outcomes.get(nodeid)
        if outcome is None:
            continue
        status = status_word.get(outcome, outcome.upper())
        terminalreporter.write_line(f"criterion {num:2d}: {status} - {label}")
