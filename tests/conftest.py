"""Shared test plumbing: surface acceptance criterion results in the summary."""

ACCEPTANCE_LINES = []
# Counters that show a criterion reached its regime, printed after the
# acceptance lines so those stay byte-identical.
REGIME_LINES = []
# Acceptance test name -> wall seconds of its call phase, in run order.
CRITERION_SECONDS = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py::" in report.nodeid:
        CRITERION_SECONDS[report.nodeid.rsplit("::", 1)[1]] = report.duration


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES + REGIME_LINES:
            terminalreporter.write_line(line)
        for name, seconds in CRITERION_SECONDS.items():
            terminalreporter.write_line(f"wall time {name}: {seconds:.1f} s")
