"""Shared test plumbing: surface acceptance criterion results in the summary,
and measure how well the precompactness net covers the joint tables."""
from fractions import Fraction

import roelcke as rk
from roelcke import density, uniformity
from roelcke.space import joint_counts

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


def net_coverage(partition, epsilon) -> list[Fraction]:
    """w_distance from each joint count table to its nearest net centre,
    over epsilon: below 1 means covered.

    w_distance sees an automorphism only through its joint table, so
    walking every table (margins the cell sizes, step 1) and realizing it
    exactly covers the whole group, not a sample of it.
    """
    net = rk.precompactness_net(partition, epsilon)
    sizes = list(partition.cell_sizes)
    ratios = []
    for counts in uniformity._enumerate_grid(sizes, sizes, 1):
        T = density._realize_counts(counts, partition)
        assert joint_counts(T, partition) == counts
        ratios.append(min(rk.w_distance(T, c, partition) for c in net) / epsilon)
    return ratios
