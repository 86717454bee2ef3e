"""Shared test plumbing: surface acceptance criterion results in the summary,
measure how well the precompactness net covers the joint tables, and check
the group law behind the coefficient Gram matrices."""
from fractions import Fraction

import roelcke as rk
from roelcke import density, uniformity
from roelcke.space import compose, inverse, joint_counts

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


def _joint_tables(partition):
    """One automorphism per joint count table (margins the cell sizes).

    w_distance sees an automorphism only through its joint table, so
    walking every table and realizing it exactly covers the whole group,
    not a sample of it.
    """
    sizes = list(partition.cell_sizes)
    for counts in uniformity._enumerate_grid(sizes, sizes, 1):
        T = density._realize_counts(counts, partition)
        assert joint_counts(T, partition) == counts
        yield T


def _rounding_check(partition, epsilon):
    """A check that T's joint table rounds (`density.round_to_grid` at N/s)
    onto one of the net's step-s tables within s - 1 atoms; it returns the
    gap in atoms."""
    N = partition.space.atom_count
    step = uniformity._net_step(partition, epsilon)
    sizes = list(partition.cell_sizes)
    centres = {tuple(map(tuple, t))
               for t in uniformity._enumerate_grid(sizes, sizes, step)}

    def check(T) -> int:
        R = density.round_to_grid(rk.joint_matrix(T, partition), N // step)
        rounded = tuple(tuple(int(v * N) for v in row) for row in R.entries)
        assert rounded in centres
        gap = max(abs(a - b) for ra, rb in zip(rounded, joint_counts(T, partition))
                  for a, b in zip(ra, rb))
        assert gap <= step - 1
        return gap

    return check


def rounding_gaps(partition, epsilon) -> list[int]:
    """Atom gap from every joint table to the net table it rounds onto."""
    check = _rounding_check(partition, epsilon)
    return [check(T) for T in _joint_tables(partition)]


def net_coverage(partition, epsilon) -> list[Fraction]:
    """w_distance from each joint count table to its nearest net centre,
    over epsilon: below 1 means covered.  Each table is also checked to
    round onto a net table within s - 1 atoms (`_rounding_check`)."""
    net = rk.precompactness_net(partition, epsilon)
    check = _rounding_check(partition, epsilon)
    ratios = []
    for T in _joint_tables(partition):
        check(T)
        ratios.append(min(rk.w_distance(T, c, partition) for c in net) / epsilon)
    return ratios


def group_law_holds(f, elements) -> bool:
    """Exact check that G[a][b] = <U_{a^-1 b} f, f>, the entry the positive
    definiteness claim is about, equals the Gram entry <U_a f, U_b f> that
    `wap.gram_psd_check` builds, for every pair of elements.  The two agree
    for every f only when `translate` is a unitary group action."""
    translates = [f.translate(a) for a in elements]
    return all(
        f.translate(compose(inverse(a), b)).inner(f) == ta.inner(tb)
        for a, ta in zip(elements, translates)
        for b, tb in zip(elements, translates)
    )
