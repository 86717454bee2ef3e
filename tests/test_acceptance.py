"""Acceptance suite: one test per criterion, with a PASS line each.

All randomized sweeps are seeded, so every observed maximum printed here is
reproducible.  Exact claims are asserted in rational arithmetic; spectral
and averaged-power claims use the documented float tolerances.
"""
from collections import Counter
from fractions import Fraction
from random import Random

import conftest
import numpy as np

import roelcke as rk
from roelcke.factorization import budget_identity, exhaustive_left_factor_scan
from roelcke.sampling import (
    random_cell_preserving,
    random_close_pair,
    random_markov,
    random_observable,
    random_partition,
    random_permutation,
    random_realizable_coupling,
    random_small_deviation,
)
from roelcke.semigroup import CesaroConvergenceError, _pair_orbits
from roelcke.space import AtomSpace


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} {name}: {status} {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def regime(num, name, detail):
    line = f"REGIME {num:2d} {name}: {detail}"
    print(line)
    conftest.REGIME_LINES.append(line)


def test_01_forward_inclusion():
    rng = Random(20260824)
    combos = [
        (N, n, eps)
        for N in (8, 16, 64)
        for n in (2, 3, 4)
        for eps in (Fraction(1, 8), Fraction(1, 16))
    ]
    trials = 10_000
    violations = 0
    worst_ratio = Fraction(0)
    for t in range(trials):
        N, n, eps = combos[t % len(combos)]
        alpha = random_partition(rng, N, n)
        S = random_permutation(rng, N)
        P = random_small_deviation(rng, alpha, eps)
        Q = random_small_deviation(rng, alpha, eps)
        distance, ok = rk.forward_bound_check(S, P, Q, alpha, eps)
        if not ok:
            violations += 1
        worst_ratio = max(worst_ratio, distance / eps)
    report(1, "forward inclusion", violations == 0,
           f"trials={trials} max distance/epsilon={worst_ratio} (< 2)")


_ORACLE_CASES = [
    # (N, labels, epsilon): exhaustive over all qualifying ordered pairs.
    (4, [1, 1, 2, 2], Fraction(1, 2)),
    (4, [1, 1, 2, 2], Fraction(3, 4)),
    (4, [1, 1, 2, 2], Fraction(9, 10)),
    (4, [1, 1, 1, 2], Fraction(9, 10)),
    (5, [1, 1, 2, 2, 2], Fraction(9, 10)),
    (5, [1, 2, 2, 2, 2], Fraction(9, 10)),
    (6, [1, 1, 1, 2, 2, 2], Fraction(3, 4)),
    (6, [1, 1, 2, 2, 2, 2], Fraction(3, 4)),
]


def test_02_backward_inclusion():
    # Exhaustive oracle fixing the left-factor constant on complete small
    # cases, then the randomized sweep at the shipped constant.
    empirical = Fraction(0)
    total_scanned = 0
    for N, labels, eps in _ORACLE_CASES:
        alpha = rk.make_partition(AtomSpace(N), labels)
        worst, scanned = exhaustive_left_factor_scan(alpha, eps)
        empirical = max(empirical, worst)
        total_scanned += scanned
    assert empirical <= rk.LEFT_FACTOR_CONSTANT
    assert rk.LEFT_FACTOR_CONSTANT <= 4

    # Supplementary uniform-pair sweep at 8 atoms (exhaustion is out of
    # reach there: ~1.6e9 ordered pairs).
    rng = Random(77)
    alpha8 = rk.make_partition(AtomSpace(8), [1, 1, 1, 1, 2, 2, 2, 2])
    eps8 = Fraction(3, 4)
    accepted = 0
    while accepted < 10_000:
        S = random_permutation(rng, 8)
        T = random_permutation(rng, 8)
        if not rk.w_distance(S, T, alpha8) < eps8 / 4:
            continue
        accepted += 1
        w = rk.factorize(S, T, alpha8, eps8)
        empirical = max(empirical, w.p_deviation / eps8)
    assert empirical <= rk.LEFT_FACTOR_CONSTANT

    rng = Random(20260825)
    trials = 1000
    violations = 0
    worst_r = Fraction(0)
    worst_p = Fraction(0)
    for t in range(trials):
        N = (16, 64)[t % 2]
        n = 2 + t % 3
        eps = Fraction(1, 8)
        alpha = random_partition(rng, N, n)
        S, T = random_close_pair(rng, alpha, eps)
        w = rk.factorize(S, T, alpha, eps)
        if not rk.roelcke_related(
            S, T, w.P, w.R, alpha, rk.LEFT_FACTOR_CONSTANT * eps
        ):
            violations += 1
        worst_r = max(worst_r, w.r_deviation / eps)
        worst_p = max(worst_p, w.p_deviation / eps)
    report(2, "backward inclusion", violations == 0,
           f"oracle pairs={total_scanned} empirical C_P={empirical} "
           f"(shipped {rk.LEFT_FACTOR_CONSTANT} <= 4); sweep trials={trials} "
           f"max r_dev/eps={worst_r} max p_dev/eps={worst_p}")


def test_03_budget_identity():
    rng = Random(20260826)
    trials = 1000
    violations = 0
    for t in range(trials):
        N = (16, 64)[t % 2]
        n = 2 + t % 3
        eps = Fraction(1, 8)
        alpha = random_partition(rng, N, n)
        S, T = random_close_pair(rng, alpha, eps)
        w = rk.factorize(S, T, alpha, eps)
        lhs, rhs = budget_identity(w)
        if not (lhs == rhs and lhs < eps):
            violations += 1
    report(3, "budget identity", violations == 0, f"trials={trials}")


def test_04_density_realization():
    rng = Random(20260827)
    trials = 1000
    violations = 0
    for t in range(trials):
        N = (8, 32, 128, 256)[t % 4]
        n = 2 + t % 3
        alpha = random_partition(rng, N, n)
        C = random_realizable_coupling(rng, alpha)
        T = rk.realize(C, alpha)
        if rk.joint_matrix(T, alpha).entries != C.entries:
            violations += 1
    report(4, "density realization", violations == 0, f"trials={trials}")
    # Off the grid: round a random Markov operator's partition image onto
    # M = rN atoms and realize it on alpha refined r-fold.  Coefficients are
    # read off the tables; M x M Koopman matrices would take minutes.
    off_grid = 0
    worst = Fraction(0)
    worst_gap = dict.fromkeys((1, 4, 16, 64), Fraction(0))
    for _ in range(200):
        N, n = rng.randrange(4, 9), rng.randrange(2, 5)
        alpha = random_partition(rng, N, n)
        K = random_markov(rng, N)
        C = rk.compress(K, alpha)
        f = [Fraction(rng.randrange(-8, 9), 8) for _ in range(n)]
        g = [Fraction(rng.randrange(-8, 9), 8) for _ in range(n)]
        f_alpha, g_alpha = (rk.ObservableVector(tuple(h[a - 1] for a in alpha.labels))
                            for h in (f, g))
        coefficient = rk.matrix_coefficient(K, f_alpha, g_alpha)
        assert coefficient == sum(
            C.entries[i][j] * f[i] * g[j] for i in range(n) for j in range(n)
        )
        weight = sum(abs(f[i] * g[j]) for i in range(n) for j in range(n))
        for r in worst_gap:
            M = r * N
            refined = rk.make_partition(
                AtomSpace(M), [a for a in alpha.labels for _ in range(r)]
            )
            R = rk.round_to_grid(C, M)
            T = rk.realize(R, refined)
            J = rk.joint_matrix(T, refined).entries
            assert J == R.entries
            error = max(abs(x - y) for rr, rc in zip(R.entries, C.entries)
                        for x, y in zip(rr, rc))
            assert error * M < 1, f"entry error {error * M}/M at M={M}"
            if any((v * M).denominator != 1 for row in C.entries for v in row):
                off_grid += 1
                # T's own coefficient on the same observables, off its table.
                gap = abs(sum(J[i][j] * f[i] * g[j]
                              for i in range(n) for j in range(n)) - coefficient)
                assert gap <= weight / M, f"coefficient gap {gap} at M={M}"
                worst_gap[r] = max(worst_gap[r], gap)
            worst = max(worst, error * M)
    regime(4, "density realization",
           f"off-grid trials={off_grid}/800 worst error*M={float(worst):.3f}")
    regime(4, "density coefficients",
           "worst |<T f, g> - <K f, g>| off grid: "
           + " ".join(f"r={r} {float(gap):.4f}" for r, gap in worst_gap.items()))
    assert off_grid > 0


def test_05_birkhoff():
    from roelcke.density import birkhoff_reconstruct

    rng = Random(20260828)
    trials = 1000
    violations = 0
    worst_terms = 0
    for t in range(trials):
        n = 2 + t % 7
        D = random_markov(rng, n, terms=n + 1)
        terms = rk.birkhoff(D)
        recon = birkhoff_reconstruct(terms, n)
        bound = (n - 1) ** 2 + 1
        if tuple(tuple(r) for r in recon) != D.entries or len(terms) > bound:
            violations += 1
        worst_terms = max(worst_terms, len(terms))
    report(5, "birkhoff decomposition", violations == 0,
           f"trials={trials} max terms={worst_terms}")


def _set_partitions(N):
    out = []

    def rec(prefix, used):
        if len(prefix) == N:
            out.append([1 + v for v in prefix])
            return
        for v in range(used + 1):
            rec(prefix + [v], max(used, v + 1))

    rec([], 0)
    return out


def _refines(fine, coarse):
    """Every cell of the labelling `fine` lies inside a cell of `coarse`."""
    cell_of = {}
    return all(cell_of.setdefault(f, c) == c for f, c in zip(fine, coarse))


def test_06_semigroup_hypothesis():
    # E_p <= E_q exactly when q's partition refines p's.
    checked = 0
    below = 0
    violations = 0
    for N in range(2, 7):
        partitions = _set_partitions(N)
        blocks = [
            rk.block_average(rk.make_partition(AtomSpace(N), labels))
            for labels in partitions
        ]
        for p_labels, p in zip(partitions, blocks):
            for q_labels, q in zip(partitions, blocks):
                check = rk.order_check(p, q)
                if not check.equivalent or check.below != _refines(q_labels, p_labels):
                    violations += 1
                below += check.below
                checked += 1
    report(6, "semigroup hypothesis", violations == 0,
           f"idempotent pairs={checked}")
    regime(6, "semigroup hypothesis", f"below pairs={below}")


def _limit_checks(K, rep):
    """(match, ok) for a converged report: match says the float limit is
    the exact one; ok adds idempotency and absorption."""
    exact = np.array([[float(v) for v in row]
                      for row in rk.cesaro_limit_exact(K).entries])
    match = float(np.max(np.abs(rep.matrix - exact))) < 1e-6
    ok = (
        match
        and rep.idempotency_defect < 1e-8
        and rep.absorb_left < 1e-8
        and rep.absorb_right < 1e-8
    )
    return match, ok


def _power_checks(K):
    """(ok, E != p, L) in exact arithmetic, for E the power idempotent and
    p the exact Cesaro limit.  ok says p is idempotent and absorbs K, E is
    idempotent, K^L E = E K^L = E for L the least such m >= 1, p <= E, and
    E = K^L when K is a permutation matrix."""
    p = rk.cesaro_limit_exact(K)
    E = rk.power_idempotent_exact(K)
    if not (rk.is_idempotent(p) and rk.is_idempotent(E)
            and rk.product(p, K).entries == p.entries
            and rk.product(K, p).entries == p.entries
            and rk.order_check(p, E).below):
        return False, p != E, None
    # L is the lcm of the class periods, which sum to at most N, so it is
    # at most N*N for N <= 10.
    KmE, L = rk.product(K, E), 1
    while KmE != E and L < K.size ** 2:
        KmE, L = rk.product(K, KmE), L + 1
    KL = K
    for _ in range(L - 1):
        KL = rk.product(KL, K)
    permutation = all(v in (0, 1) for row in K.entries for v in row)
    ok = (KmE == E and rk.product(E, KL) == E
          and (KL == E or not permutation))
    return ok, p != E, L


def _reducible_and_periodic(rng):
    """Inputs away from the irreducible bulk of `random_markov`.

    Reducible K are convex combinations of permutations that preserve a
    hidden partition.  Periodic K are permutation matrices of fixed cycle
    types, relabelled at random; the float windows settle only when the
    period is a power of 2.
    """
    weights = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    inputs = []
    for t in range(20):
        N = 4 + t % 7
        hidden = random_partition(rng, N, 1 + t % 4)
        perms = [random_cell_preserving(rng, hidden) for _ in range(3)]
        inputs.append(rk.convex_combination(
            weights, [rk.koopman_matrix(T) for T in perms]))
    for cycles in [(1, 1, 1, 1), (2, 2), (4,), (2, 1, 1), (4, 2, 2), (8,),
                   (3, 1), (2, 3), (5, 1, 1)]:
        forward, start = [], 0
        for length in cycles:
            forward += [start + (i + 1) % length for i in range(length)]
            start += length
        g = random_permutation(rng, len(forward))
        U = rk.koopman_matrix(rk.Automorphism(tuple(forward)))
        inputs.append(rk.conjugate(U, g))
    return inputs


def test_07_least_idempotent():
    rng = Random(20260829)
    trials = 100
    violations = 0
    worst_defect = 0.0
    matched = 0
    classes = Counter()
    inputs = []
    for t in range(trials):
        N = 4 + t % 7  # sizes 4..10
        K = random_markov(rng, N, terms=3)
        inputs.append(K)
        try:
            rep = rk.cesaro_idempotent(K, tol=1e-8)
        except Exception:
            violations += 1
            continue
        match, ok = _limit_checks(K, rep)
        matched += match
        classes[rep.classification] += 1
        if not ok:
            violations += 1
        worst_defect = max(worst_defect, rep.idempotency_defect)
    # Added trials, after the 100 above; the ACCEPTANCE line describes
    # those 100.  Where the float loop gives up, the exact checks below
    # still run.
    added = _reducible_and_periodic(rng)
    inputs += added
    added_classes = Counter()
    for K in added:
        try:
            rep = rk.cesaro_idempotent(K, tol=1e-8)
        except CesaroConvergenceError:
            added_classes["diverged"] += 1
            continue
        _, ok = _limit_checks(K, rep)
        added_classes[rep.classification] += 1
        if not ok:
            violations += 1
    exact_ok = 0
    distinct = 0
    powers = Counter()
    for K in inputs:
        ok, differs, L = _power_checks(K)
        exact_ok += ok
        distinct += differs
        if L:
            powers[L] += 1
        if not ok:
            violations += 1
    regime(7, "least idempotent",
           f"exact-limit matches={matched}/{trials} "
           + " ".join(f"{name}={count}" for name, count in sorted(classes.items()))
           + f"; added trials={len(added)} "
           + " ".join(f"{name}={count}"
                      for name, count in sorted(added_classes.items())))
    regime(7, "power idempotent",
           f"exact checks={exact_ok}/{len(inputs)} E!=p={distinct} L: "
           + " ".join(f"{L}={count}" for L, count in sorted(powers.items())))
    reached = (
        added_classes["block_average"] > 0
        and added_classes["identity"] > 0
        and added_classes["other"] == 0
        and distinct > 0
    )
    report(7, "least idempotent", violations == 0 and reached,
           f"trials={trials} max defect={worst_defect:.2e}")


def test_08_dichotomy():
    ok = all(
        [m.entries for m in rk.invariant_idempotent_classify(N)]
        == [rk.MarkovMatrix.identity(N).entries, rk.MarkovMatrix.uniform(N).entries]
        for N in range(2, 7)
    )
    report(8, "invariant idempotent dichotomy", ok, "N=2..6 -> {I, J/N}")
    # Added sizes, up to the cap; the system has three equations per orbit.
    # TestClassify::test_exactly_two classifies them.
    orbits = {N: len(_pair_orbits(N)) for N in (7, 8, 12, 16, 32, 64)}
    regime(8, "invariant idempotent dichotomy",
           "N (pair orbits)=" + " ".join(f"{N} ({k})" for N, k in orbits.items()))
    assert set(orbits.values()) == {2}  # S_N is 2-transitive: span{I, J}


def test_09_positive_definiteness():
    rng = Random(20260830)
    trials = 100
    violations = 0
    worst = 0.0
    lawful = 0
    for _ in range(trials):
        f = random_observable(rng, 32)
        elements = [random_permutation(rng, 32) for _ in range(10)]
        min_eig, ok = rk.gram_psd_check(f, elements)
        if not ok:
            violations += 1
        worst = min(worst, min_eig)
        lawful += conftest.group_law_holds(f, elements)
    report(9, "positive definiteness", violations == 0,
           f"trials={trials} min eigenvalue={worst:.2e} (>= -1e-9)")
    regime(9, "positive definiteness",
           f"group law <U_(a^-1 b) f, f> = <U_a f, U_b f> exact: {lawful}/{trials}")
    assert lawful == trials


def test_10_roelcke_modulus():
    rng = Random(20260831)
    trials = 1000
    violations = 0
    for _ in range(trials):
        P = random_permutation(rng, 32)
        S = random_permutation(rng, 32)
        Q = random_permutation(rng, 32)
        f = random_observable(rng, 32)
        if not rk.roelcke_modulus_check(P, S, Q, f).ok:
            violations += 1
    report(10, "uniform-continuity modulus", violations == 0,
           f"trials={trials}")


def test_11_precompactness_net():
    alpha = rk.make_partition(AtomSpace(32), [1] * 16 + [2] * 16)
    eps = Fraction(1, 16)
    net = rk.precompactness_net(alpha, eps)
    assert len(net) <= 9
    rng = Random(20260901)
    trials = 1000
    violations = 0
    for _ in range(trials):
        T = random_permutation(rng, 32)
        if not min(rk.w_distance(T, c, alpha) for c in net) < eps:
            violations += 1
    report(11, "precompactness net", violations == 0,
           f"net size={len(net)} trials={trials}")
    # The trials reach only some of the joint tables; cover all of them.
    ratios = conftest.net_coverage(alpha, eps)
    covered = sum(r < 1 for r in ratios)
    regime(11, "precompactness net",
           f"tables covered={covered}/{len(ratios)} worst nearest/eps={max(ratios)}")
    assert covered == len(ratios)
    # Five cells: every table rounds onto a net table within s - 1 atoms,
    # checked without the nearest-centre search.
    five = rk.make_partition(AtomSpace(10), [1 + x // 2 for x in range(10)])
    gaps = conftest.rounding_gaps(five, Fraction(1, 4))
    regime(11, "net rounding (2,2,2,2,2) eps=1/4",
           f"tables rounded={len(gaps)} worst gap={max(gaps)} atoms")
