"""Independent checks of every output the benchmark times.

None of these calls into roelcke: each recomputes the expected answer from
the generated inputs by a different route, so a wrong kernel cannot also
produce the reference.  Each check returns None when the output is right
and a one-line reason when it is not.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction


def refines(fine: tuple[int, ...], coarse: tuple[int, ...]) -> bool:
    """Does every cell of `fine` lie inside one cell of `coarse`?"""
    image: dict[int, int] = {}
    return all(image.setdefault(f, c) == c for f, c in zip(fine, coarse))


def check_order(labels_p, labels_q, verdict) -> str | None:
    """order_check(E_a, E_b) must say `below` exactly when b refines a.

    Block averages are conditional expectations, so E_a <= E_b in the
    idempotent order iff every a-measurable function is b-measurable.  The
    two one-sided conditions must always agree (`equivalent`).
    """
    if not verdict.equivalent:
        return "one-sided absorption tests disagree"
    expected = refines(labels_q, labels_p)
    if verdict.below != expected:
        return f"below={verdict.below}, refinement says {expected}"
    return None


def _apply(rows, v):
    return [sum(a * b for a, b in zip(row, v)) for row in rows]


def check_product(K1, K2, out, vector: list[int]) -> str | None:
    """Exact Freivalds check: K1 (K2 v) == (K1 K2) v for an integer v."""
    n = len(K1.entries)
    if len(out.entries) != n or any(len(row) != n for row in out.entries):
        return "product has the wrong shape"
    if _apply(K1.entries, _apply(K2.entries, vector)) != _apply(out.entries, vector):
        return "K1 (K2 v) differs from (K1 K2) v"
    return None


def scan_reference(atom_count: int, labels, epsilon: Fraction) -> tuple[Fraction, int]:
    """Expected (worst ratio, scanned pairs) of the exhaustive oracle.

    The pair count follows from the sizes of the joint-count groups over all
    permutations: a pair qualifies iff its two joint tables differ by less
    than epsilon/n^2 (in mass) in every entry.  The worst ratio is the
    value the oracle has fixed: 0 at four atoms, 4/9 at five and six.
    """
    n = max(labels)
    sizes: dict[tuple[int, ...], int] = {}
    for fwd in itertools.permutations(range(atom_count)):
        key = [0] * (n * n)
        for x, y in enumerate(fwd):
            key[(labels[x] - 1) * n + labels[y] - 1] += 1
        sizes[tuple(key)] = sizes.get(tuple(key), 0) + 1
    bound = epsilon / (n * n) * atom_count  # in atoms
    pairs = sum(
        sa * sb
        for ka, sa in sizes.items()
        for kb, sb in sizes.items()
        if max(abs(u - v) for u, v in zip(ka, kb)) < bound
    )
    worst = Fraction(0) if atom_count == 4 else Fraction(4, 9)
    return worst, pairs


def check_scan(reference: tuple[Fraction, int], out) -> str | None:
    worst, scanned = out
    if scanned != reference[1]:
        return f"scanned {scanned} pairs, expected {reference[1]}"
    if worst != reference[0]:
        return f"worst ratio {worst}, expected {reference[0]}"
    return None


def report_digest(path: str) -> str:
    """sha256 of a CLI JSON report with its timestamp removed."""
    with open(path) as fh:
        report = json.load(fh)
    report.pop("timestamp", None)
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_cli(exit_code: int, report_path: str, expected: str) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        digest = report_digest(report_path)
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}"
    if digest != expected:
        return f"report digest {digest[:16]} differs from reference {expected[:16]}"
    return None
