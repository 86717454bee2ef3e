"""Seeded experiment runner with bit-exact JSON/CSV reports.

Every suite is deterministic given (config, seed): the only
non-reproducible byte in a report is the isolated top-level "timestamp"
key.  Rationals are serialized as canonical "p/q" strings, never floats.

Exit codes: 0 no violations, 1 violations observed, 2 usage error (bad
flags, --format csv without --out, an input outside a suite's regime, an
unwritable --out), 3 infeasible parameters (a net grid past its cap).
"""
from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from fractions import Fraction
from random import Random
from typing import Callable, Iterator, get_type_hints

from roelcke import density, factorization, sampling, semigroup, wap
from roelcke.markov import (
    MarkovMatrix, _require_ints, _require_positive, convex_combination,
)
from roelcke.space import compose, joint_matrix, koopman_matrix
from roelcke.uniformity import (
    NetInfeasibleError,
    precompactness_net,
    roelcke_related,
    w_distance,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment settings; each field is also one command-line flag."""

    suite: str
    atoms: int = 16
    cells: int = 2
    epsilon: Fraction = field(default=Fraction(1, 8), metadata={"help": "p/q"})
    trials: int = 100
    seed: int = 0
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        _require_ints((self.atoms, self.cells, self.trials), "atoms, cells and trials", 1)
        _require_positive(self.epsilon)
        if self.cells > self.atoms:
            raise ValueError("cells must not exceed atoms")
        if not 0 < self.tol < float("inf"):
            raise ValueError("tol must be positive and finite")

    def to_json_obj(self) -> dict:
        # No suite has a float mode any more; the fixed key keeps report
        # bytes, and so their digests, identical to earlier versions.
        return {**asdict(self), "epsilon": str(self.epsilon), "mode": "rational"}


@dataclass(frozen=True)
class TrialRecord:
    index: int
    digest: str
    observed: dict
    passed: bool


@dataclass
class Report:
    config: ExperimentConfig
    records: list[TrialRecord] = field(default_factory=list)

    @property
    def violations(self) -> int:
        return sum(1 for r in self.records if not r.passed)

    def aggregates(self) -> dict:
        agg: dict = {"violations": self.violations}
        numeric: dict[str, list[float]] = {}
        for record in self.records:
            for key, value in record.observed.items():
                try:
                    v = float(Fraction(value)) if isinstance(value, str) else float(value)
                except (ValueError, TypeError):
                    continue
                numeric.setdefault(key, []).append(v)
        agg["max"] = {k: max(vs) for k, vs in sorted(numeric.items())}
        agg["mean"] = {k: sum(vs) / len(vs) for k, vs in sorted(numeric.items())}
        return agg

    def to_json_obj(self, timestamp: str | None = None) -> dict:
        return {
            "config": self.config.to_json_obj(),
            "timestamp": timestamp
            or datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "records": [asdict(r) for r in self.records],
            "aggregates": self.aggregates(),
        }


# One trial: (digest input, observed values, passed).
Trial = tuple[dict, dict, bool]


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _run_forward(cfg: ExperimentConfig, rng: Random) -> Iterator[Trial]:
    for _ in range(cfg.trials):
        alpha = sampling.random_partition(rng, cfg.atoms, cfg.cells)
        S = sampling.random_permutation(rng, cfg.atoms)
        P = sampling.random_small_deviation(rng, alpha, cfg.epsilon)
        Q = sampling.random_small_deviation(rng, alpha, cfg.epsilon)
        distance, ok = factorization.forward_bound_check(S, P, Q, alpha, cfg.epsilon)
        yield (
            {"labels": alpha.labels, "S": S.forward, "P": P.forward, "Q": Q.forward},
            {
                "distance": str(distance),
                "distance_decimal": float(distance),
                "bound": str(2 * cfg.epsilon),
            },
            ok,
        )


def _run_backward(cfg: ExperimentConfig, rng: Random) -> Iterator[Trial]:
    for _ in range(cfg.trials):
        alpha = sampling.random_partition(rng, cfg.atoms, cfg.cells)
        S, T = sampling.random_close_pair(rng, alpha, cfg.epsilon)
        witness = factorization.factorize(S, T, alpha, cfg.epsilon)
        P, R = witness.P, witness.R
        lhs, rhs = factorization.budget_identity(witness)
        bound = factorization.LEFT_FACTOR_CONSTANT * cfg.epsilon
        related = roelcke_related(S, T, P, R, alpha, bound)
        # The relation holds only when T = P S R, so it settles the identity.
        exact = related or compose(P, compose(S, R)).forward == T.forward
        passed = related and lhs == rhs and lhs < cfg.epsilon
        yield (
            {"labels": alpha.labels, "S": S.forward, "T": T.forward},
            {
                "r_deviation": str(witness.r_deviation),
                "p_deviation": str(witness.p_deviation),
                "leftover_mass": str(witness.leftover_mass),
                "budget_rhs": str(rhs),
                "exact_product": exact,
            },
            passed,
        )


def _run_realize(cfg: ExperimentConfig, rng: Random) -> Iterator[Trial]:
    for _ in range(cfg.trials):
        alpha = sampling.random_partition(rng, cfg.atoms, cfg.cells)
        C = joint_matrix(sampling.random_permutation(rng, cfg.atoms), alpha)
        T = density.realize(C, alpha)
        exact = joint_matrix(T, alpha).entries == C.entries
        yield {"labels": alpha.labels, "C": C.to_strings()}, {"exact": exact}, exact


def _run_birkhoff(cfg: ExperimentConfig, rng: Random) -> Iterator[Trial]:
    size = cfg.cells if cfg.cells > 1 else cfg.atoms
    bound = (size - 1) ** 2 + 1
    for _ in range(cfg.trials):
        D = sampling.random_markov(rng, size, terms=size + 1)
        terms = density.birkhoff(D)
        weights, matrices = [w for w, _ in terms], [koopman_matrix(T) for _, T in terms]
        exact = convex_combination(weights, matrices) == D
        yield (
            {"D": D.to_strings()},
            {"terms": len(terms), "term_bound": bound, "exact": exact},
            exact and len(terms) <= bound,
        )


def _run_cesaro(cfg: ExperimentConfig, rng: Random) -> Iterator[Trial]:
    for _ in range(cfg.trials):
        K = sampling.random_markov(rng, cfg.atoms, terms=3)
        key = {"K": K.to_strings()}
        try:
            report = semigroup.cesaro_idempotent(K, tol=cfg.tol)
        except semigroup.CesaroConvergenceError as exc:
            yield key, {"converged": False, "last_defect": exc.last_defect}, False
            continue
        yield (
            key,
            {
                "converged": True,
                "defect": report.idempotency_defect,
                "absorb_left": report.absorb_left,
                "absorb_right": report.absorb_right,
                "classification": report.classification,
                "iterations": report.iterations,
            },
            report.idempotency_defect < cfg.tol
            and report.absorb_left < cfg.tol
            and report.absorb_right < cfg.tol
            and report.classification != "other",
        )


def _run_dichotomy(cfg: ExperimentConfig, rng: Random) -> Iterator[Trial]:
    found = semigroup.invariant_idempotent_classify(cfg.atoms)
    expected = [MarkovMatrix.identity(cfg.atoms), MarkovMatrix.uniform(cfg.atoms)]
    ok = [m.entries for m in found] == [m.entries for m in expected]
    yield {"N": cfg.atoms}, {"count": len(found), "expected_pair": ok}, ok


def _run_psd(cfg: ExperimentConfig, rng: Random) -> Iterator[Trial]:
    group_size = max(2, cfg.cells)
    for _ in range(cfg.trials):
        f = sampling.random_observable(rng, cfg.atoms)
        elements = [
            sampling.random_permutation(rng, cfg.atoms) for _ in range(group_size)
        ]
        min_eig, ok = wap.gram_psd_check(f, elements)
        yield (
            {"f": [str(v) for v in f.values],
             "elements": [e.forward for e in elements]},
            {"min_eigenvalue": min_eig},
            ok,
        )


def _run_modulus(cfg: ExperimentConfig, rng: Random) -> Iterator[Trial]:
    for _ in range(cfg.trials):
        P = sampling.random_permutation(rng, cfg.atoms)
        S = sampling.random_permutation(rng, cfg.atoms)
        Q = sampling.random_permutation(rng, cfg.atoms)
        f = sampling.random_observable(rng, cfg.atoms)
        check = wap.roelcke_modulus_check(P, S, Q, f)
        yield (
            {"P": P.forward, "S": S.forward, "Q": Q.forward,
             "f": [str(v) for v in f.values]},
            {"lhs": check.lhs, "rhs": check.rhs},
            check.ok,
        )


def _run_net(cfg: ExperimentConfig, rng: Random) -> Iterator[Trial]:
    alpha = sampling.random_partition(rng, cfg.atoms, cfg.cells)
    net = precompactness_net(alpha, cfg.epsilon)
    for _ in range(cfg.trials):
        T = sampling.random_permutation(rng, cfg.atoms)
        best = min(w_distance(T, c, alpha) for c in net)
        yield (
            {"labels": alpha.labels, "T": T.forward},
            {"net_size": len(net), "nearest": str(best),
             "nearest_decimal": float(best)},
            best < cfg.epsilon,
        )


_RUNNERS: dict[str, Callable[[ExperimentConfig, Random], Iterator[Trial]]] = {
    "forward": _run_forward,
    "backward": _run_backward,
    "realize": _run_realize,
    "birkhoff": _run_birkhoff,
    "cesaro": _run_cesaro,
    "dichotomy": _run_dichotomy,
    "psd": _run_psd,
    "modulus": _run_modulus,
    "net": _run_net,
}

SUITES = tuple(_RUNNERS)


def run_suite(config: ExperimentConfig) -> Report:
    trials = _RUNNERS[config.suite](config, Random(config.seed))
    return Report(config=config, records=[
        TrialRecord(index=t, digest=_digest(key), observed=observed, passed=passed)
        for t, (key, observed, passed) in enumerate(trials)
    ])


def export_csv(report: Report, path: str) -> None:
    """One row per trial; rational fields stay "p/q" strings."""
    keys = sorted({k for r in report.records for k in r.observed})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "digest", "passed", *keys])
        for r in report.records:
            writer.writerow(
                [r.index, r.digest, r.passed] + [r.observed.get(k, "") for k in keys]
            )


def export_json(report: Report, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_json_obj(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _rational(text: str) -> Fraction:
    try:  # argparse reports a ZeroDivisionError ("1/0") as a traceback
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """One flag per `ExperimentConfig` field, with its type and default."""
    parser = argparse.ArgumentParser(
        prog="roelcke",
        description="Seeded experiment suites over the finite Markov model.",
    )
    types = get_type_hints(ExperimentConfig)
    for f in fields(ExperimentConfig):
        parser.add_argument(
            f"--{f.name}",
            type=_rational if types[f.name] is Fraction else types[f.name],
            default=None if f.default is MISSING else f.default,
            choices=SUITES if f.name == "suite" else None,
            help=f.metadata.get("help"),
        )
    parser.add_argument("--out")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.suite is None:
        parser.print_usage(sys.stderr)
        print("error: --suite is required", file=sys.stderr)
        return 2
    if args.format == "csv" and not args.out:
        print("error: --format csv needs --out", file=sys.stderr)
        return 2
    try:
        config = ExperimentConfig(
            **{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
        )
        report = run_suite(config)
    except NetInfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a bad setting or an input outside the regime
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        export = export_csv if args.format == "csv" else export_json
        try:
            export(report, args.out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        json.dump(report.to_json_obj(), sys.stdout, indent=2, sort_keys=True)
        print()
    print(f"suite={config.suite} trials={len(report.records)} "
          f"violations={report.violations}", file=sys.stderr)
    return 0 if report.violations == 0 else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
