"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, hands roelcke only those
inputs, and yields its items in rounds: a run measures whole rounds, so every
run sees the same mix however long it lasts.  Items are plain indices, so a
traced pass can replay exactly the items an untraced pass measured.  Calls
look roelcke's functions up on their module at call time, so the tracer's
rebinding reaches them.

Why each workload exists is written down in README.md next to this file.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
CLI_REFERENCE = BENCH_DIR / "cli_reference.json"


class MissingSource(RuntimeError):
    """The checkout holds no roelcke sources to benchmark."""


def import_roelcke():
    """Import roelcke from this checkout's src/, and no other copy."""
    if not (SRC / "roelcke" / "__init__.py").is_file():
        raise MissingSource(f"no roelcke package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import roelcke
    import roelcke.cli

    if Path(roelcke.__file__).resolve().parent != SRC / "roelcke":
        raise MissingSource(f"imported roelcke from {roelcke.__file__}, not {SRC}")
    return roelcke


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def set_partitions(n: int) -> list[tuple[int, ...]]:
    """All set partitions of n atoms as restricted-growth label tuples."""
    out = []

    def rec(prefix: list[int], used: int) -> None:
        if len(prefix) == n:
            out.append(tuple(1 + v for v in prefix))
            return
        for v in range(used + 1):
            rec(prefix + [v], max(used, v + 1))

    rec([], 0)
    return out


class OrderSmall:
    """Seeded uniform sample of the criterion-6 population of idempotent pairs."""

    name = "order-small"
    in_process = True

    def setup(self, seed: int) -> None:
        from roelcke import semigroup, space

        self.seed = seed
        self.semigroup = semigroup
        self.labels = {n: set_partitions(n) for n in range(2, 7)}
        self.blocks = {
            n: [semigroup.block_average(space.make_partition(space.AtomSpace(n), lab))
                for lab in labs]
            for n, labs in self.labels.items()
        }
        # Cumulative pair counts, N = 2..6: 4, 29, 254, 2958, 44167.
        self.strata = []
        total = 0
        for n, labs in self.labels.items():
            total += len(labs) ** 2
            self.strata.append((total, n))
        self.population = total

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            k = rng.randrange(self.population)
            lower = 0
            for upper, n in self.strata:
                if k < upper:
                    i, j = divmod(k - lower, len(self.labels[n]))
                    yield [(n, i, j)]
                    break
                lower = upper

    def call(self, item):
        n, i, j = item
        return self.semigroup.order_check(self.blocks[n][i], self.blocks[n][j])

    def weight(self, item) -> int:
        return 1

    def check(self, item, out) -> str | None:
        n, i, j = item
        return oracles.check_order(self.labels[n][i], self.labels[n][j], out)


class MarkovDense:
    """Products of dense 32x32 doubly stochastic matrices with large denominators."""

    name = "markov-dense"
    in_process = True
    size = 32
    pool_size = 16  # 240 distinct ordered pairs, so a run repeats none

    def setup(self, seed: int) -> None:
        from roelcke import markov, sampling

        self.seed = seed
        self.markov = markov
        rng = random.Random(seed)
        self.pool = [sampling.random_markov(rng, self.size, terms=4)
                     for _ in range(self.pool_size)]
        self.pairs = [(a, b) for a in range(self.pool_size)
                      for b in range(self.pool_size) if a != b]
        rng.shuffle(self.pairs)
        self.vectors = random.Random(seed + 1)

    def rounds(self):
        while True:
            for pair in self.pairs:
                yield [pair]

    def call(self, item):
        a, b = item
        return self.markov.product(self.pool[a], self.pool[b])

    def weight(self, item) -> int:
        return 1

    def check(self, item, out) -> str | None:
        a, b = item
        v = [self.vectors.randrange(-10**6, 10**6 + 1) for _ in range(self.size)]
        return oracles.check_product(self.pool[a], self.pool[b], out, v)


# The criterion-2 oracle cases: (atoms, labels, epsilon).
ORACLE_CASES = (
    (4, (1, 1, 2, 2), Fraction(1, 2)),
    (4, (1, 1, 2, 2), Fraction(3, 4)),
    (4, (1, 1, 2, 2), Fraction(9, 10)),
    (4, (1, 1, 1, 2), Fraction(9, 10)),
    (5, (1, 1, 2, 2, 2), Fraction(9, 10)),
    (5, (1, 2, 2, 2, 2), Fraction(9, 10)),
    (6, (1, 1, 1, 2, 2, 2), Fraction(3, 4)),
    (6, (1, 1, 2, 2, 2, 2), Fraction(3, 4)),
)


class FactorOracle:
    """The exhaustive left-factor scans of criterion 2, one call per case.

    A round is the six small cases plus one of the two six-atom cases (each
    about 21 s at the seed), in seeded order; successive rounds alternate
    the six-atom case.
    """

    name = "factor-oracle"
    in_process = True

    def setup(self, seed: int) -> None:
        from roelcke import factorization, space

        self.seed = seed
        self.factorization = factorization
        self.partitions = [space.make_partition(space.AtomSpace(n), labels)
                           for n, labels, _ in ORACLE_CASES]
        self.references: dict[int, tuple[Fraction, int]] = {}

    def rounds(self):
        rng = random.Random(self.seed)
        small = [k for k, case in enumerate(ORACLE_CASES) if case[0] < 6]
        large = [k for k, case in enumerate(ORACLE_CASES) if case[0] == 6]
        first = rng.randrange(len(large))
        r = 0
        while True:
            cases = small + [large[(first + r) % len(large)]]
            rng.shuffle(cases)
            yield cases
            r += 1

    def call(self, item):
        return self.factorization.exhaustive_left_factor_scan(
            self.partitions[item], ORACLE_CASES[item][2]
        )

    def reference(self, item) -> tuple[Fraction, int]:
        if item not in self.references:
            self.references[item] = oracles.scan_reference(*ORACLE_CASES[item])
        return self.references[item]

    def weight(self, item) -> int:
        return self.reference(item)[1]

    def check(self, item, out) -> str | None:
        return oracles.check_scan(self.reference(item), out)


# Suites run at their defaults, except where the default is outside the
# suite's working regime: dichotomy only classifies up to six atoms (its
# default of 16 exits 1 with a traceback), and net gets a finer grid.
SUITE_ARGS = {
    "forward": (), "backward": (), "realize": (), "birkhoff": (), "cesaro": (),
    "dichotomy": ("--atoms", "6"), "psd": (), "modulus": (),
    "net": ("--atoms", "32", "--epsilon", "1/16"),
}
CLI_SEEDS = range(5)


def cli_argv(suite: str, seed: int, out: str) -> list[str]:
    return ["--suite", suite, "--seed", str(seed), *SUITE_ARGS[suite], "--out", out]


def spawn(cmd: list[str]) -> tuple[int, float, int, str]:
    """Run one child to completion: (exit code, wall s, peak RSS KiB, stderr)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        stderr = proc.stderr.read()
    finally:
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss, stderr.decode(errors="replace")


class CliCold:
    """One fresh `python -m roelcke.cli` process per item."""

    name = "cli-cold"
    in_process = False

    def setup(self, seed: int) -> None:
        from roelcke import cli

        self.seed = seed
        if set(SUITE_ARGS) != set(cli.SUITES):
            raise RuntimeError(f"suites changed: {sorted(cli.SUITES)}")
        with open(CLI_REFERENCE) as fh:
            self.reference = json.load(fh)["digests"]
        self.tmp = RESULTS / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.peak_rss_kib = 0

    def rounds(self):
        rng = random.Random(self.seed)
        r = 0
        while True:
            suites = list(SUITE_ARGS)
            rng.shuffle(suites)
            k = CLI_SEEDS[(self.seed + r) % len(CLI_SEEDS)]
            yield [(suite, k) for suite in suites]
            r += 1

    def call(self, item, tracer=None):
        suite, k = item
        out = str(self.tmp / f"{suite}-{k}.json")
        if tracer is None:
            cmd = [sys.executable, "-m", "roelcke.cli", *cli_argv(suite, k, out)]
        else:
            spans = str(self.tmp / f"{suite}-{k}.spans.json")
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), spans,
                   *cli_argv(suite, k, out)]
        code, wall, rss, stderr = spawn(cmd)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        if tracer is not None and code == 0:
            with open(spans) as fh:
                child = json.load(fh)
            os.unlink(spans)
            tracer.merge_child(child["spans"], child["roots"], child["counts"],
                               "call", wall)
        return code, out, stderr

    def weight(self, item) -> int:
        return 1

    def check(self, item, out) -> str | None:
        code, path, stderr = out
        suite, k = item
        problem = oracles.check_cli(code, path, self.reference[suite][str(k)])
        if os.path.exists(path):
            os.unlink(path)
        if problem and code != 0:
            problem += ": " + stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return problem

    def close(self) -> None:
        for leftover in self.tmp.iterdir():
            leftover.unlink()
        self.tmp.rmdir()


WORKLOADS = {w.name: w for w in (OrderSmall, MarkovDense, FactorOracle, CliCold)}
