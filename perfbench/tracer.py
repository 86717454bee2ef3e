"""Span tracing of roelcke's public functions, installed from outside the package.

`Tracer.install` rebinds each traced function on every ``roelcke`` module
that holds it, so names re-imported across modules (``semigroup.product``,
``factorization.u_deviation``, ``cli.w_distance`` ...) are covered, and
replaces the ``__post_init__`` validators of ``Automorphism`` and
``MarkovMatrix``.  `Tracer.uninstall` restores every original binding, so
untraced runs never execute a wrapper.

Spans are aggregated in memory by (name, parent name): an N = 6 oracle scan
opens several million of them.  A span's self time is its duration minus the
durations of its direct children.  Every span also adds its self time to the
root span it runs under, which lets `self_sum` check that the self times of a
root's subtree add up to the root's own duration.
"""
from __future__ import annotations

import importlib
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Module -> public functions traced in it.  The two class names stand for the
# constructor validation in their ``__post_init__``.
TARGETS = {
    "space": ("Automorphism", "compose", "joint_counts", "joint_matrix"),
    "markov": ("MarkovMatrix", "check_markov", "product", "convex_combination",
               "compress"),
    "uniformity": ("u_deviation", "w_distance", "precompactness_net"),
    "factorization": ("factorize", "exhaustive_left_factor_scan",
                      "forward_bound_check", "budget_identity"),
    "density": ("realize", "birkhoff"),
    "semigroup": ("order_check", "is_idempotent", "block_average",
                  "cesaro_idempotent", "invariant_idempotent_classify"),
    "wap": ("gram_psd_check", "roelcke_modulus_check"),
    "sampling": ("random_permutation", "random_small_deviation", "random_markov"),
    "cli": ("run_suite", "export_json"),
}
CLASSES = {"Automorphism", "MarkovMatrix"}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in TARGETS.items() for f in fns)

SENTINEL = "<root>"
OBSERVE = "trace.observe"


class Counts:
    """Exact counts taken from the return values seen at the wrappers."""

    def __init__(self) -> None:
        self.mul_adds = 0
        self.den_bits: Counter[int] = Counter()
        self.scanned = 0
        self.scan_space = 0
        self.factorize_calls = 0
        self.nonzero_leftover = 0
        self.cesaro_reports = 0
        self.cesaro_iterations = 0

    def product(self, args, result) -> None:
        # Denominators are counted over nonzero entries: a zero's
        # denominator of 1 says nothing about the arithmetic's size.
        self.mul_adds += result.size ** 3
        bits = self.den_bits
        for row in result.entries:
            for v in row:
                if v:
                    bits[v.denominator.bit_length()] += 1

    def scan(self, args, result) -> None:
        n_fact = math.factorial(args[0].space.atom_count)
        self.scanned += result[1]
        self.scan_space += n_fact * n_fact

    def factorize(self, args, result) -> None:
        self.factorize_calls += 1
        if result.leftover_mass != 0:
            self.nonzero_leftover += 1

    def cesaro(self, args, result) -> None:
        self.cesaro_reports += 1
        self.cesaro_iterations += result.iterations

    def merge(self, other: dict) -> None:
        for key, value in other.items():
            if key == "den_bits":
                self.den_bits.update({int(k): v for k, v in value.items()})
            else:
                setattr(self, key, getattr(self, key) + value)

    def to_json_obj(self) -> dict:
        out = dict(vars(self))
        out["den_bits"] = {str(k): v for k, v in sorted(self.den_bits.items())}
        return out

    def den_bits_p50(self) -> float:
        total = sum(self.den_bits.values())
        if not total:
            return 0.0
        seen = 0
        for bits in sorted(self.den_bits):
            seen += self.den_bits[bits]
            if 2 * seen >= total:
                return float(bits)
        raise AssertionError("unreachable")


class Tracer:
    def __init__(self) -> None:
        # A frame is [name, child seconds, root accumulator]; the root
        # accumulator is a one-element list shared by a root span's subtree.
        self._stack: list[list] = [[SENTINEL, 0.0, [0.0]]]
        self.agg: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.roots: dict[str, list] = {}  # root name -> [total_s, subtree self_s]
        self.counts = Counts()
        self._undo: list[tuple[object, str, object]] = []

    def _close(self, name: str, parent: list, frame: list, elapsed: float) -> None:
        parent[1] += elapsed
        own = elapsed - frame[1]
        frame[2][0] += own
        rec = self.agg.get((name, parent[0]))
        if rec is None:
            rec = self.agg[(name, parent[0])] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += own
        if parent[0] == SENTINEL:
            root = self.roots.setdefault(name, [0.0, 0.0])
            root[0] += elapsed
            root[1] += frame[2][0]

    def wrap(self, name: str, fn, observe=None):
        stack, clock, close = self._stack, time.perf_counter, self._close

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, [0.0] if parent[0] == SENTINEL else parent[2]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                close(name, parent, frame, elapsed)
            if observe is not None:
                # Counting is a span of its own, so it never inflates the
                # self time of the layer it observes.
                obs = [OBSERVE, 0.0, parent[2]]
                start = clock()
                observe(args, result)
                close(OBSERVE, parent, obs, clock() - start)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. the top-level call."""
        parent = self._stack[-1]
        frame = [name, 0.0, [0.0] if parent[0] == SENTINEL else parent[2]]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._close(name, parent, frame, elapsed)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        observers = {
            "markov.product": self.counts.product,
            "factorization.exhaustive_left_factor_scan": self.counts.scan,
            "factorization.factorize": self.counts.factorize,
            "semigroup.cesaro_idempotent": self.counts.cesaro,
        }
        for mod_name, fns in TARGETS.items():
            module = importlib.import_module(f"roelcke.{mod_name}")
            for fn_name in fns:
                span = f"{mod_name}.{fn_name}"
                if fn_name in CLASSES:
                    cls = getattr(module, fn_name)
                    original = cls.__dict__["__post_init__"]
                    self._rebind(cls, "__post_init__", original,
                                 self.wrap(span, original))
                    continue
                original = getattr(module, fn_name)
                wrapper = self.wrap(span, original, observers.get(span))
                for holder in _roelcke_modules():
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._rebind(holder, attr, original, wrapper)

    def _rebind(self, holder, attr: str, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self._undo.append((holder, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def spans(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "calls": rec[0],
             "total_s": rec[1], "self_s": rec[2]}
            for (name, parent), rec in sorted(self.agg.items())
        ]

    def merge_child(self, spans: list[dict], roots: dict, counts: dict,
                    root: str, wall_s: float) -> None:
        """Graft a traced child process's spans under one root span here.

        The root's duration is the child's wall time as the parent saw it;
        what the child's own spans do not cover (interpreter start, import,
        exit) is the root's self time.
        """
        covered = 0.0
        for s in spans:
            parent = root if s["parent"] == SENTINEL else s["parent"]
            rec = self.agg.setdefault((s["name"], parent), [0, 0.0, 0.0])
            rec[0] += s["calls"]
            rec[1] += s["total_s"]
            rec[2] += s["self_s"]
            if s["parent"] == SENTINEL:
                covered += s["total_s"]
        own = wall_s - covered
        rec = self.agg.setdefault((root, SENTINEL), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += wall_s
        rec[2] += own
        agg_root = self.roots.setdefault(root, [0.0, 0.0])
        agg_root[0] += wall_s
        agg_root[1] += own + sum(r[1] for r in roots.values())
        self.counts.merge(counts)

    def self_sum(self, root: str) -> tuple[float, float]:
        """(duration of all `root` spans, sum of self times in their subtrees)."""
        total, subtree = self.roots.get(root, (0.0, 0.0))
        return total, subtree

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Calls and self seconds of each traced function, over all parents."""
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        for (name, _parent), rec in self.agg.items():
            if name in out:
                out[name][0] += rec[0]
                out[name][1] += rec[2]
        return {name: (v[0], v[1]) for name, v in out.items()}

    def per_order_check(self) -> float:
        """is_idempotent calls made directly by order_check, per order_check."""
        checks = sum(rec[0] for (name, _), rec in self.agg.items()
                     if name == "semigroup.order_check")
        inner = self.agg.get(("semigroup.is_idempotent", "semigroup.order_check"))
        return inner[0] / checks if checks and inner else 0.0


def _roelcke_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "roelcke" or name.startswith("roelcke."))]
