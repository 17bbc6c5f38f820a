"""Spans and counters around calls into cayley8, installed at run time.

Nothing in ``src/`` changes: :func:`installed` replaces each traced function
with a wrapper in every ``cayley8`` module namespace and class that binds it
(``from .tensor import wedge`` makes several bindings of one function), and
puts the originals back on exit.

A span is timed while its parent, the span that called it, is open; its
self time is its duration minus the time its child spans took.  The
wrapper's own bookkeeping counts as part of the child as seen from the
parent, so it inflates no self time.  Spans are aggregated in memory per
name: calls and self time.
"""

from __future__ import annotations

import contextlib
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.maxima: Counter[str] = Counter()
        self._stack: list[list[float]] = [[0.0]]  # child time of each open span

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before(args)`` and ``after(result)`` count."""
        stack, calls, self_time = self._stack, self.calls, self.self_time
        calls[name] += 0  # every span is reported, also one never entered
        self_time[name] += 0.0

        def wrapper(*args, **kwargs):
            outer = perf_counter()
            parent = stack[-1]
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                calls[name] += 1
                self_time[name] += elapsed - frame[0]
            if after is not None:
                after(result)
            parent[0] += perf_counter() - outer
            return result

        return wrapper

    def counter(self, name, fn, hit=None):
        """Wrap ``fn`` to count calls, and results for which ``hit`` holds."""
        counts = self.counts
        calls_key, hits_key = f"{name}.calls", f"{name}.hits"

        def wrapper(*args):
            result = fn(*args)
            counts[calls_key] += 1
            if hit is not None and hit(result):
                counts[hits_key] += 1
            return result

        return wrapper

    def maximum(self, key: str, value) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def layer_self(self) -> Counter[str]:
        """Self time summed per layer, the part of a span name before its first dot."""
        out: Counter[str] = Counter()
        for name, seconds in self.self_time.items():
            out[name.split(".")[0]] += seconds
        return out


def _modules():
    return [m for n, m in list(sys.modules.items()) if n == "cayley8" or n.startswith("cayley8.")]


def _rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every cayley8 binding of ``original`` at ``replacement``."""
    undo = []
    for module in _modules():
        for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
            if isinstance(owner, type) and owner.__module__ != module.__name__:
                continue  # a class is patched once, in its defining module
            for attr, value in list(vars(owner).items()):
                if value is original:
                    undo.append((owner, attr, value))
                    setattr(owner, attr, replacement)
    return undo


def _bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.terms.values()),
        default=0,
    )


def _plan(tracer: Tracer):
    """(function, replacement) for every traced function of cayley8."""
    from cayley8 import calculus, cli, linalg, multiindex, serialize, spin7, tensor, verify
    from cayley8.polynomial import Polynomial

    counts = tracer.counts

    def poly_pairs(args):
        a, b = args
        counts["polynomial.mul.term_pairs"] += len(a.terms) * (
            len(b.terms) if isinstance(b, Polynomial) else 1
        )

    def poly_size(result):
        if isinstance(result, Polynomial):
            tracer.maximum("polynomial.terms_max", len(result.terms))
            tracer.maximum("polynomial.coeff_bits_max", _bits(result))

    def tensor_pairs(key):
        def before(args):
            counts[key] += len(args[0].terms) * len(args[1].terms)

        return before

    spans = [
        ("polynomial.mul", Polynomial.__mul__, poly_pairs, poly_size),
        ("polynomial.add", Polynomial.__add__, None, poly_size),
        ("polynomial.diff", Polynomial.diff, None, None),
        ("tensor.wedge", tensor.wedge, tensor_pairs("tensor.wedge.term_pairs"), None),
        ("tensor.contract", tensor.contract, tensor_pairs("tensor.contract.term_pairs"), None),
        ("tensor.hodge", tensor.hodge, None, None),
        ("tensor.inner", tensor.inner, None, None),
        ("tensor.add", tensor.GradedTensor.__add__, None, None),
        ("tensor.pullback", tensor.pullback_linear, None, None),
        ("calculus.d", calculus.exterior_derivative, None, None),
        ("calculus.homotopy", calculus.homotopy_primitive, None, None),
        ("calculus.lie", calculus.lie_derivative, None, None),
        ("calculus.lie", calculus.lie_derivative_multivector, None, None),
        ("calculus.schouten", calculus.schouten, None, None),
        ("spin7.project2", spin7.project2, None, None),
        ("spin7.project3", spin7.project3, None, None),
        ("spin7.project4", spin7.project4, None, None),
        ("spin7.defining_residuals", spin7.DecompositionReport.defining_residuals, None, None),
        ("spin7.identity_report", spin7.identity_report, None, None),
        ("spin7.solve", spin7.cayley_2mvf_for, None, None),
        ("spin7.solve", spin7.cayley_3mvf_for, None, None),
        ("linalg.rref", linalg.ExactMatrix.rref, None, None),
        ("linalg.matmul", linalg.ExactMatrix.__matmul__, None, None),
        ("linalg.build", linalg.ExactMatrix.__init__, None, None),
        ("linalg.arith", linalg.ExactMatrix.__add__, None, None),
        ("linalg.arith", linalg.ExactMatrix.__sub__, None, None),
        ("linalg.arith", linalg.ExactMatrix.__mul__, None, None),
        ("serialize.load", serialize.document_to_tensor, None, None),
        ("serialize.dump", serialize.tensor_to_document, None, None),
        ("serialize.dump", serialize.polynomial_to_document, None, None),
        ("cli", cli.main, None, None),
        ("verify", verify.run_checks, None, None),
    ]
    plan = [(fn, tracer.span(name, fn, before, after)) for name, fn, before, after in spans]
    plan += [
        (
            multiindex.merge_sign,
            tracer.counter("multiindex.merge_sign", multiindex.merge_sign, lambda r: r[1] != 0),
        ),
        (
            multiindex.contraction,
            tracer.counter("multiindex.contraction", multiindex.contraction, lambda r: r is not None),
        ),
        (
            multiindex.canonicalize,
            tracer.counter("multiindex.canonicalize", multiindex.canonicalize),
        ),
    ]
    return plan


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace calls into cayley8 while the block runs."""
    undo = []
    try:
        for original, replacement in _plan(tracer):
            undo += _rebind(original, replacement)
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

