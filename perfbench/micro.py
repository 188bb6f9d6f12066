"""Micro-benchmarks of single layers on operands taken from a workload.

Each operation is timed over a fixed list of operand pairs drawn from the
workload's own data (gauge entries, Lie generators, system matrices), and
the median of a few sweeps is reported per call.
"""

import statistics
import time

from varred.matrices import SpanQQ, comm
from varred.poly import poly_gcd

_MAX_PAIRS = 40


def _pairs(items):
    n = len(items)
    if n == 0:
        return []
    return [(items[i % n], items[(i * 7 + 3) % n]) for i in range(min(_MAX_PAIRS, n * n))]


def _per_call(fn, args, min_sweep=0.05, sweeps=5):
    """Median over `sweeps` of the time per call of fn(*a) for a in args."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            for a in args:
                fn(*a)
        if time.perf_counter() - t0 >= min_sweep or reps >= 1 << 12:
            break
        reps *= 2
    times = []
    for _ in range(sweeps):
        t0 = time.perf_counter()
        for _ in range(reps):
            for a in args:
                fn(*a)
        times.append((time.perf_counter() - t0) / (reps * len(args)))
    return statistics.median(times)


def _spanqq_fill(vectors):
    span = SpanQQ(len(vectors[0]))
    for v in vectors:
        span.add(v)


def run(operands):
    """{metric name: value} for the micro-benchmarks of one workload.

    operands holds "ratfuns" (nonzero RatFun), "constmats" (ConstMat of one
    size) and "ratmat_pair" (two RatMat that can be multiplied).
    """
    rf = _pairs(operands["ratfuns"])
    polys = [f.num for f in operands["ratfuns"]] + [f.den for f in operands["ratfuns"]
                                                     if not f.den.is_one]
    pp = _pairs(polys)
    # divide the larger by the smaller, never by a constant
    div = [(a, b) if a.degree >= b.degree else (b, a) for a, b in pp]
    div = [(a, b) for a, b in div if b.degree]
    mats = operands["constmats"]
    vectors = [m.flatten() for m in mats]
    a, b = operands["ratmat_pair"]
    out = {
        "poly.mul_us": _per_call(lambda x, y: x * y, pp) * 1e6,
        "poly.divmod_us": _per_call(lambda x, y: x.divmod(y), div) * 1e6 if div else 0.0,
        "poly.gcd_us": _per_call(poly_gcd, pp) * 1e6,
        "ratfun.add_us": _per_call(lambda x, y: x + y, rf) * 1e6,
        "ratfun.mul_us": _per_call(lambda x, y: x * y, rf) * 1e6,
        "ratfun.derivative_us": _per_call(lambda x, y: x.derivative(), rf) * 1e6,
        "matrices.comm_us": _per_call(comm, _pairs(mats)) * 1e6,
        "matrices.spanqq_add_us": _per_call(_spanqq_fill, [(vectors,)]) * 1e6 / len(vectors),
        "matrices.ratmat_mul_ms": _per_call(lambda x, y: x * y, [(a, b)], min_sweep=0.0,
                                            sweeps=3) * 1e3,
    }
    return out
