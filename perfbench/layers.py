"""Per-layer metrics: which names of `varred` are traced, and how spans
and counters become the metrics listed under `per_layer` in BENCHMARK.json.

The layers are the modules of `varred`.  Times are seconds per pass (the
mean over the traced passes of a run); counts are per pass and repeat
exactly, because every pass does the same work.
"""

from varred import (
    fileformats,
    gauge,
    liealgebra,
    matrices,
    poly,
    ratfun,
    reduction,
    varequations,
)

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "reduction.order1.s": ("s", "lower"),
    "reduction.order2.s": ("s", "lower"),
    "reduction.order3.s": ("s", "lower"),
    "reduction.reduce_diagonal.s": ("s", "lower"),
    "reduction.remove_generator.calls": ("count", "lower"),
    "reduction.remove_generator.s": ("s", "lower"),
    "reduction.reduce_subdiagonal.self_s": ("s", "lower"),
    "reduction.picard_vessiot_tower.s": ("s", "lower"),
    "reduction.steps.chain_removal": ("count", "higher"),
    "reduction.steps.hermite_partial": ("count", "higher"),
    "reduction.steps.unresolved": ("count", "lower"),
    "reduction.gauge_ratio": ("ratio", "higher"),
    "gauge.apply_gauge.calls": ("count", "lower"),
    "gauge.apply_gauge.s": ("s", "lower"),
    "gauge.sym_power_group.s": ("s", "lower"),
    "gauge.exp_sub_nilpotent.calls": ("count", "lower"),
    "liealgebra.DualFrame.coords.calls": ("count", "lower"),
    "liealgebra.DualFrame.coords.s": ("s", "lower"),
    "liealgebra.wei_norman.calls": ("count", "lower"),
    "liealgebra.wei_norman.s": ("s", "lower"),
    "liealgebra.lie_closure.calls": ("count", "lower"),
    "liealgebra.lie_closure.s": ("s", "lower"),
    "liealgebra.lie_closure.max_dim": ("count", "lower"),
    "liealgebra.lie_closure.useful_ratio": ("ratio", "higher"),
    "ratfun.hermite_split.calls": ("count", "lower"),
    "ratfun.hermite_split.s": ("s", "lower"),
    "ratfun.solve_first_order_rational.calls": ("count", "lower"),
    "ratfun.solve_first_order_rational.s": ("s", "lower"),
    "ratfun.solve_first_order_rational.hit_ratio": ("ratio", "higher"),
    "ratfun.add.calls": ("count", "lower"),
    "ratfun.mul.calls": ("count", "lower"),
    "ratfun.derivative.calls": ("count", "lower"),
    "poly.gcd.calls": ("count", "lower"),
    "poly.factor_irreducible.calls": ("count", "lower"),
    "poly.factor_irreducible.s": ("s", "lower"),
    "poly.mul.calls": ("count", "lower"),
    "poly.divmod.calls": ("count", "lower"),
    "matrices.comm.calls": ("count", "lower"),
    "matrices.SpanQQ.add.calls": ("count", "lower"),
    "matrices.RatMat.mul.calls": ("count", "lower"),
    "matrices.max_num_degree": ("count", "lower"),
    "matrices.max_bit_height": ("bits", "lower"),
    "fileformats.parse_system.s": ("s", "lower"),
    "fileformats.render_report.s": ("s", "lower"),
    "varequations.build_lve.s": ("s", "lower"),
    "poly.mul_us": ("us", "lower"),
    "poly.divmod_us": ("us", "lower"),
    "poly.gcd_us": ("us", "lower"),
    "ratfun.add_us": ("us", "lower"),
    "ratfun.mul_us": ("us", "lower"),
    "ratfun.derivative_us": ("us", "lower"),
    "matrices.comm_us": ("us", "lower"),
    "matrices.spanqq_add_us": ("us", "lower"),
    "matrices.ratmat_mul_ms": ("ms", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.accounted_frac": ("frac", "higher"),
}

PASS_ROOT = "bench.pass"
SETUP_ROOT = "bench.setup"


def _bit_height(f):
    return max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for p in (f.num, f.den) for c in p.coeffs)


def _note_sizes(tracer, mats):
    deg = tracer.counts.get("sizes.max_num_degree", 0)
    bits = tracer.counts.get("sizes.max_bit_height", 0)
    for m in mats:
        for row in m.data:
            for f in row:
                if not f.is_zero:
                    deg = max(deg, f.num.degree)
                    bits = max(bits, _bit_height(f))
    tracer.counts["sizes.max_num_degree"] = deg
    tracer.counts["sizes.max_bit_height"] = bits


def _on_reduce_diagonal(tracer, rec, args, result):
    rec[5] = {"order": args[0].order}


def _on_reduce_subdiagonal(tracer, rec, args, report):
    rec[5] = {"order": report.order}
    for st in report.steps:
        tracer.bump("steps." + st.kind)
    _note_sizes(tracer, [report.final_matrix, report.total_gauge.p, report.total_gauge.p_inv])


def _on_remove_generator(tracer, rec, args, result):
    tracer.bump("remove_generator.visited")
    if result[1].gauge is not None:
        tracer.bump("remove_generator.gauged")


def _on_solve(tracer, rec, args, result):
    if result is not None:
        tracer.bump("solve.hits")


def _on_lie_closure(tracer, rec, args, lie):
    tracer.counts["lie.max_dim"] = max(tracer.counts.get("lie.max_dim", 0), lie.dim)
    tracer.bump("lie.useful", lie.dim - lie.n_generators)


def plan(tracer):
    """Register every wrapper; call after `varred` is imported."""
    sf = tracer.span_function
    sf(reduction, "reduce_block_systems", "reduction.reduce_block_systems")
    sf(reduction, "reduce_diagonal", "reduction.reduce_diagonal", _on_reduce_diagonal)
    sf(reduction, "reduce_subdiagonal", "reduction.reduce_subdiagonal", _on_reduce_subdiagonal)
    sf(reduction, "remove_generator", "reduction.remove_generator", _on_remove_generator)
    sf(reduction, "picard_vessiot_tower", "reduction.picard_vessiot_tower")
    sf(gauge, "apply_gauge", "gauge.apply_gauge")
    sf(gauge, "sym_power_group", "gauge.sym_power_group")
    sf(liealgebra, "wei_norman", "liealgebra.wei_norman")
    sf(liealgebra, "lie_closure", "liealgebra.lie_closure", _on_lie_closure)
    tracer.span_method(liealgebra.DualFrame, "coords", "liealgebra.DualFrame.coords")
    sf(ratfun, "hermite_split", "ratfun.hermite_split")
    sf(ratfun, "solve_first_order_rational", "ratfun.solve_first_order_rational", _on_solve)
    sf(poly, "factor_irreducible", "poly.factor_irreducible")
    sf(fileformats, "parse_system", "fileformats.parse_system")
    sf(fileformats, "render_report", "fileformats.render_report")
    sf(varequations, "build_lve", "varequations.build_lve")

    cf = tracer.count_function
    cf(gauge, "exp_sub_nilpotent", "gauge.exp_sub_nilpotent.calls")
    cf(poly, "poly_gcd", "poly.gcd.calls", only_in={"varred.ratfun"})
    cf(matrices, "comm", "matrices.comm.calls", inner={"liealgebra.lie_closure": "lie.brackets"})
    cm = tracer.count_method
    cm(ratfun.RatFun, "__add__", "ratfun.add.calls")
    cm(ratfun.RatFun, "__mul__", "ratfun.mul.calls")
    cm(ratfun.RatFun, "derivative", "ratfun.derivative.calls")
    cm(poly.Poly, "__mul__", "poly.mul.calls")
    cm(poly.Poly, "divmod", "poly.divmod.calls")
    cm(matrices.SpanQQ, "add", "matrices.SpanQQ.add.calls")
    cm(matrices.RatMat, "__mul__", "matrices.RatMat.mul.calls")


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(tracer, n_passes, traced_wall, untraced_wall):
    """Per-layer metric values from a tracer that saw `n_passes` traced passes
    (plus one traced set-up); the wall times are scaled medians per pass."""
    selfs = tracer.self_times()
    dur = {}
    self_sum = {}
    order_s = {1: 0.0, 2: 0.0, 3: 0.0}
    in_pass = {}
    for sid, parent, name, start, end, attrs in tracer.spans:
        root = in_pass[parent] if parent is not None else (name == PASS_ROOT)
        in_pass[sid] = root
        if not root and name != "fileformats.parse_system" and name != "varequations.build_lve":
            continue
        per = 1.0 if not root else 1.0 / n_passes
        dur[name] = dur.get(name, 0.0) + (end - start) * per
        self_sum[name] = self_sum.get(name, 0.0) + selfs[sid] * per
        if attrs and name in ("reduction.reduce_diagonal", "reduction.reduce_subdiagonal"):
            order = attrs["order"]
            order_s[order] = order_s.get(order, 0.0) + (end - start) * per
    c = {k: v / n_passes for k, v in tracer.counts.items()}

    def calls(name):
        return sum(1 for s in tracer.spans if s[2] == name and in_pass[s[0]]) / n_passes

    pass_wall = dur.get(PASS_ROOT, 0.0)
    layer_self = pass_wall - self_sum.get(PASS_ROOT, 0.0)
    out = {
        "reduction.order1.s": order_s[1],
        "reduction.order2.s": order_s[2],
        "reduction.order3.s": order_s[3],
        "reduction.reduce_diagonal.s": dur.get("reduction.reduce_diagonal", 0.0),
        "reduction.remove_generator.calls": calls("reduction.remove_generator"),
        "reduction.remove_generator.s": dur.get("reduction.remove_generator", 0.0),
        "reduction.reduce_subdiagonal.self_s": self_sum.get("reduction.reduce_subdiagonal", 0.0),
        "reduction.picard_vessiot_tower.s": dur.get("reduction.picard_vessiot_tower", 0.0),
        "reduction.steps.chain_removal": c.get("steps.chain-removal", 0),
        "reduction.steps.hermite_partial": c.get("steps.hermite-partial", 0),
        "reduction.steps.unresolved": c.get("steps.unresolved", 0),
        "reduction.gauge_ratio": _ratio(c.get("remove_generator.gauged", 0),
                                        c.get("remove_generator.visited", 0)),
        "gauge.apply_gauge.calls": calls("gauge.apply_gauge"),
        "gauge.apply_gauge.s": dur.get("gauge.apply_gauge", 0.0),
        "gauge.sym_power_group.s": dur.get("gauge.sym_power_group", 0.0),
        "gauge.exp_sub_nilpotent.calls": c.get("gauge.exp_sub_nilpotent.calls", 0),
        "liealgebra.DualFrame.coords.calls": calls("liealgebra.DualFrame.coords"),
        "liealgebra.DualFrame.coords.s": dur.get("liealgebra.DualFrame.coords", 0.0),
        "liealgebra.wei_norman.calls": calls("liealgebra.wei_norman"),
        "liealgebra.wei_norman.s": dur.get("liealgebra.wei_norman", 0.0),
        "liealgebra.lie_closure.calls": calls("liealgebra.lie_closure"),
        "liealgebra.lie_closure.s": dur.get("liealgebra.lie_closure", 0.0),
        "liealgebra.lie_closure.max_dim": tracer.counts.get("lie.max_dim", 0),
        "liealgebra.lie_closure.useful_ratio": _ratio(c.get("lie.useful", 0),
                                                      c.get("lie.brackets", 0)),
        "ratfun.hermite_split.calls": calls("ratfun.hermite_split"),
        "ratfun.hermite_split.s": dur.get("ratfun.hermite_split", 0.0),
        "ratfun.solve_first_order_rational.calls": calls("ratfun.solve_first_order_rational"),
        "ratfun.solve_first_order_rational.s": dur.get("ratfun.solve_first_order_rational", 0.0),
        "ratfun.solve_first_order_rational.hit_ratio": _ratio(
            c.get("solve.hits", 0), calls("ratfun.solve_first_order_rational")),
        "ratfun.add.calls": c.get("ratfun.add.calls", 0),
        "ratfun.mul.calls": c.get("ratfun.mul.calls", 0),
        "ratfun.derivative.calls": c.get("ratfun.derivative.calls", 0),
        "poly.gcd.calls": c.get("poly.gcd.calls", 0),
        "poly.factor_irreducible.calls": calls("poly.factor_irreducible"),
        "poly.factor_irreducible.s": dur.get("poly.factor_irreducible", 0.0),
        "poly.mul.calls": c.get("poly.mul.calls", 0),
        "poly.divmod.calls": c.get("poly.divmod.calls", 0),
        "matrices.comm.calls": c.get("matrices.comm.calls", 0),
        "matrices.SpanQQ.add.calls": c.get("matrices.SpanQQ.add.calls", 0),
        "matrices.RatMat.mul.calls": c.get("matrices.RatMat.mul.calls", 0),
        "matrices.max_num_degree": tracer.counts.get("sizes.max_num_degree", 0),
        "matrices.max_bit_height": tracer.counts.get("sizes.max_bit_height", 0),
        "fileformats.parse_system.s": dur.get("fileformats.parse_system", 0.0),
        "fileformats.render_report.s": dur.get("fileformats.render_report", 0.0),
        "varequations.build_lve.s": dur.get("varequations.build_lve", 0.0),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.accounted_frac": _ratio(layer_self, pass_wall),
    }
    return out
