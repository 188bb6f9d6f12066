"""Partial reduction of block-triangular variational systems.

The entry point is reduce_variational_tower, which walks the orders of a
variational hierarchy: at each order the diagonal blocks are reduced by
recycling the gauges of the lower orders, and the subdiagonal block is then
cleaned by one scalar sweep along the adjoint chains of the diagonal term.
Every elimination is recorded as a ReductionStep, and the report carries
the total gauge P = Q (Id + S), the assembly gauge Q followed by the
sweep's Id + S, which carries the initial matrix A to the final matrix F
exactly.  Each factor is replayed once, Q before the sweep and Id + S
after it (see reduce_block_systems).  Above order 1, P is kept in block
form (gauge.BlockGauge), P = [[T, 0], [L, R]] with T = Sym^m(p1) and R the
total gauge of the order below, and it is assembled, composed and replayed
block by block: no product of the order's full size is formed, and P is
multiplied out only for a caller who reads it.
The scalar rule of one chain position is written once, in _sweep_chains;
remove_generator, the one-gauge-at-a-time reference, calls it too.

What cannot be removed is kept honestly: Hermite residues with simple poles
stay as coefficients of their generators, and they are what a later
obstruction certificate points at.

reduce_block_systems (around all its orders), reduce_subdiagonal and
remove_generator each run in a poly.shared_factors() block, so the
denominators, characteristic polynomials and log-derivative integrands of
one run are factored over one pole base: a few factors met early, so trial
division replaces a full factorization.

The phases call errors.check_deadline(); reduce_block_systems runs under
errors.time_budget(max_seconds), and a caller of any other entry point
bounds it by entering a time_budget itself.
"""

from dataclasses import dataclass, field

from .errors import (
    PreconditionFailure,
    ReductionTimeout,
    UnsupportedRegime,
    check_deadline,
    time_budget,
)
from .gauge import (
    BlockGauge,
    GaugeMatrix,
    apply_gauge,
    exp_sub_nilpotent,
    sym_power_algebra,
    sym_power_group,
)
from .liealgebra import (
    DualFrame,
    LieBasis,
    WeiNormanDecomp,
    lie_closure,
    split_diag_sub,
    wei_norman,
)
from .matrices import (
    ConstMat,
    RatMat,
    comm,
    kernel_chains,
    nilpotent_jordan_chains,
    rational_eigenvalues,
    trace_shows_not_nilpotent,
)
from .poly import factor_irreducible, shared_factors
from .rationals import QQ0
from .ratfun import (
    RatFun,
    as_log_derivative,
    hermite_split,
    solve_first_order_rational,
)
from .varequations import BlockSystem, build_lve

_RF_ZERO = RatFun.const(0)
_RF_ONE = RatFun.const(1)


# ---- recorded steps ----------------------------------------------------------


@dataclass
class ReductionStep:
    """One recorded frame change (or the refusal to make one).

    kind is "diagonal-assembly" for the block-diagonal gauge that recycles
    the lower-order reductions, "chain-removal" when a generator coefficient
    was removed completely, "hermite-partial" when only the derivative
    part could be removed and a simple-pole residue stays behind, and
    "unresolved" when no rational gauge removes it.  gauge is the
    BlockGauge of a diagonal-assembly step and the GaugeMatrix that
    remove_generator applied.  Elimination steps from the chain sweep carry
    no gauge of their own: the sweep applies Id + sum(solved_g * generator)
    over all of them at once, and reduce_block_systems composes the
    diagonal-assembly gauge with it.
    An unresolved step keeps (a, b) of the equation g' = a g + b that has
    no rational solution as unsolved.
    """

    kind: str
    gauge: GaugeMatrix | BlockGauge | None = None
    generator: ConstMat | None = None
    solved_g: RatFun | None = None
    residual_l: RatFun | None = None
    new_poles: list = field(default_factory=list)
    unsolved: tuple | None = None

    def note_text(self, var: str = "x") -> str:
        """Why the step is unresolved, or "" when it is not."""
        if self.unsolved is None:
            return ""
        return "no rational solution of g' = (%s) g + (%s); generator retained" % tuple(
            f.render(var) for f in self.unsolved
        )


@dataclass
class ObstructionCertificate:
    """A re-checkable witness that the final Lie algebra is non-abelian.

    witness holds two basis matrices of the final algebra whose commutator
    is the (nonzero) bracket; residuals lists the simple-pole coefficient
    parts that could not be integrated away during the reduction.
    """

    witness_indices: tuple
    witness: tuple
    bracket: ConstMat
    residuals: list


@dataclass
class TowerElement:
    """One step of the formal integral tower over the base field.

    integrand_coeff * integrand_symbol (or just the coefficient when the
    symbol is None) is the derivative of the new symbol `name`.  depth
    counts the nesting of symbols; recognized_as is a cosmetic tag
    ("log", "polylog-k" or "unclassified") and argument the function the
    tag refers to.
    """

    name: str
    depth: int
    integrand_coeff: RatFun
    integrand_symbol: str | None
    recognized_as: str
    argument: RatFun | None = None

    def integrand_text(self, var: str = "x") -> str:
        text = self.integrand_coeff.render(var)
        if self.integrand_symbol is not None:
            text = "(%s) * %s" % (text, self.integrand_symbol)
        return text


@dataclass
class ReductionReport:
    """Everything the reduction of one order produced.

    system.matrix is the matrix the reduction starts from; applying
    total_gauge to it reproduces final_matrix exactly.  total_gauge is a
    BlockGauge kept as its blocks, with .p and .p_inv multiplied out when
    first read.  assembled_matrix is the matrix the sweep starts from.
    reduce_subdiagonal reports on the system it is given: there system.matrix
    is assembled_matrix, the steps are the sweep's and total_gauge is Id + S.
    reduce_block_systems puts the order's initial system, the
    diagonal-assembly step in front and total gauge Q (Id + S) in its place.
    """

    order: int
    system: BlockSystem
    assembled_matrix: RatMat
    steps: list
    final_matrix: RatMat
    final_wei_norman: WeiNormanDecomp
    final_lie: LieBasis
    abelian: bool
    reduced_certified: bool
    certificate: ObstructionCertificate | None
    verdict: str
    tower: list | None
    total_gauge: BlockGauge
    initial_wei_norman_dim: int
    initial_lie_dim: int
    diag_dim: int
    sub_dim: int
    jordan_block_sizes: list
    residual_pole_factors: list


# ---- small helpers -----------------------------------------------------------


def _diag_projection(a: RatMat, d1: int) -> RatMat:
    top, _, _, rest = a.cut(d1)
    return RatMat.join(top, None, None, rest)


def _sub_projection(a: RatMat, d1: int) -> RatMat:
    return RatMat.join(RatMat.zeros(d1), None, a.cut(d1)[2], RatMat.zeros(a.rows - d1))


def _new_pole_factors(l: RatFun, beta0: RatFun):
    """Irreducible factors of den(l) that den(beta0) does not already carry."""
    if l is None or l.is_zero:
        return []
    base = beta0.den
    out = []
    for q, _ in factor_irreducible(l.den)[1]:
        if not (base % q).is_zero:
            out.append(q)
    return out


def _pole_factor_set(funcs):
    """Sorted irreducible denominator factors across a list of functions."""
    seen = []
    for f in funcs:
        for q, _ in factor_irreducible(f.den)[1]:
            if q not in seen:
                seen.append(q)
    seen.sort(key=lambda p: (p.degree, p.coeffs))
    return seen


# ---- diagonal assembly ---------------------------------------------------------


def reduce_diagonal(system: BlockSystem, p1: GaugeMatrix, lower, diagonal=None):
    """Reduce the diagonal blocks of one order by recycling lower gauges.

    The gauge is p1 at order 1 and Q = diag(T, R) at order m, with
    T = Sym^m(p1) and R = P_(m-1), where lower holds the reports of orders 1
    to m-1; it is recorded as a BlockGauge.  Q[A] is affine in A, so
    Q[A] = D + Q^-1 (A - B) Q with D = diag(sym^m(p1[A1]), final_(m-1)) and
    B = diag(sym^m(A1), A_(m-1)).  diagonal is D when the caller has it
    (see _check_known_diagonal).  Q^-1 (A - B) Q is formed block by block,
    for the nonzero blocks of A - B only: on a variational system that is
    the subdiagonal block, R^-1 (C T), and T^-1 is not read.  Returns the
    partially reduced system together with the recorded step; the time
    budget is checked before the products.
    """
    m, a = system.order, system.matrix
    n, d = a.rows, system.block_sizes[0]
    if m == 1:
        q = BlockGauge(p1.p.rows, p1.p.rows, p1)
    elif not lower:
        raise PreconditionFailure(
            "diagonal assembly at order %d needs the gauge of order %d" % (m, m - 1)
        )
    else:
        first, prev = lower[0], lower[-1]
        t = sym_power_group(p1.p, m)
        q = BlockGauge(
            t.rows, t.rows + prev.final_matrix.rows,
            GaugeMatrix(t, lambda: sym_power_group(p1.p_inv, m)), prev.total_gauge,
            known=(prev.system.matrix, prev.final_matrix),
        )
    if q.n != n or (m > 1 and q.d != d):
        raise PreconditionFailure(
            "diagonal gauge size %d does not match system size %d" % (q.n, n) if q.n != n
            else "diagonal gauge top block %d does not match system block %d" % (q.d, d)
        )
    step = ReductionStep(kind="diagonal-assembly", gauge=q)
    if m == 1:
        return BlockSystem(m, apply_gauge(a, p1), list(system.block_sizes)), step
    if diagonal is None:
        diagonal = _known_diagonal(m, lower)
    t, r = q.top, q.rest
    a_t, a_tr, c, a_r = a.cut(d)
    deltas = (a_t - sym_power_algebra(first.system.matrix, m), a_tr, c, a_r - prev.system.matrix)
    blocks = list(diagonal.cut(d))
    for k, (delta, left, right) in enumerate(zip(deltas, (t, t, r, r), (t, r, t, r))):
        if delta.is_zero:
            continue
        check_deadline()
        blocks[k] = blocks[k] + left.p_inv * (delta * right.p)
    return BlockSystem(m, RatMat.join(*blocks), list(system.block_sizes)), step


# ---- one elimination gauge -----------------------------------------------------


@shared_factors()
def remove_generator(
    a: RatMat,
    d1: int,
    beta0: RatFun,
    subframe: DualFrame,
    index: int,
    lam=QQ0,
    coords=None,
):
    """Try to remove the coefficient of one subdiagonal generator.

    The generator is subframe.basis[index]; lam is the eigenvalue of the
    diagonal adjoint on it.  _sweep_chains solves for g on a chain of this
    one position; a nonzero g is applied as the gauge exp(g * generator).

    Returns (new matrix, step, coordinates of the new subdiagonal part).
    Postconditions are checked: the target coefficient equals the recorded
    residue and the diagonal blocks are untouched.  This is the one-gauge
    reference for the chain sweep of reduce_subdiagonal: called position by
    position down every chain, it reads each coefficient back from the
    gauged matrix and applies one gauge at a time, not one Id + S.
    """
    if coords is None:
        coords = subframe.coords(wei_norman(_sub_projection(a, d1)))
    gen = subframe.basis[index]
    if coords[index].is_zero:
        return a, ReductionStep(kind="chain-removal", generator=gen), coords
    (g,), (expected,), (step,) = _sweep_chains([(lam, [gen])], [coords[index]], beta0)
    if g.is_zero:
        # unresolved, or the whole coefficient is already residue
        return a, step, coords
    p = exp_sub_nilpotent(g, gen)
    a2 = apply_gauge(a, p)
    coords2 = subframe.coords(wei_norman(_sub_projection(a2, d1)))
    if coords2[index] != expected:
        raise RuntimeError(
            "elimination postcondition failed: coefficient %d is %r, expected %r"
            % (index, coords2[index], expected)
        )
    if _diag_projection(a2, d1) != _diag_projection(a, d1):
        raise RuntimeError("elimination postcondition failed: diagonal moved")
    step.gauge = p
    return a2, step, coords2


# ---- eigen-structure of the diagonal adjoint -----------------------------------


def _eigen_chains(psi: ConstMat):
    """Jordan chain vectors of psi, grouped as (eigenvalue, chain) pairs.

    Chains are coordinate vectors ordered kernel-first.  A nilpotent psi
    takes the direct route, tried only when the trace test does not already
    rule it out; otherwise all eigenvalues must be rational, and kernel_chains
    builds those of psi - lam on its generalized kernel, of dimension the
    multiplicity of lam, for each eigenvalue lam.
    """
    if not trace_shows_not_nilpotent(psi):
        try:
            return [(QQ0, ch) for ch in nilpotent_jordan_chains(psi)]
        except UnsupportedRegime:
            pass
    eye = ConstMat.identity(psi.rows)
    return [(lam, ch) for lam, mult in rational_eigenvalues(psi)
            for ch in kernel_chains(psi - eye.scale(lam), mult)[0]]


def _adjoint_chains(d0: ConstMat, seed: ConstMat, sub_basis):
    """(frame, chains): the (lam, matrices) chains of ad(d0) on the working
    subdiagonal space, and the DualFrame of d0 and them over its closure,
    or (None, []) when there are no chains, so no frame would be read.

    Each element of the initial algebra has diagonal part c*d0, lead =
    d0 + seed among them, so the subdiagonal part of each lies in
    span(sub_basis) + Q*seed; ad(d0) keeps span(sub_basis), as [d0, x] =
    [lead, x] there (two strictly subdiagonal matrices multiply to zero).
    So the working space is the closure of [d0] + sub_basis + [seed]
    without d0, sub_basis leading; ad(d0) is read off its brackets with d0,
    and closure and adjoint check the time budget.

    Longest chains first, each kernel element first, so that
    [d0, C_s] = lam*C_s + C_(s-1); the relation is checked before it is used.
    """
    work = lie_closure([d0] + list(sub_basis) + [seed])
    _, psi = work.adjoint(0)
    eigen = sorted(_eigen_chains(psi), key=lambda t: -len(t[1]))
    if not eigen:
        return None, []
    frame = DualFrame(work, 0, [v for _, ch in eigen for v in ch])
    rest = iter(frame.basis[1:])
    chains = [(lam, [next(rest) for _ in ch]) for lam, ch in eigen]
    for lam, mats in chains:
        for s, m in enumerate(mats):
            want = m.scale(lam)
            if s > 0:
                want = want + mats[s - 1]
            if comm(d0, m) != want:
                raise RuntimeError("adjoint chain relation failed")
    return frame, chains


# ---- the chain sweep -----------------------------------------------------------


def _sweep_chains(chains, coords, beta0: RatFun):
    """Solve the elimination of every chain coefficient in one pass.

    chains holds (lam, matrices) pairs, kernel element first, with
    [d0, C_s] = lam*C_s + C_(s-1); coords are the coefficients of all chain
    matrices, chain after chain.  The matrices are square-zero and sit in
    the lower-left block, so Id + S with S = sum g_k C_k moves the
    coefficient of C_s to c_s + lam*beta0*g_s - g_s' with
    c_s = coords_s + beta0*g_(s+1), and nothing else.  Going down each
    chain makes that one scalar equation per position.

    Returns (g, left, steps): the gauge coefficients, the coefficients that
    stay, and the recorded steps in chain order.
    """
    g = [_RF_ZERO] * len(coords)
    left = list(coords)
    steps = []
    start = 0
    for lam, mats in chains:
        above = _RF_ZERO
        for s in range(len(mats) - 1, -1, -1):
            check_deadline()
            k = start + s
            c = coords[k] + beta0 * above
            left[k] = c
            if c.is_zero:
                above = _RF_ZERO
                continue
            if lam != QQ0:
                rate = beta0.scale(lam)
                sol = solve_first_order_rational(rate, c)
                if sol is None:
                    step = ReductionStep(kind="unresolved", generator=mats[s], unsolved=(rate, c))
                else:
                    g[k], left[k] = sol, _RF_ZERO
                    step = ReductionStep(kind="chain-removal", generator=mats[s], solved_g=sol)
            else:
                split = hermite_split(c)
                g[k], left[k] = split.r, split.l
                residual = None if split.l.is_zero else split.l
                step = ReductionStep(
                    kind="chain-removal" if residual is None else "hermite-partial",
                    generator=mats[s],
                    solved_g=None if split.r.is_zero else split.r,
                    residual_l=residual,
                    new_poles=_new_pole_factors(residual, beta0),
                )
            steps.append(step)
            above = g[k]
        start += len(mats)
    return g, left, steps


# ---- the subdiagonal driver -----------------------------------------------------


@shared_factors()
def reduce_subdiagonal(system: BlockSystem) -> ReductionReport:
    """Reduce the subdiagonal block of a system whose diagonal is reduced.

    The Lie algebra generated by the coefficient matrix is split along the
    block-diagonal; a single diagonal generator d0 is required (anything
    bigger raises UnsupportedRegime).  Only the generators are split: their
    brackets have diagonal part [c*d0, c'*d0] = 0 and join the subdiagonal
    basis as they are.  The adjoint of d0 organizes the subdiagonal
    generators into chains, and one sweep down the chains solves for the
    whole elimination gauge Id + S; without a diagonal generator every
    subdiagonal generator is a chain of its own.  Without chains, the
    initial matrix, decomposition and closure are the final ones.

    The report's total gauge is Id + S, a BlockGauge that holds only the
    lower-left block of S, and it is checked once, block by block:
    A0 (Id + S) - S' == (Id + S) F for the system's matrix A0 and the final
    F (BlockGauge.carries).  That is (Id + S)[A0] == F, as S is checked to
    lie in the strictly lower-left block, so (Id + S)^-1 = Id - S.  No
    inverse is read.  A caller with a gauge Q of its own applies it first,
    reduces Q[A], and composes Q (Id + S) itself, as reduce_block_systems
    does.
    """
    a0 = system.matrix
    d1 = system.block_sizes[0]
    check_deadline()

    wn0 = wei_norman(a0)
    diag_basis, sub_basis, lead = _check_monogenous(wn0.matrices(), d1)
    lie0 = lie_closure(wn0.matrices())
    # the brackets are strictly subdiagonal: [c*d0, c'*d0] = 0
    sub_basis += lie0.mats[lie0.n_generators:]

    chains = []
    if diag_basis:
        frame, chains = _adjoint_chains(diag_basis[0], lead - diag_basis[0], sub_basis)
    elif lie0.dim:
        # zero diagonal: each element is its own chain, pure antidifferentiation
        frame = DualFrame(lie0, None, ConstMat.identity(lie0.dim).data)
        chains = [(QQ0, [w]) for w in frame.basis]
    jordan_sizes = [len(mats) for _, mats in chains]

    a, low, steps = a0, None, []
    wn_final, lie_final = wn0, lie0
    if chains:
        # one read of a0: beta0 leads, the chain coefficients follow
        coords = frame.coords(wn0)
        head = coords[: len(diag_basis)]
        beta0 = head[0] if head else _RF_ZERO
        g, left, steps = _sweep_chains(chains, coords[len(head):], beta0)
        a = frame.combine(head + left)
        s = frame.combine([_RF_ZERO] * len(head) + g)
        s_t, s_tr, low, s_r = s.cut(d1)
        if not (s_t.is_zero and s_tr.is_zero and s_r.is_zero):
            raise RuntimeError("elimination gauge Id + S has S outside the lower-left block")
        wn_final = wei_norman(a)
        lie_final = lie_closure(wn_final.matrices())
    total = BlockGauge(d1, a0.rows, low=low)
    abelian = lie_final.is_abelian()

    try:
        tower = picard_vessiot_tower(wn_final, lie_final)
    except UnsupportedRegime:
        tower = None
    certified = (
        tower is not None and len(tower) == lie_final.dim and _letters_independent(tower)
    )

    report = ReductionReport(
        order=system.order,
        system=system,
        assembled_matrix=a0,
        steps=steps,
        final_matrix=a,
        final_wei_norman=wn_final,
        final_lie=lie_final,
        abelian=abelian,
        reduced_certified=certified,
        certificate=None,
        verdict="",
        tower=tower,
        total_gauge=total,
        initial_wei_norman_dim=wn0.dim,
        initial_lie_dim=lie0.dim,
        diag_dim=len(diag_basis),
        sub_dim=len(sub_basis),
        jordan_block_sizes=jordan_sizes,
        residual_pole_factors=_pole_factor_set(wn_final.functions()),
    )
    report.certificate = detect_obstruction(report)
    report.verdict = _verdict(report)
    if not total.carries(a0, a):
        raise RuntimeError(
            "replay postcondition failed: the sweep gauge Id + S does not carry "
            "the system's matrix to the final one"
        )
    return report


def _check_monogenous(mats, d1: int):
    """split_diag_sub(mats, d1), the one split of a reduction, or
    UnsupportedRegime when the diagonal algebra has dimension above 1.

    On block lower-triangular matrices the projection to the block diagonal
    is a Lie homomorphism, so the diagonal algebra is generated by the
    split's diag_basis, a basis of the projections of mats: a span of
    dimension <= 1 is already closed, and only a refusal closes it.
    """
    split = split_diag_sub(mats, d1)
    if len(split[0]) > 1:
        raise UnsupportedRegime(
            "diagonal algebra is not monogenous (dimension %d)" % lie_closure(split[0]).dim
        )
    return split


def _known_diagonal(m: int, lower) -> RatMat:
    """diag(sym^m(p1[A1]), final_(m-1)), the diagonal of the order-m
    assembled matrix (see reduce_diagonal), from the lower reports."""
    top = sym_power_algebra(lower[0].assembled_matrix, m)
    return RatMat.join(top, None, None, lower[-1].final_matrix)


def _check_known_diagonal(m: int, lower) -> RatMat:
    """_check_monogenous on the diagonal of the order-m assembled matrix.

    That diagonal is known from the reports of the lower orders, so a wide
    diagonal algebra is refused before any product of the order-m assembly.
    Returns the diagonal, for reduce_diagonal.
    """
    diagonal = _known_diagonal(m, lower)
    _check_monogenous(wei_norman(diagonal).matrices(), diagonal.rows - lower[-1].final_matrix.rows)
    return diagonal


def _letters_independent(tower) -> bool:
    """True when the depth-1 integrands of the tower are Q-linearly independent.

    They are Hermite l parts, with simple poles only, so by Ostrowski-Kolchin
    their primitives are algebraically independent over Q(x) exactly then:
    when each is a term of their Wei-Norman decomposition as one row.
    """
    letters = [el.integrand_coeff for el in tower if el.depth == 1]
    return wei_norman(RatMat([letters])).dim == len(letters)


def _verdict(report: ReductionReport) -> str:
    if report.abelian:
        return "abelian: no obstruction at this order"
    if report.reduced_certified:
        return (
            "non-integrable: the final Lie algebra is non-abelian "
            "in a certified reduced form"
        )
    return "non-abelianity -- candidate obstruction (reduced form not certified)"


# ---- certification and obstruction ----------------------------------------------


def detect_obstruction(report: ReductionReport):
    """Build the non-abelianity certificate for a report, or None."""
    if report.abelian:
        return None
    i, j = report.final_lie.first_noncommuting_pair()
    mats = report.final_lie.mats
    bracket = comm(mats[i], mats[j])
    residuals = [
        st.residual_l
        for st in report.steps
        if st.residual_l is not None and not st.residual_l.is_zero
    ]
    return ObstructionCertificate(
        witness_indices=(i, j),
        witness=(mats[i], mats[j]),
        bracket=bracket,
        residuals=residuals,
    )


# ---- formal integral tower ------------------------------------------------------


def _classify_integrand(coeff: RatFun, base: TowerElement | None):
    """Cosmetic tag for a new tower symbol: log, polylog ladder, or neither."""
    if base is None:
        lg = as_log_derivative(coeff)
        if lg is not None:
            return "log", lg[1]
        return "unclassified", None
    if base.recognized_as == "log" and base.argument is not None:
        u = base.argument - _RF_ONE
        if not u.is_zero and u.num.lc < 0:
            u = -u
        level = 2
    elif base.recognized_as.startswith("polylog-") and base.argument is not None:
        u = base.argument
        level = int(base.recognized_as.split("-")[1]) + 1
    else:
        return "unclassified", None
    du = u.derivative()
    if u.is_zero or du.is_zero:
        return "unclassified", None
    ratio = coeff * u / du
    if ratio.is_constant:
        return "polylog-%d" % level, u
    return "unclassified", None


class _TowerBuilder:
    """The tower's elements; a symbol is keyed by its index among them."""

    def __init__(self):
        self.elements = []

    def new_symbol(self, coeff: RatFun, key: int | None) -> int:
        base = None if key is None else self.elements[key]
        tag, argument = _classify_integrand(coeff, base)
        self.elements.append(TowerElement(
            name="I%d" % (len(self.elements) + 1),
            depth=1 if base is None else base.depth + 1,
            integrand_coeff=coeff,
            integrand_symbol=None if base is None else base.name,
            recognized_as=tag,
            argument=argument,
        ))
        return len(self.elements) - 1

    def primitive(self, formal: dict) -> dict:
        """Formal antiderivative of {symbol key: coefficient}, keying new
        symbols; None keys the rational part.

        Pure rational parts are Hermite-split so only simple-pole residues
        become integrands; products with an existing symbol always get a
        fresh symbol one level deeper.
        """
        out = {}
        for key in sorted(formal, key=lambda k: -1 if k is None else k):
            coeff = formal[key]
            if coeff.is_zero:
                continue
            if key is None:
                split = hermite_split(coeff)
                if not split.r.is_zero:
                    out[None] = out.get(None, _RF_ZERO) + split.r
                if not split.l.is_zero:
                    out[self.new_symbol(split.l, None)] = _RF_ONE
            else:
                out[self.new_symbol(coeff, key)] = _RF_ONE
        return out


def picard_vessiot_tower(wn: WeiNormanDecomp, lie: LieBasis):
    """Integral tower splitting the solutions of a reduced system.

    wn is the Wei-Norman decomposition of the reduced matrix, lie the closure
    of its matrices.  Requires a leading generator whose adjoint acts
    nilpotently on the remaining basis of the Lie algebra, all of whose
    elements commute with each other (LieBasis.commuting: the records of the
    closure are read, only missing pairs are bracketed); such a leader lies
    in every noncommuting pair, so only the first pair is tried.  An abelian
    algebra has no pair, and its element 0 leads: its adjoint is zero.
    Eliminating the non-leading coefficients top-down along the adjoint
    chains then only ever needs antiderivatives, and each one that is not
    rational becomes a named tower symbol.  Raises UnsupportedRegime when the
    structure does not have this shape.  The time budget is checked at
    every chain position.
    """
    if wn.dim == 0:
        return []
    pair = lie.first_noncommuting_pair()
    chosen = None
    for cand in pair or (0,):
        adjoint = lie.adjoint(cand)
        if adjoint is None:
            continue
        others, ad = adjoint
        if trace_shows_not_nilpotent(ad):
            continue
        try:
            chains = nilpotent_jordan_chains(ad)
        except UnsupportedRegime:
            continue
        if not lie.commuting(others):
            continue
        chosen = (cand, chains)
        break
    if chosen is None:
        raise UnsupportedRegime(
            "final system lacks the nilpotent adjoint-chain structure "
            "needed for the integral tower"
        )
    cand, chains = chosen

    frame = DualFrame(lie, cand, [u for ch in chains for u in ch])
    for g in frame.basis[1:]:
        if not (g * g).is_zero:
            raise UnsupportedRegime("tower gauges need square-zero generators")
        for b in lie.mats:
            if not (g * (b * g)).is_zero:
                raise UnsupportedRegime("tower gauges need isolated generators")

    coords = frame.coords(wn)
    beta = coords[0]

    builder = _TowerBuilder()
    lead_split = hermite_split(beta)
    if not lead_split.l.is_zero:
        builder.new_symbol(lead_split.l, None)

    formal = [{None: c} if not c.is_zero else {} for c in coords[1:]]
    pos = 0
    for ch in chains:
        idxs = list(range(pos, pos + len(ch)))
        pos += len(ch)
        for s in range(len(ch) - 1, -1, -1):
            check_deadline()
            cur = formal[idxs[s]]
            if not cur:
                continue
            prim = builder.primitive(cur)
            formal[idxs[s]] = {}
            if s > 0:
                target = formal[idxs[s - 1]]
                for key, val in prim.items():
                    add = beta * val
                    if add.is_zero:
                        continue
                    target[key] = target.get(key, _RF_ZERO) + add
                    if target[key].is_zero:
                        del target[key]
    if any(formal):
        raise RuntimeError("formal elimination left coefficients behind")
    return builder.elements


# ---- the full pipeline -----------------------------------------------------------


def reduce_block_systems(systems, p1: GaugeMatrix, max_seconds=None):
    """Reduce a nested family of block systems, given lowest order first.

    p1 reduces the first-order system; higher orders are assembled from it
    and from the reports of the lower orders, once the diagonal that those
    reports give has passed the monogenous check.  Returns one ReductionReport
    per order, lowest first.

    The pipeline owns the assembly: it checks that the assembly gauge Q
    carries the initial matrix A to the assembled A0 (BlockGauge.carries)
    before the sweep runs, hands A0 to reduce_subdiagonal, which replays its
    own Id + S from A0 to the final F, and completes that report with the
    initial system, the assembly step in front of the steps and the total
    gauge P = Q (Id + S) (BlockGauge.then).  The two replays prove
    A P - P' == P F: A P - P' = (A Q - Q')(Id + S) - Q S' =
    Q (A0 (Id + S) - S') = P F.  Regime and timeout errors are raised again
    with the order and the phase in front, "order m, diagonal check: ",
    "order m, diagonal assembly: " or "order m, subdiagonal reduction: ".
    The orders run under errors.time_budget(max_seconds); a NaN max_seconds
    raises PreconditionFailure.  So does a p1 with p1.p_inv * p1.p != Id,
    before any order runs: every higher gauge is invertible because p1 is.
    """
    if p1.p_inv.cols != p1.p.rows or p1.p_inv * p1.p != RatMat.identity(p1.p.rows):
        raise PreconditionFailure(
            "order 1, diagonal assembly: p_inv * p of the first-order gauge is not the identity"
        )
    reports = []
    with time_budget(max_seconds), shared_factors():
        for bs in systems:
            phase = "diagonal check"
            try:
                diagonal = None
                if reports:
                    check_deadline()
                    diagonal = _check_known_diagonal(bs.order, reports)
                phase = "diagonal assembly"
                partial, step = reduce_diagonal(bs, p1, reports, diagonal)
                if not step.gauge.carries(bs.matrix, partial.matrix):
                    raise RuntimeError(
                        "replay postcondition failed: the assembly gauge does not carry "
                        "the initial matrix to the assembled one")
                phase = "subdiagonal reduction"
                report = reduce_subdiagonal(partial)
            except (UnsupportedRegime, ReductionTimeout) as e:
                raise type(e)("order %d, %s: %s" % (bs.order, phase, e)) from e
            report.system = bs
            report.steps.insert(0, step)
            report.total_gauge = step.gauge.then(report.total_gauge)
            reports.append(report)
    return reports


def reduce_variational_tower(system, order: int, p1: GaugeMatrix, max_seconds=None):
    """Build and reduce the variational systems of a Hamiltonian up to order."""
    return reduce_block_systems(build_lve(system, order), p1, max_seconds)
