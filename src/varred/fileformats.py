"""Line-oriented file formats: systems, Hamiltonians, and reports.

All three formats share the same lexical shape -- `key = value` lines, `#`
comments, and `begin <name>` / `end <name>` sections -- so that they can be
written and diffed by hand.  Rendering is deterministic: the same object
always produces the same bytes.
"""

from dataclasses import dataclass
from itertools import chain

from .errors import FileFormatError
from .expr import ExprError, poly_to_text
from .matrices import RatMat
from .ratfun import RatFun, parse_ratfun
from .varequations import (
    MAX_SYSTEM_SIZE,
    HamiltonianSystem,
    MPoly,
    canonical_names,
    parse_mpoly,
)

SYSTEM_FORMAT = "system v1"
HAMILTONIAN_FORMAT = "hamiltonian v1"
REPORT_FORMAT = "report v1"


# ---- lexer ---------------------------------------------------------------------


def _lex(text: str):
    """Yield (lineno, kind, a, b) with kind in {"kv", "begin", "end"}."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("begin ") or line == "begin":
            name = line[5:].strip()
            if not name:
                raise FileFormatError("line %d: begin without a section name" % lineno)
            yield lineno, "begin", name, None
            continue
        if line.startswith("end ") or line == "end":
            name = line[3:].strip()
            if not name:
                raise FileFormatError("line %d: end without a section name" % lineno)
            yield lineno, "end", name, None
            continue
        if "=" not in line:
            raise FileFormatError("line %d: expected 'key = value'" % lineno)
        key, _, value = line.partition("=")
        yield lineno, "kv", key.strip(), value.strip()


def _int_value(value, lineno, what):
    try:
        return int(value)
    except ValueError:
        raise FileFormatError("line %d: %s must be an integer, got %r"
                              % (lineno, what, value)) from None


# ---- system files ---------------------------------------------------------------


@dataclass
class SystemFile:
    """A square rational matrix with an optional block structure."""

    variable: str
    matrix: RatMat
    blocks: list | None = None


def parse_system(text: str) -> SystemFile:
    items = list(_lex(text))
    if not items or items[0][1] != "kv" or items[0][2] != "format":
        raise FileFormatError("system file must start with a format line")
    if items[0][3] != SYSTEM_FORMAT:
        raise FileFormatError("unsupported format %r (expected %r)"
                              % (items[0][3], SYSTEM_FORMAT))
    variable = None
    size = None
    blocks = None
    entries = []
    once = set()
    for lineno, kind, key, value in items[1:]:
        if kind != "kv":
            raise FileFormatError("line %d: sections are not allowed in a "
                                  "system file" % lineno)
        if key in ("variable", "size", "blocks"):
            if key in once:
                raise FileFormatError("line %d: duplicate key %r" % (lineno, key))
            once.add(key)
        if key == "variable":
            variable = value
        elif key == "size":
            size = _int_value(value, lineno, "size")
        elif key == "blocks":
            blocks = [_int_value(v, lineno, "block size") for v in value.split()]
        elif key.split()[:1] == ["entry"]:
            parts = key.split()
            if len(parts) != 3:
                raise FileFormatError("line %d: entry needs a row and a column"
                                      % lineno)
            r = _int_value(parts[1], lineno, "row")
            c = _int_value(parts[2], lineno, "column")
            entries.append((lineno, r, c, value))
        else:
            raise FileFormatError("line %d: unknown key %r" % (lineno, key))
    if variable is None:
        raise FileFormatError("system file is missing the variable")
    if size is None or size < 1:
        raise FileFormatError("system file is missing a positive size")
    if size > MAX_SYSTEM_SIZE:
        raise FileFormatError("size %d is above the limit of %d"
                              % (size, MAX_SYSTEM_SIZE))
    if blocks is not None:
        if any(b < 1 for b in blocks) or sum(blocks) != size:
            raise FileFormatError("blocks must be positive and sum to %d" % size)
    mat = RatMat.zeros(size, size)
    seen = set()
    for lineno, r, c, value in entries:
        if not (1 <= r <= size and 1 <= c <= size):
            raise FileFormatError("line %d: entry (%d, %d) is outside the "
                                  "%dx%d matrix" % (lineno, r, c, size, size))
        if (r, c) in seen:
            raise FileFormatError("line %d: entry (%d, %d) appears twice"
                                  % (lineno, r, c))
        seen.add((r, c))
        try:
            mat.data[r - 1][c - 1] = parse_ratfun(value, variable)
        except ExprError as e:
            raise FileFormatError("line %d: %s" % (lineno, e)) from None
    return SystemFile(variable, mat, blocks)


def render_system(sf: SystemFile) -> str:
    lines = ["format = %s" % SYSTEM_FORMAT,
             "variable = %s" % sf.variable,
             "size = %d" % sf.matrix.rows]
    if sf.blocks is not None:
        lines.append("blocks = %s" % " ".join(str(b) for b in sf.blocks))
    for i, row in enumerate(sf.matrix.data):
        for j, e in enumerate(row):
            if not e.is_zero:
                lines.append("entry %d %d = %s" % (i + 1, j + 1, e.render(sf.variable)))
    return "\n".join(lines) + "\n"


# ---- hamiltonian files -----------------------------------------------------------


@dataclass
class HamiltonianFile:
    """A polynomial Hamiltonian with a rational curve and time rescaling."""

    dof: int
    variable: str
    hamiltonian: MPoly
    components: list
    sigma: RatFun

    def build_system(self) -> HamiltonianSystem:
        """Construct the system, verifying that the curve solves the field."""
        return HamiltonianSystem.build(
            self.hamiltonian, self.dof, self.components, self.sigma
        )


def parse_hamiltonian(text: str) -> HamiltonianFile:
    items = list(_lex(text))
    if not items or items[0][1] != "kv" or items[0][2] != "format":
        raise FileFormatError("hamiltonian file must start with a format line")
    if items[0][3] != HAMILTONIAN_FORMAT:
        raise FileFormatError("unsupported format %r (expected %r)"
                              % (items[0][3], HAMILTONIAN_FORMAT))
    fields = {}
    order = []
    for lineno, kind, key, value in items[1:]:
        if kind != "kv":
            raise FileFormatError("line %d: sections are not allowed in a "
                                  "hamiltonian file" % lineno)
        if key in fields:
            raise FileFormatError("line %d: duplicate key %r" % (lineno, key))
        fields[key] = (lineno, value)
        order.append(key)
    if "dof" not in fields:
        raise FileFormatError("hamiltonian file is missing dof")
    dof = _int_value(fields["dof"][1], fields["dof"][0], "dof")
    if dof < 1:
        raise FileFormatError("dof must be at least 1")
    if "variable" not in fields:
        raise FileFormatError("hamiltonian file is missing the variable")
    variable = fields["variable"][1]
    # key by key, so that a huge declared dof fails at its first missing key
    # instead of first building 2*dof names
    needed = chain(["hamiltonian"], (f"{c}{i}" for c in "qp" for i in range(1, dof + 1)),
                   ["sigma"])
    for key in needed:
        if key not in fields:
            raise FileFormatError("hamiltonian file is missing %r" % key)
    names = canonical_names(dof)
    known = set(names) | {"hamiltonian", "sigma", "dof", "variable"}
    extra = [k for k in order if k not in known]
    if extra:
        raise FileFormatError("unknown key %r" % extra[0])
    lineno, value = fields["hamiltonian"]
    try:
        h = parse_mpoly(value, names)
    except ExprError as e:
        raise FileFormatError("line %d: %s" % (lineno, e)) from None
    components = []
    for name in names:
        lineno, value = fields[name]
        try:
            components.append(parse_ratfun(value, variable))
        except ExprError as e:
            raise FileFormatError("line %d: %s" % (lineno, e)) from None
    lineno, value = fields["sigma"]
    try:
        sigma = parse_ratfun(value, variable)
    except ExprError as e:
        raise FileFormatError("line %d: %s" % (lineno, e)) from None
    if sigma.is_zero:
        raise FileFormatError("line %d: sigma must be nonzero" % lineno)
    return HamiltonianFile(dof, variable, h, components, sigma)


def render_hamiltonian(hf: HamiltonianFile) -> str:
    names = canonical_names(hf.dof)
    lines = ["format = %s" % HAMILTONIAN_FORMAT,
             "dof = %d" % hf.dof,
             "variable = %s" % hf.variable,
             "hamiltonian = %s" % hf.hamiltonian.render(names)]
    for name, comp in zip(names, hf.components):
        lines.append("%s = %s" % (name, comp.render(hf.variable)))
    lines.append("sigma = %s" % hf.sigma.render(hf.variable))
    return "\n".join(lines) + "\n"


# ---- reports ---------------------------------------------------------------------


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def render_report(report, mode: str = "text", var: str = "x") -> str:
    """Render a ReductionReport; mode is "text" or "structured".

    The structured mode embeds the final matrix as a system section so the
    report can be re-parsed and checked independently.
    """
    if mode not in ("text", "structured"):
        raise ValueError("unknown report mode %r" % mode)
    wn_funcs = report.final_wei_norman.functions()
    poles = " | ".join(poly_to_text(p, var) for p in report.residual_pole_factors)
    if mode == "text":
        lines = [
            "reduction report, order %d" % report.order,
            "system size: %d, blocks: %s"
            % (report.final_matrix.rows,
               " ".join(str(b) for b in report.system.block_sizes)),
            "initial Wei-Norman dimension: %d" % report.initial_wei_norman_dim,
            "initial Lie algebra dimension: %d" % report.initial_lie_dim,
            "diagonal / subdiagonal split: %d / %d"
            % (report.diag_dim, report.sub_dim),
            "adjoint chain lengths: %s"
            % (" ".join(str(s) for s in report.jordan_block_sizes) or "-"),
            "recorded steps: %d" % len(report.steps),
            "final Wei-Norman dimension: %d" % report.final_wei_norman.dim,
            "final Lie algebra dimension: %d" % report.final_lie.dim,
            "abelian: %s" % _yesno(report.abelian),
            "reduced-certified: %s" % _yesno(report.reduced_certified),
            "residual pole factors: %s" % (poles or "-"),
            "verdict: %s" % report.verdict,
        ]
        if report.tower is not None:
            lines.append("integral tower (%d element%s):"
                         % (len(report.tower),
                            "" if len(report.tower) == 1 else "s"))
            for el in report.tower:
                arg = ""
                if el.argument is not None:
                    arg = " of %s" % el.argument.render(var)
                lines.append("  %s: depth %d, %s%s, integrand %s"
                             % (el.name, el.depth, el.recognized_as, arg,
                                el.integrand_text(var)))
        if report.certificate is not None:
            c = report.certificate
            lines.append("obstruction witness: basis elements %d and %d "
                         "(nonzero bracket, %d residuals)"
                         % (c.witness_indices[0] + 1, c.witness_indices[1] + 1,
                            len(c.residuals)))
        return "\n".join(lines) + "\n"

    lines = [
        "format = %s" % REPORT_FORMAT,
        "order = %d" % report.order,
        "variable = %s" % var,
        "initial-wei-norman-dim = %d" % report.initial_wei_norman_dim,
        "initial-lie-dim = %d" % report.initial_lie_dim,
        "diag-dim = %d" % report.diag_dim,
        "sub-dim = %d" % report.sub_dim,
        "jordan-blocks = %s"
        % (" ".join(str(s) for s in report.jordan_block_sizes) or "-"),
        "steps = %d" % len(report.steps),
        "final-wei-norman-dim = %d" % report.final_wei_norman.dim,
        "final-lie-dim = %d" % report.final_lie.dim,
        "abelian = %s" % _yesno(report.abelian),
        "reduced-certified = %s" % _yesno(report.reduced_certified),
        "residual-pole-factors = %s" % (poles or "-"),
        "verdict = %s" % report.verdict,
    ]
    lines.append("begin final-matrix")
    lines.append(render_system(SystemFile(
        var, report.final_matrix, list(report.system.block_sizes))).rstrip("\n"))
    lines.append("end final-matrix")
    lines.append("begin wei-norman")
    for k, f in enumerate(wn_funcs):
        lines.append("function %d = %s" % (k + 1, f.render(var)))
    lines.append("end wei-norman")
    if report.tower is not None:
        lines.append("begin tower")
        for k, el in enumerate(report.tower):
            parts = [el.name, "depth %d" % el.depth, el.recognized_as]
            if el.argument is not None:
                parts.append("argument %s" % el.argument.render(var))
            parts.append("integrand %s" % el.integrand_text(var))
            lines.append("element %d = %s" % (k + 1, " | ".join(parts)))
        lines.append("end tower")
    if report.certificate is not None:
        c = report.certificate
        lines.append("begin certificate")
        lines.append("witness = %d %d" % (c.witness_indices[0] + 1,
                                          c.witness_indices[1] + 1))
        for i, row in enumerate(c.bracket.data):
            for j, v in enumerate(row):
                if v:
                    lines.append("bracket %d %d = %s" % (i + 1, j + 1, v))
        for k, l in enumerate(c.residuals):
            lines.append("residual %d = %s" % (k + 1, l.render(var)))
        lines.append("end certificate")
    lines.append("begin steps")
    for k, st in enumerate(report.steps):
        parts = [st.kind]
        if st.residual_l is not None:
            parts.append("residual %s" % st.residual_l.render(var))
        if st.new_poles:
            parts.append("new-poles %s"
                         % " | ".join(poly_to_text(p, var) for p in st.new_poles))
        if st.unsolved is not None:
            parts.append(st.note_text(var))
        lines.append("step %d = %s" % (k + 1, " | ".join(parts)))
    lines.append("end steps")
    return "\n".join(lines) + "\n"


def parse_report(text: str):
    """Parse a structured report into its pieces.

    Returns a dict with the top-level keys as strings under "meta", the
    re-parsed final matrix under "final_matrix", and the raw line lists of
    the other sections under their section names.
    """
    meta = {}
    sections = {}
    current = None
    body = []
    saw_format = False
    for lineno, kind, a, b in _lex(text):
        if kind == "begin":
            if current is not None:
                raise FileFormatError("line %d: nested sections are not "
                                      "supported" % lineno)
            current = a
            body = []
        elif kind == "end":
            if current != a:
                raise FileFormatError("line %d: end %r does not match begin %r"
                                      % (lineno, a, current))
            sections[current] = body
            current = None
        elif current is not None:
            body.append((a, b))
        else:
            if not saw_format:
                if a != "format" or b != REPORT_FORMAT:
                    raise FileFormatError("report file must start with "
                                          "'format = %s'" % REPORT_FORMAT)
                saw_format = True
                continue
            meta[a] = b
    if current is not None:
        raise FileFormatError("section %r is never closed" % current)
    if not saw_format:
        raise FileFormatError("report file must start with a format line")
    out = {"meta": meta, "sections": sections}
    if "final-matrix" in sections:
        lines = ["%s = %s" % (k, v) for k, v in sections["final-matrix"]]
        out["final_matrix"] = parse_system("\n".join(lines))
    return out
