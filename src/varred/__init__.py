"""Exact partial reduction of higher variational equations.

Builds the linearized variational systems of polynomial Hamiltonians along
rational particular curves, decomposes them over a matrix Lie algebra,
applies gauge transformations that strip the subdiagonal part down to its
irreducible residue, and reports the final Lie algebra together with a
non-commutativity certificate and the tower of integrals that realizes the
reduced solutions.  All arithmetic is exact over Q(x).
"""

from .errors import (
    FileFormatError,
    PreconditionFailure,
    ReductionTimeout,
    UnsupportedRegime,
    time_budget,
)
from .rationals import QQ
from .poly import Poly, shared_factors
from .ratfun import (
    RatFun,
    hermite_split,
    parse_ratfun,
    solve_first_order_rational,
)
from .matrices import ConstMat, RatMat, comm, nilpotent_jordan_chains
from .liealgebra import (
    LieBasis,
    WeiNormanDecomp,
    lie_closure,
    split_diag_sub,
    wei_norman,
)
from .gauge import BlockGauge, GaugeMatrix, apply_gauge, exp_sub_nilpotent, sym_power_group
from .varequations import (
    BlockSystem,
    HamiltonianSystem,
    MPoly,
    build_lve,
    canonical_names,
    lve_block_sizes,
    lve_dimension,
    parse_mpoly,
)
from .reduction import (
    ObstructionCertificate,
    ReductionReport,
    ReductionStep,
    TowerElement,
    detect_obstruction,
    picard_vessiot_tower,
    reduce_block_systems,
    reduce_diagonal,
    reduce_subdiagonal,
    reduce_variational_tower,
)
from .fileformats import (
    HamiltonianFile,
    SystemFile,
    parse_hamiltonian,
    parse_report,
    parse_system,
    render_hamiltonian,
    render_report,
    render_system,
)
from . import fixtures

__version__ = "0.1.0"

__all__ = [
    "QQ",
    "Poly",
    "RatFun",
    "ConstMat",
    "RatMat",
    "MPoly",
    "BlockSystem",
    "HamiltonianSystem",
    "GaugeMatrix",
    "BlockGauge",
    "LieBasis",
    "WeiNormanDecomp",
    "SystemFile",
    "HamiltonianFile",
    "ReductionStep",
    "ReductionReport",
    "ObstructionCertificate",
    "TowerElement",
    "FileFormatError",
    "PreconditionFailure",
    "UnsupportedRegime",
    "ReductionTimeout",
    "time_budget",
    "shared_factors",
    "comm",
    "nilpotent_jordan_chains",
    "hermite_split",
    "solve_first_order_rational",
    "parse_ratfun",
    "parse_mpoly",
    "canonical_names",
    "lie_closure",
    "wei_norman",
    "split_diag_sub",
    "apply_gauge",
    "exp_sub_nilpotent",
    "sym_power_group",
    "build_lve",
    "lve_block_sizes",
    "lve_dimension",
    "reduce_diagonal",
    "reduce_subdiagonal",
    "reduce_block_systems",
    "reduce_variational_tower",
    "detect_obstruction",
    "picard_vessiot_tower",
    "parse_system",
    "render_system",
    "parse_hamiltonian",
    "render_hamiltonian",
    "parse_report",
    "render_report",
    "fixtures",
]
