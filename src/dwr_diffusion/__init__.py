"""Goal-oriented space-time adaptive FEM solver for the instationary diffusion equation.

The solver marches a piecewise-constant-in-time (dG(0)) primal problem
forward and a dual problem backward over a list of space-time slabs,
localizes a dual-weighted residual error estimate per cell, and adapts the
slab meshes and time intervals with a two-fraction marking strategy until a
goal tolerance is met.  Each dual step solves

    (2 M + tau A) z_m = tau J + 2 M z_n

from the successor slab's value z_n (:mod:`.dual`); that is neither the
dG(0) adjoint nor a cG(1) dual, and item 2 of ROADMAP.md settles the scheme.
"""

__version__ = "0.1.0"

from .sparse_la import (
    SolverControl,
    SolverError,
    ConstraintCycleError,
    csr_from_triplets,
    spmv,
    cg_solve,
    apply_dirichlet,
    ConstraintSet,
    condense_hanging,
    distribute_constraints,
)
from .mesh import QuadMesh, Cell, make_lshape, make_unit_square, DIRICHLET, NEUMANN
from .fem import (
    FeSpace,
    FeFunction,
    Quadrature,
    gauss_quadrature,
    assemble_mass,
    assemble_stiffness,
    assemble_load_volume,
    assemble_load_neumann,
    interpolate,
    interpolate_same_mesh,
    transfer,
)
from .slabs import TimeInterval, Slab, SlabList, init_slabs
from .problem import Coefficients, ConeSolution, ControlVolume, ProblemData
from .primal import ImplicitStep, StepReport, march_forward
from .dual import GoalContext, assemble_goal_rhs, march_backward
from .estimator import ErrorEstimate, accumulate, effectivity
from .marking import AdaptParams, mark_time_slabs, mark_space_cells, execute_adaptation
from .driver import LoopRecord, DwrResult, dwr_loop
from .params import RunConfig, parse_parameter_file, ParameterFileError
