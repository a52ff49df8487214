"""Grid solvers and Monte Carlo verification for long-run stochastic differential games.

The package covers one pipeline: describe a dissipative diffusion whose
noise map every player steers through a drift shift, solve each player's
long-run (or discounted) backward equation on a state grid, couple the
players through pointwise Nash controls with Picard sweeps, and check the
resulting equilibrium by simulation, unilateral-deviation tests and pathwise
residuals of the backward equation.
"""

from .catalog import (
    BUMP_LIP,
    BUMP_SUP,
    GAME_BUILDERS,
    bump,
    coupled_cross_cost,
    make_driver,
    make_game,
    make_growth_driver,
    make_model,
    ou_model,
    quadratic_decoupled,
    three_player_symmetric,
)
from .continuous import (
    GrowthViolationError,
    LinearizationDidNotConvergeError,
    ResidualCeilingError,
    decompose,
    solve_continuous_ebsde,
)
from .ebsde import (
    DriverSpec,
    Grid1D,
    GridSolution,
    MaxSweepsExceededError,
    NonMonotoneSchemeError,
    hjb_residual,
    solve_discounted,
    solve_ergodic,
)
from .games import (
    ControlGrid,
    FeedbackPolicy,
    GameSpec,
    IsaacsReport,
    JointControl,
    NoPureNashError,
    hamiltonian,
    isaac_fixed_point,
    verify_isaacs,
)
from .picard import (
    NashSolution,
    SweepResult,
    SweepRow,
    asymmetric_solve,
    comparison_bound,
    picard_solve,
    vanishing_discount_sweep,
)
from .sde import (
    MomentReport,
    SdeModel,
    SimulationDivergedError,
    moment_bound_check,
    path_stream,
    sample_paths,
)
from .verify import (
    DeviationReport,
    DeviationRow,
    InsufficientHorizonError,
    PayoffEstimate,
    bsde_path_residual,
    estimate_payoff,
    nash_deviation_test,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model and simulation
    "SdeModel",
    "MomentReport",
    "SimulationDivergedError",
    "path_stream",
    "sample_paths",
    "moment_bound_check",
    # static games
    "ControlGrid",
    "GameSpec",
    "JointControl",
    "FeedbackPolicy",
    "IsaacsReport",
    "NoPureNashError",
    "hamiltonian",
    "isaac_fixed_point",
    "verify_isaacs",
    # single-player grid solves
    "Grid1D",
    "DriverSpec",
    "GridSolution",
    "MaxSweepsExceededError",
    "NonMonotoneSchemeError",
    "hjb_residual",
    "solve_ergodic",
    "solve_discounted",
    # coupled systems
    "NashSolution",
    "SweepRow",
    "SweepResult",
    "picard_solve",
    "comparison_bound",
    "asymmetric_solve",
    "vanishing_discount_sweep",
    # continuous linear-growth drivers
    "GrowthViolationError",
    "LinearizationDidNotConvergeError",
    "ResidualCeilingError",
    "decompose",
    "solve_continuous_ebsde",
    # Monte Carlo verification
    "DeviationRow",
    "DeviationReport",
    "InsufficientHorizonError",
    "PayoffEstimate",
    "estimate_payoff",
    "nash_deviation_test",
    "bsde_path_residual",
    # catalogue
    "bump",
    "BUMP_SUP",
    "BUMP_LIP",
    "ou_model",
    "make_model",
    "make_driver",
    "make_growth_driver",
    "make_game",
    "quadratic_decoupled",
    "coupled_cross_cost",
    "three_player_symmetric",
    "GAME_BUILDERS",
]
