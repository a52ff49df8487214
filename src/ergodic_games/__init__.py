"""Grid solvers and Monte Carlo verification for long-run stochastic differential games.

The package covers one pipeline: describe a dissipative diffusion whose
noise map every player steers through a drift shift, solve each player's
long-run (or discounted) backward equation on a state grid, couple the
players through pointwise Nash controls with Picard sweeps, and check the
resulting equilibrium by simulation, unilateral-deviation tests and pathwise
residuals of the backward equation.  Each module's ``__all__`` lists its
public names, and the package re-exports exactly those.
"""

from .catalog import *
from .continuous import *
from .ebsde import *
from .games import *
from .picard import *
from .sde import *
from .verify import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += catalog.__all__
__all__ += continuous.__all__
__all__ += ebsde.__all__
__all__ += games.__all__
__all__ += picard.__all__
__all__ += sde.__all__
__all__ += verify.__all__
