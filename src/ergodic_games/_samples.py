"""Fixed states behind every construction-time check of a declared constant.

``SdeModel``, ``GameSpec``, ``DriverSpec`` and ``continuous.decompose``
probe their declared bounds on a fixed set of states.  The probes need
spread, not randomness, so the states come from a Kronecker sequence,
``frac(k * a)`` for ``k = 1, 2, ...``, pushed through the logistic quantile
function.  The generators ``a`` are the three of Roberts' generalized
golden ratio in three dimensions (``1 / g**j`` with ``g**4 = g + 1``; the
golden ratio is the one-dimensional case): each axis on its own is evenly
spread, and the states of different axes taken together fill the plane or
the cube, so a check that pairs a state with a gradient value, or two
states, sees every quadrant.  Building them needs no random
generator, which keeps ``numpy.random`` out of runs that only solve.
"""

from __future__ import annotations

import numpy as np

# relative slack of every check of a declared bound on these states; absorbs roundoff only
_CHECK_SLACK = 1e-9
# g > 1 with g**4 = g + 1: the generalized golden ratio of the R_3 sequence
_G3 = 1.2207440846057596
# one generator per axis; 1, a_0, a_1, a_2 are rationally independent
_GENERATORS = tuple(_G3 ** -(j + 1) for j in range(3))
# logistic scale of standard deviation 3: sd = scale * pi / sqrt(3)
_SCALE = 3.0 * 3.0**0.5 / np.pi


def check_states(n: int, axis: int) -> np.ndarray:
    """``n`` fixed states of standard deviation 3 along ``axis`` (0, 1 or 2), read-only.

    State ``k`` is ``scale * log(u / (1 - u))`` with ``u = frac((k + 1) * a)``
    and ``a`` the axis's generator.  Up to the 10,000 states the largest
    check draws, ``u`` stays well inside (0, 1), so every state is finite.
    """
    u = np.arange(1, n + 1, dtype=float)
    u *= _GENERATORS[axis]
    u %= 1.0
    x = np.log(u / (1.0 - u))
    x *= _SCALE
    x.flags.writeable = False
    return x
