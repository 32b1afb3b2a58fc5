"""Exact homogeneous-bundle calculus on flag quotients of GL(n+1, C).

The package mechanizes a double-fibration calculus over complex
projective space: weight arithmetic and fiberwise cohomology
reduction, filtered relative-form bundles on the correspondence
space, direct-image tables with an explicit cancellation ledger, and
the assembly of the resulting complexes of irreducible bundles on the
base, together with symbol-level consistency checks.

Everything is exact (integers, no floats) and every inference step
is logged rather than silently applied.  Each module lists its public
names in ``__all__``; the package re-exports exactly their union.
"""

from . import bbw, bundles, geometry, notation, transform, weights
from .bbw import *  # noqa: F403
from .bundles import *  # noqa: F403
from .geometry import *  # noqa: F403
from .notation import *  # noqa: F403
from .transform import *  # noqa: F403
from .weights import *  # noqa: F403

__all__ = [
    *weights.__all__,
    *notation.__all__,
    *bundles.__all__,
    *geometry.__all__,
    *bbw.__all__,
    *transform.__all__,
    "__version__",
]

__version__ = "0.1.0"
