"""qcontract: quantum f-divergences, chi-square SDPI constants, and
contraction-rate experiments for finite-dimensional channels.

The package computes three families of quantum f-divergences (ht, petz,
matsumoto), weighted chi-square divergences for standard monotone
spectral weights, exact and variational strong-data-processing (SDPI)
contraction coefficients, detailed-balance residuals, and runs the
contraction-rate experiment relating f-divergence decay of channel
powers to the chi-square constant of the channel.

Each module's ``__all__`` is the one list of its public names; the
package re-exports them all (the CLI module ``qcontract.cli`` is left out
of ``import qcontract``).
"""

__version__ = "0.1.0"

from . import catalog, channels, contraction, divergences, errors, linalg, quadrature, serialize
from .catalog import *  # noqa: F401,F403
from .channels import *  # noqa: F401,F403
from .contraction import *  # noqa: F401,F403
from .divergences import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .serialize import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name
    for module in (catalog, channels, contraction, divergences, errors, linalg, quadrature, serialize)
    for name in module.__all__
]
