"""First-Fit chain partitioning toolkit.

Posets without two long incomparable chains, their block-built interval
extensions and path decompositions, the First-Fit preserving quotient to
interval graphs, exact oracles (worst-case First-Fit, pathwidth), and the
adversarial families that force First-Fit to many chains.

Each module's ``__all__`` is its list of public names; they are all
re-exported here.
"""

from .adversary import *
from .errors import *
from .extension import *
from .firstfit import *
from .generators import *
from .homomorphism import *
from .jsonio import *
from .order import *

__version__ = "0.1.0"
