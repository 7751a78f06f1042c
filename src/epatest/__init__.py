"""Equal-predictive-ability testing for competing forecast sequences.

Public surface:

* :mod:`epatest.series`: loss differentials and their sample transforms;
* :mod:`epatest.lrv`: long-run variance estimators and bandwidth rules;
* :mod:`epatest.dmtests`: the test procedures and their outcomes;
* :mod:`epatest.tradeoff`: the bandwidth size-power tradeoff diagnostic;
* :mod:`epatest.mc`: the rolling-forecast Monte Carlo harness;
* :mod:`epatest.data`: CSV ingestion with explicit missing-data policies.
"""

__version__ = "0.1.0"

from . import data, dmtests, lrv, mc, series, tradeoff
from .data import *  # noqa: F403
from .dmtests import *  # noqa: F403
from .lrv import *  # noqa: F403
from .mc import *  # noqa: F403
from .series import *  # noqa: F403
from .tradeoff import *  # noqa: F403

# The public names are exactly the submodules' own ``__all__``.
__all__ = ["__version__", *series.__all__, *lrv.__all__, *dmtests.__all__,
           *tradeoff.__all__, *mc.__all__, *data.__all__]
