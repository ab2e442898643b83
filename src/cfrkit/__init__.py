"""Delay-adjusted case fatality rate estimation from epidemic line lists.

Workflow: read a line list into daily case counts and death events as it
streams (`parse_csv`, whose table `aggregate` returns), fit or supply a
confirmation-to-death delay distribution (`fit_empirical`, `fit_nb_mle`,
`fit_zinb_mle`), then evaluate the estimators day by day
(`estimate_series`) or study them on synthetic epidemics (`run_study`).
"""

from . import errors, estimators, linelist, simulation, survival
from .errors import *
from .estimators import *
from .linelist import *
from .simulation import *
from .survival import *

__version__ = "0.1.0"

__all__ = (
    errors.__all__
    + estimators.__all__
    + linelist.__all__
    + simulation.__all__
    + survival.__all__
    + ["__version__"]
)
