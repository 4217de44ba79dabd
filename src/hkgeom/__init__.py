"""hkgeom: numerical verification toolkit for explicit hyperkähler structures.

Finite-difference exterior calculus (forms), flat quaternionic space with
circle actions (flatspace), the closed-form hyperkähler metric on T*CP^1
(cotangent), Gibbons-Hawking multi-center spaces (gibbonshawking),
linear hyperkähler quotients (quotient), extended Dynkin diagram
combinatorics (dynkin), and flat twistor-space identities (twistor), plus
a CLI that runs the verification suites and emits JSON/CSV reports.
"""

__version__ = "0.1.0"

from . import errors
from .forms import FDScheme, FormField, ScalarField
from .report import CheckRecord, Report
from .suites import RunConfig, run_suite

__all__ = [
    "errors",
    "CheckRecord",
    "FDScheme",
    "FormField",
    "Report",
    "RunConfig",
    "ScalarField",
    "run_suite",
    "__version__",
]
