"""Sobolev calculus for diffeomorphisms of the torus, with verification suites.

The package splits into a spectral core (grids, transforms, derivatives),
norm machinery, a certified multiplication/division layer, the
diffeomorphism group with composition and Newton inversion, the Taylor
calculus of the composition map, geodesic exponential maps, and a suite
runner exposed through the `torusdiff` CLI.

Importing the package runs BLAS on one thread by default: when numpy is not
yet imported and none of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS is set, all four are set to "1"; a
second OpenBLAS thread buys the suites no wall time.  Setting any one of them
overrides the default, a program that imported numpy first keeps numpy's
threads, and child processes inherit the variables.
"""

import os
import sys

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in _THREAD_VARS):
    os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))

from .algebra import StabilityError, UsetCertificate, divide, multiply, uset_membership
from .calculus import (
    eta_k,
    inv_differential,
    remainder_r1,
    remainder_r2,
    taylor_defect,
)
from .diffeo import (
    Diffeo,
    DiffeoError,
    InversionError,
    compose_diffeo,
    compose_function,
    invert,
    make_diffeo,
)
from .geodesic import (
    Metric,
    conformal_metric_2d,
    exp_field,
    flat_metric,
    geodesic_flow,
)
from .grid import (
    GridFunction,
    GridSpec,
    Spectrum,
    differentiate,
    evaluate,
    forward_transform,
    fourier_truncate,
    inverse_transform,
    random_field,
    refine,
)
from .norms import (
    cr_norm,
    hs_norm,
    hs_norm_derivative,
    slobodeckij_seminorm,
)
from .report import SuiteReport, load_diffeo, load_field
from .suites import SUITES, default_config, run_all, run_suite

__version__ = "0.1.0"
