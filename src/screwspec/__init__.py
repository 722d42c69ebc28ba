"""Bound states of a quantum particle around a screw dislocation.

Series quantisation of the radial problem (with an Aharonov-Bohm flux
line, frame rotation, and either a harmonic trap or a bare inverse-square
potential), closed-form audits, and an independent finite-difference
oracle.  See the README for the command-line interface.

A public name is declared once, in its module's ``__all__``; the package
exports the union of those.
"""

from . import oracle, params, series, spectrum, sweep, verify
from .oracle import *
from .params import *
from .series import *
from .spectrum import *
from .sweep import *
from .verify import *

__version__ = "0.1.0"

__all__ = [*params.__all__, *series.__all__, *spectrum.__all__, *oracle.__all__, *sweep.__all__,
           *verify.__all__, "__version__"]
