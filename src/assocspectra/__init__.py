"""Associative and fine spectra of finite p-ary groupoids, at desk scale.

The package enumerates bracketings (full p-ary trees over one variable),
moves between bracketings and their insertion tuples with exact counts,
manipulates level partitions under the implication operator, and computes
fine and associative spectra of finite groupoids given by operation tables.
"""

from . import errors, groupoids, insertion, spectra, terms
from .errors import *
from .terms import *
from .insertion import *
from .spectra import *
from .groupoids import *

__version__ = "0.1.0"

__all__ = sorted(errors.__all__ + terms.__all__ + insertion.__all__ + spectra.__all__
                 + groupoids.__all__)
