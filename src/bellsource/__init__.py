"""Exact simulator and analysis toolkit for a bipartite entangled-pair source.

Builds the source states, applies the post-control distortion
parameterization, performs the non-local Bell-basis characterization
measurement, and solves the forward (population prediction) and inverse
(parameter inference, population steering) problems.
"""

from .characterize import *
from .control import *
from .distortion import *
from .source import *
from .statevec import *

__version__ = "0.1.0"
