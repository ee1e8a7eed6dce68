"""Mesh-free quadrature for regions bounded by rational Bezier geometry.

Planar regions, trimmed surface patches and solids bounded by closed
patch unions are all integrated the same way: the domain integral is
pushed to the boundary with Green's/Stokes' theorem and the inner
antiderivative is evaluated with one extra layer of Gauss points.
"""

from . import bezier, errors, expr, io, moments, planar, quad1d
from . import shapes, surface, trimfit, volume
from .bezier import *
from .errors import *
from .expr import *
from .io import *
from .moments import *
from .planar import *
from .quad1d import *
from .shapes import *
from .surface import *
from .trimfit import *
from .volume import *

__version__ = "0.1.0"

# every module's public names, modules in alphabetical order
__all__ = [
    name
    for module in (bezier, errors, expr, io, moments, planar, quad1d, shapes, surface, trimfit, volume)
    for name in module.__all__
] + ["__version__"]
