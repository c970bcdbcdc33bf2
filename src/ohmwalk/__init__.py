"""ohmwalk: exact two-point resistances, Kirchhoff indices, and
random-walk hitting times on circulant graphs, centered on the complete
graph minus opposite edges."""

from .circulant import *
from .exact import *
from .resistance import *
from .spectral import *
from .walks import *

__version__ = "0.1.0"

# each module's __all__ is its public API; the package publishes their union
__all__ = ["__version__"]
__all__ += circulant.__all__
__all__ += exact.__all__
__all__ += resistance.__all__
__all__ += spectral.__all__
__all__ += walks.__all__
