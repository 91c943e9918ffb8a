"""The one selection of the twin module behind the six twins: search,
magic_sum, petersen_split, split_search, vertex_profile and
maximum_matching.  kmagic._backtrack when the extension imports, else
the pure reference kmagic._backtrack_py.  Callers read it at call time,
so replacing module switches all six.  Each label search of the solver
is one split_search call, components included, and each graph's
degrees, components and component orders are one vertex_profile call.
"""

from . import _backtrack_py
from ._backtrack_py import C_INT_MAX

try:
    from . import _backtrack as module
except ImportError:  # extension not built
    module = _backtrack_py


def for_modulus(k: int, twin=None):
    """twin, by default the selected module, for modulus k; the compiled
    twins read k as a C int, so a k past that range goes to the pure one."""
    if k > C_INT_MAX:
        return _backtrack_py
    return module if twin is None else twin
