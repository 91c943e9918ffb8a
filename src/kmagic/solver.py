"""Budgeted driver around the backtracking kernel.

The kernel is the search of the twin module kmagic._twin selects: the
compiled one when the extension built, otherwise the pure Python twin.
The search fixes labels in breadth-first edge order and prunes as soon
as a vertex with no unlabeled edges misses the target sum; every search
runs under the budget's node cap and reports undecided instead of
guessing when the cap runs out.  Each question is one call of the same
twin module's split_search, which settles parity and isolated vertices
by counting, splits the graph into its connected components and plans
each component's bridge tree (its bridges, its 2-edge-connected pieces
and their search order) and searches it: a bridgeless component is one
piece and one kernel search, a component with bridges is searched one
piece at a time (see search_labeling).  search_labeling wraps a found
labeling in an EdgeLabeling; callers that read only whether one exists
(the spectrum oracle, the zero-sum test) take the bare status from
_search_status, the same call without the wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _backtrack_py, _twin
from ._backtrack_py import SAT, UNDECIDED, UNSAT
from .errors import KmagicError
from .graphs import MultiGraph
from .labelings import EdgeLabeling

# the twin module selected at import, by name: it runs the search kernel,
# the magic-sum check, the Petersen split, the split search, the vertex
# profile and the maximum matching
_kernel = _twin.module
KERNEL = "pure-python" if _kernel is _backtrack_py else "compiled"


@dataclass(frozen=True)
class SolverBudget:
    """The search limit: node_cap, an int of at least 1.

    The twin's split_search applies it to each connected component on
    its own, so a disconnected graph may take up to node_cap nodes per
    component.  A component with bridges is searched piece by piece;
    node_cap holds for the sum of all its piece searches, each counting
    at least one node, and when that runs out the component is
    undecided.
    """

    node_cap: int = 10**8

    def __post_init__(self):
        if type(self.node_cap) is not int or self.node_cap < 1:
            raise KmagicError(f"node_cap must be an int >= 1, got {self.node_cap!r}")


DEFAULT_BUDGET = SolverBudget()

_STATUS = {SAT: "found", UNSAT: "absent", UNDECIDED: "undecided"}


@dataclass(frozen=True)
class SearchResult:
    status: str  # "found" | "absent" | "undecided"
    labeling: EdgeLabeling | None
    nodes: int


def search_labeling(
    G: MultiGraph, k: int, c: int, budget: SolverBudget | None = None, kernel=None
) -> SearchResult:
    """Search for a c-sum k-magic labeling of G.

    Deterministic: the same question always gets the same labeling.
    Never wrong: status "undecided" is reported when the node cap is
    hit.  The question is one split_search call of the twin, which uses
    four facts (see kmagic._backtrack_py.split_search):

    - the vertex sums add up to twice the label sum, so when k is even
      and n*c is odd the answer is "absent" at 0 nodes;
    - an isolated vertex sums to 0, so it rules out every c != 0;
    - a labeling of G is one labeling per connected component, so a
      disconnected G is searched one component at a time, in order of
      smallest vertex, each under its own budget, stopping at the first
      absent one;
    - a labeling of a component is one labeling per 2-edge-connected
      piece, with each bridge's label counted at both of its ends, so a
      component with bridges is split at them.

    Node counts add up.  On a graph whose components have no bridges the
    labeling and the node count are those of one kernel search over all
    of G, since the breadth-first order of G finishes each component
    before it starts the next; a split component has its own search
    order, and may get another labeling.

    The compiled kernel reads n, k and c as C ints, so a k past that
    range goes to the pure twin whatever kernel was asked for.
    """
    status, labels, nodes = _split_search(G, k, c, budget, kernel)
    labeling = None if labels is None else EdgeLabeling(k, tuple(labels))
    return SearchResult(status, labeling, nodes)


def _search_status(G: MultiGraph, k: int, c: int, budget: SolverBudget | None = None) -> str:
    """The status search_labeling(G, k, c, budget) reports, without the
    labeling: for callers that read only whether a labeling exists."""
    return _split_search(G, k, c, budget)[0]


def _split_search(G: MultiGraph, k: int, c: int, budget: SolverBudget | None, kernel=None):
    """(status, labels by edge id or None, nodes) of one split_search call."""
    if k < 2:
        raise KmagicError("label search needs k >= 2")
    impl = _twin.for_modulus(k, kernel)
    node_cap = (budget or DEFAULT_BUDGET).node_cap
    status, labels, nodes = impl.split_search(G.n, k, c % k, G.us, G.vs, node_cap)
    return _STATUS[status], labels, nodes


def available_kernels() -> dict[str, object]:
    """Importable kernels by name; always includes the pure one."""
    return {"pure-python": _backtrack_py, KERNEL: _kernel}
