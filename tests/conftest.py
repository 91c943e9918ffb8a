"""Shared fixtures: the reference graph corpus and small helpers."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from kmagic import (
    MultiGraph,
    build_graph,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    petersen,
    prism,
)
from kmagic import _backtrack_py, _twin

# Named corpus used across module and acceptance tests.  Mix of odd and
# even degree, odd and even order, bipartite and not, one disconnected.
CORPUS_BUILDERS = {
    "K4": lambda: complete(4),
    "K5": lambda: complete(5),
    "K6": lambda: complete(6),
    "K33": lambda: complete_bipartite(3, 3),
    "petersen": petersen,
    "prism3": lambda: prism(3),
    "cube": lambda: prism(4),
    "C3+C4": lambda: disjoint_union([cycle(3), cycle(4)]),
    "circ8_12": lambda: circulant(8, (1, 2)),
}


@pytest.fixture(scope="session")
def corpus() -> dict[str, MultiGraph]:
    return {name: make() for name, make in CORPUS_BUILDERS.items()}


def bridged_cubic_16() -> MultiGraph:
    """Cubic graph on 16 vertices: a hub joined by bridges to three
    copies of K4 with one edge subdivided.  Has no perfect matching
    (removing the hub leaves three odd components), so no spanning
    subgraph with all degrees 1 mod 3 exists."""
    pairs: list[tuple[int, int]] = []
    hub = 0
    base = 1
    for _ in range(3):
        a, b, x, y, w = range(base, base + 5)
        # K4 on {a, b, x, y} with edge (a, b) subdivided through w
        pairs += [(a, w), (w, b), (a, x), (a, y), (b, x), (b, y), (x, y)]
        pairs.append((hub, w))
        base += 5
    return build_graph(16, pairs)


@pytest.fixture(scope="session")
def bridged16() -> MultiGraph:
    return bridged_cubic_16()


def unmatched_cubic_28() -> MultiGraph:
    """Cubic graph on 28 vertices without a perfect matching in which no
    vertex has only cut edges: hubs 0, 1 and 2, each joined by a bridge to
    the subdividing vertex of its own K4 with one edge subdivided, and two
    5-vertex blocks on a, b, c, d, e (edges de, da, db, ec, ea, bc) whose
    a, b and c are joined to hubs 0, 1 and 2.  Removing the hubs leaves
    five odd components.  The label-2 edges of a zero sum mod 4 on a cubic
    graph form a perfect matching, so there is none here."""
    pairs: list[tuple[int, int]] = []
    base = 3
    for hub in range(3):
        a, b, x, y, w = range(base, base + 5)
        pairs += [(a, w), (w, b), (a, x), (a, y), (b, x), (b, y), (x, y), (hub, w)]
        base += 5
    for _ in range(2):
        a, b, c, d, e = range(base, base + 5)
        pairs += [(d, e), (d, a), (d, b), (e, c), (e, a), (b, c), (a, 0), (b, 1), (c, 2)]
        base += 5
    return build_graph(28, pairs)


def hub_quintic_16() -> MultiGraph:
    """5-regular multigraph on 16 vertices without a perfect matching: a
    hub joined to vertex a of each of five triangles a, b, c with edge
    multiplicities ab 2, ac 2 and bc 3.  Its zero sum mod 3 has neither
    an h-factor split nor doubling parameters, so the solver finds it."""
    pairs: list[tuple[int, int]] = []
    for a in (1, 4, 7, 10, 13):
        b, c = a + 1, a + 2
        pairs += [(0, a)] + [(a, b)] * 2 + [(a, c)] * 2 + [(b, c)] * 3
    return build_graph(16, pairs)


def two_hub_even(r: int) -> MultiGraph:
    """r copies of K_{r+1} minus an edge, the two ends of each removed
    edge joined to hubs 0 and 1.  For even r it is r-regular, of even
    order, and has no perfect matching: removing the hubs leaves r odd
    components.  Odd sums at even k on it reach the even-degree specials."""
    pairs: list[tuple[int, int]] = []
    for base in range(2, 2 + r * (r + 1), r + 1):
        pairs += [
            (base + i, base + j)
            for i in range(r + 1)
            for j in range(i + 1, r + 1)
            if (i, j) != (0, 1)
        ]
        pairs += [(0, base), (1, base + 1)]
    return build_graph(2 + r * (r + 1), pairs)


def quintic38() -> MultiGraph:
    """5-regular graph on 38 vertices, bridgeless and without a perfect
    matching: five copies of K7 minus the triangle 456 and the edges 01
    and 23, with vertices 4, 5 and 6 of each joined to hubs 0, 1 and 2.
    Removing the hubs leaves five odd components.  Theory leaves its zero
    sum mod 4 to the solver, whose search takes 64,414 nodes."""
    missing = {(4, 5), (4, 6), (5, 6), (0, 1), (2, 3)}
    pairs: list[tuple[int, int]] = []
    for base in range(3, 38, 7):
        pairs += [
            (base + i, base + j)
            for i in range(7)
            for j in range(i + 1, 7)
            if (i, j) not in missing
        ]
        pairs += [(base + 4, 0), (base + 5, 1), (base + 6, 2)]
    return build_graph(38, pairs)


def hub10() -> MultiGraph:
    """9-regular multigraph on 10 vertices without a perfect matching:
    a hub joined by 3 parallel edges to one vertex of each of three
    triangles whose sides have multiplicities 3, 3 and 6.  Removing the
    hub leaves three odd components, yet a factor with degrees in
    {1, 4} exists."""
    pairs: list[tuple[int, int]] = []
    for a in (1, 4, 7):
        b, c = a + 1, a + 2
        pairs += [(0, a)] * 3 + [(a, b)] * 3 + [(a, c)] * 3 + [(b, c)] * 6
    return build_graph(10, pairs)


@pytest.fixture
def pure_twin(monkeypatch):
    """The pure twin module, run for the test's search kernel, magic-sum
    check and Petersen split alike."""
    monkeypatch.setattr(_twin, "module", _backtrack_py)
    return _backtrack_py


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The compiled search kernel: the packaged kmagic._backtrack when it
    imports, else src/kmagic/_backtrack.c built into a temporary directory.
    Skips only when no C compiler can build it."""
    try:
        from kmagic import _backtrack

        return _backtrack
    except ImportError:
        pass
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext
    from setuptools.errors import CCompilerError, ExecError, PlatformError

    source = Path(__file__).resolve().parents[1] / "src" / "kmagic" / "_backtrack.c"
    out = tmp_path_factory.mktemp("kernel")
    cmd = build_ext(Distribution({"ext_modules": [Extension("_backtrack", [str(source)])]}))
    cmd.build_lib = cmd.build_temp = str(out)
    cmd.ensure_finalized()
    try:
        cmd.run()
    except (CCompilerError, ExecError, PlatformError) as exc:
        pytest.skip(f"compiled kernel cannot be built: {exc}")
    spec = importlib.util.spec_from_file_location(
        "kmagic._backtrack", cmd.get_ext_fullpath("_backtrack")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
