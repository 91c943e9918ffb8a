"""Shared fixtures: the reference graph corpus and small helpers."""

from __future__ import annotations

import importlib.util
import sys
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import pytest

from kmagic import (
    MultiGraph,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    petersen,
    prism,
)
from kmagic import _backtrack_py, _twin

# the hard graphs are defined once, beside the digest corpus that uses them
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from digest import (  # noqa: E402,F401
    bridged_cubic_16,
    hub10,
    hub_quintic_16,
    quintic38,
    two_hub_even,
    unmatched_cubic_28,
)

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


def assignment_order(G: MultiGraph) -> list[int]:
    """Edge ids in breadth-first order from the smallest vertex on: on a
    connected bridgeless G, the order of bridge_tree's one piece, and the
    order of one search over a whole graph whose components have no
    bridges."""
    us, vs = G.us, G.vs
    order: list[int] = []
    edge_seen = [False] * G.m
    visited = [False] * G.n
    for s in range(G.n):
        if visited[s]:
            continue
        visited[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for eid in G.incident[u]:
                if not edge_seen[eid]:
                    edge_seen[eid] = True
                    order.append(eid)
                w = us[eid] + vs[eid] - u
                if not visited[w]:
                    visited[w] = True
                    queue.append(w)
    return order


@pytest.fixture(scope="session")
def corpus() -> dict[str, MultiGraph]:
    return {name: make() for name, make in CORPUS_BUILDERS.items()}


@pytest.fixture(scope="session")
def bridged16() -> MultiGraph:
    return bridged_cubic_16()


def twin_spy(monkeypatch, *names):
    """Replace the twin module by one that offers only the twins names,
    each recording its calls as (name, n) in the returned list."""
    twin = _twin.module
    calls = []

    def spy(name):
        def call(n, *args):
            calls.append((name, n))
            return getattr(twin, name)(n, *args)

        return call

    monkeypatch.setattr(_twin, "module", SimpleNamespace(**{name: spy(name) for name in names}))
    return calls


@pytest.fixture
def pure_twin(monkeypatch):
    """The pure twin module, run for all six twins of the test: search,
    magic_sum, petersen_split, split_search, vertex_profile and
    maximum_matching."""
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
