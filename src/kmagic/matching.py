"""Maximum-cardinality matching in a simple graph (Edmonds 1965).

The graph is given as adjacency lists over the vertices 0..n-1.  A
greedy pass matches what it can; then, from each vertex still exposed,
a breadth-first search grows an alternating tree.  An edge between two
even vertices of the tree closes an odd cycle, a blossom, which is
contracted by pointing the base of each of its vertices at the base of
the cycle (their lowest common ancestor in the tree), after which the
odd vertices of the cycle are searched from as even ones.  An exposed
odd vertex ends an augmenting path, which is flipped along the parent
and mate links.  A vertex from which no augmenting path starts never
gets one later (Edmonds), so one pass over the vertices suffices.
Everything runs in loops; nothing recurses.
"""

from __future__ import annotations

from typing import Sequence


def maximum_matching(adj: Sequence[Sequence[int]]) -> list[int]:
    """Mate of every vertex in a maximum matching, -1 where exposed.

    adj[v] lists the neighbours of v; the graph must be simple (no loops)
    and each edge listed at both ends.  Deterministic: the same lists in
    the same order give the same matching.
    """
    n = len(adj)
    mate = [-1] * n
    for v in range(n):
        if mate[v] < 0:
            for w in adj[v]:
                if mate[w] < 0:
                    mate[v], mate[w] = w, v
                    break
    for root in range(n):
        if mate[root] < 0:
            end, parent = _augmenting_path(adj, mate, root)
            while end >= 0:
                v = parent[end]
                after = mate[v]
                mate[end], mate[v] = v, end
                end = after
    return mate


def _augmenting_path(adj, mate, root: int) -> tuple[int, list[int]]:
    """Exposed end of an augmenting path from root and the parent links
    that trace it back, or (-1, parent) when there is none."""
    n = len(adj)
    base = list(range(n))
    parent = [-1] * n  # the even vertex an odd vertex was reached from
    even = [False] * n
    even[root] = True
    tree = [root]  # every vertex the tree holds; only they have base[v] != v
    queue = [root]
    for v in queue:
        for w in adj[v]:
            if base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] >= 0 and parent[mate[w]] >= 0):
                # v and w are both even: contract the blossom they close
                top = _common_base(base, mate, parent, v, w)
                in_blossom = set()
                _mark_path(base, mate, parent, in_blossom, v, top, w)
                _mark_path(base, mate, parent, in_blossom, w, top, v)
                for u in tree:
                    if base[u] in in_blossom:
                        base[u] = top
                        if not even[u]:
                            even[u] = True
                            queue.append(u)
            elif parent[w] < 0:
                parent[w] = v
                tree.append(w)
                if mate[w] < 0:
                    return w, parent
                x = mate[w]
                even[x] = True
                tree.append(x)
                queue.append(x)
    return -1, parent


def _common_base(base, mate, parent, a: int, b: int) -> int:
    """Base of the blossom closed by the edge between even vertices a, b."""
    seen = set()
    while True:
        a = base[a]
        seen.add(a)
        if mate[a] < 0:
            break
        a = parent[mate[a]]
    while True:
        b = base[b]
        if b in seen:
            return b
        b = parent[mate[b]]


def _mark_path(base, mate, parent, in_blossom: set, v: int, top: int, child: int) -> None:
    """Walk from v up to the blossom base top, recording the bases passed
    and pointing each odd vertex's parent across the closing edge."""
    while base[v] != top:
        in_blossom.add(base[v])
        in_blossom.add(base[mate[v]])
        parent[v] = child
        child = mate[v]
        v = parent[mate[v]]
