"""Pure-Python backtracking kernel.

Reference implementation of the label search; kmagic._backtrack is the
compiled twin with identical semantics.  Edges are visited in the given
order; when an edge is the last unlabeled edge at one of its endpoints
its label is forced by the target sum, otherwise all of 1..k-1 are
tried in increasing order.  Every attempted assignment counts as one
node against the cap.
"""

from __future__ import annotations

SAT = 1
UNSAT = 0
UNDECIDED = -1


def search(n, k, c, us, vs, node_cap):
    """Find an edge labeling with all vertex sums equal to c mod k.

    us/vs hold edge endpoints in assignment order; node_cap < 0 means
    unbounded.  Returns (status, labels or None, nodes) with labels in
    assignment order.  Raises ValueError when k < 2, when us and vs
    differ in length or when an endpoint lies outside 0..n-1.
    """
    if k < 2:
        raise ValueError(f"search needs k >= 2, got {k}")
    m = len(us)
    if len(vs) != m:
        raise ValueError("us and vs differ in length")
    left = [0] * n
    for i in range(m):
        if not (0 <= us[i] < n and 0 <= vs[i] < n):
            raise ValueError(f"edge {i} has an endpoint outside 0..{n - 1}")
        left[us[i]] += 1
        left[vs[i]] += 1
    sums = [0] * n
    labels = [0] * m
    nxt = [1] * m
    nodes = 0
    pos = 0
    while True:
        if pos == m:
            return SAT, list(labels), nodes
        u = us[pos]
        v = vs[pos]
        x = 0
        if left[u] == 1 or left[v] == 1:
            if nxt[pos] == 1:
                if left[u] == 1:
                    f = (c - sums[u] + k) % k
                    if left[v] == 1 and (c - sums[v] + k) % k != f:
                        f = 0
                else:
                    f = (c - sums[v] + k) % k
                if f != 0:
                    x = f
                    nxt[pos] = k
        else:
            t = nxt[pos]
            if t <= k - 1:
                x = t
                nxt[pos] = t + 1
        if x == 0:
            nxt[pos] = 1
            pos -= 1
            if pos < 0:
                return UNSAT, None, nodes
            y = labels[pos]
            pu = us[pos]
            pv = vs[pos]
            sums[pu] = (sums[pu] - y + k) % k
            sums[pv] = (sums[pv] - y + k) % k
            left[pu] += 1
            left[pv] += 1
            continue
        nodes += 1
        if 0 <= node_cap < nodes:
            return UNDECIDED, None, nodes
        labels[pos] = x
        sums[u] = (sums[u] + x) % k
        sums[v] = (sums[v] + x) % k
        left[u] -= 1
        left[v] -= 1
        pos += 1
