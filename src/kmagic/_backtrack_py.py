"""Pure-Python backtracking kernel and magic-sum check.

Reference implementations of the label search and of the magic-sum
check; kmagic._backtrack holds their compiled twins, with identical
semantics.  The search visits edges in the given order; when an edge is
the last unlabeled edge at one of its endpoints its label is forced by
the target sum, otherwise all of its allowed labels (1..k-1 unless
restricted) are tried in increasing order.  Every attempted assignment
counts as one node against the cap.
"""

from __future__ import annotations

SAT = 1
UNSAT = 0
UNDECIDED = -1

# magic_sum's answer for labels that are not one legal label per edge
MALFORMED = -1

# the largest n and k the compiled twins' C int arguments hold
C_INT_MAX = 2**31 - 1


def magic_sum(n, us, vs, labels, k):
    """The common vertex sum mod k of a labeling, or None.

    Edge i joins us[i] and vs[i].  labels is a dict from edge id to
    label.  Returns MALFORMED unless its keys are exactly the ids
    0..m-1 and every label is an int (a bool counts as one) in 1..k-1.
    Otherwise returns the vertex sum mod k when every vertex has the
    same one, and None when two differ or n is 0.  A vertex without
    edges sums to 0.  Raises ValueError when k < 2, when us and vs
    differ in length, or when an endpoint lies outside 0..n-1, and
    TypeError when labels is not a dict.
    """
    if k < 2:
        raise ValueError(f"magic_sum needs k >= 2, got {k}")
    m = len(us)
    if len(vs) != m:
        raise ValueError("us and vs differ in length")
    for i, (u, v) in enumerate(zip(us, vs)):
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {i} has an endpoint outside 0..{n - 1}")
    if not isinstance(labels, dict):
        raise TypeError("labels must be a dict")
    if len(labels) != m:
        return MALFORMED
    sums = [0] * n
    for i, (u, v) in enumerate(zip(us, vs)):
        x = labels.get(i)
        if not isinstance(x, int) or not 0 < x < k:
            return MALFORMED
        sums[u] += x
        sums[v] += x
    if n == 0:
        return None
    c = sums[0] % k
    return c if all(s % k == c for s in sums) else None


def search(n, k, c, us, vs, node_cap, targets=None, allowed=None):
    """Find an edge labeling with all vertex sums equal to c mod k.

    us/vs hold edge endpoints in assignment order; node_cap < 0 means
    unbounded.  targets, when given, holds one entry per vertex and
    replaces c: vertex v must sum to targets[v], a residue in 0..k-1, or
    to anything when targets[v] is None.  allowed, when given, holds one
    entry per edge in assignment order: None lets the edge take every
    label 1..k-1, a sequence of increasing labels within 1..k-1 limits
    it to those.  A vertex without edges is never checked: the solver
    settles isolated vertices before it searches.  Returns (status,
    labels or None, nodes) with labels in assignment order.  Raises
    ValueError when k < 2, when us and vs differ in length, when an
    endpoint lies outside 0..n-1, or when targets or allowed has the
    wrong length or an entry out of range.
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
    tgt = [c] * n
    if targets is not None:
        if len(targets) != n:
            raise ValueError("targets must hold one entry per vertex")
        for v, t in enumerate(targets):
            if t is None:
                left[v] += 1  # a phantom edge that is never labeled: no edge is ever its last
            elif not 0 <= t < k:
                raise ValueError(f"target of vertex {v} lies outside 0..{k - 1}")
            else:
                tgt[v] = t
    opts = [None] * m  # per edge: None, or its allowed labels and their set
    if allowed is not None:
        if len(allowed) != m:
            raise ValueError("allowed must hold one entry per edge")
        for i, labs in enumerate(allowed):
            if labs is None:
                continue
            labs = list(labs)
            if any(a >= b for a, b in zip([0] + labs, labs + [k])):
                raise ValueError(f"allowed labels of edge {i} must increase within 1..{k - 1}")
            opts[i] = (labs, set(labs))
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
        opt = opts[pos]
        x = 0
        if left[u] == 1 or left[v] == 1:
            if nxt[pos] == 1:
                if left[u] == 1:
                    f = (tgt[u] - sums[u] + k) % k
                    if left[v] == 1 and (tgt[v] - sums[v] + k) % k != f:
                        f = 0
                else:
                    f = (tgt[v] - sums[v] + k) % k
                if f != 0 and (opt is None or f in opt[1]):
                    x = f
                    nxt[pos] = k
        elif opt is None:
            t = nxt[pos]
            if t <= k - 1:
                x = t
                nxt[pos] = t + 1
        else:
            t = nxt[pos]  # 1 + the index of the next allowed label
            if t <= len(opt[0]):
                x = opt[0][t - 1]
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
