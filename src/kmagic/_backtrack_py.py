"""Pure-Python backtracking kernel, magic-sum check, Petersen split,
split search, vertex profile and maximum matching.

Reference implementations of the label search, of the magic-sum check,
of the Petersen 2-factor split, of the split search (split_search: the
solver's label search of any graph, settled by counting where it can,
then one component at a time, each with one search per piece and
parent-bridge label over its bridge tree, which bridge_tree plans), of
the vertex profile (vertex_profile: each vertex's degree and component,
and each component's order) and of the maximum matching
(maximum_matching: Edmonds' blossom search, behind every perfect
matching and f-factor of kmagic.factors); kmagic._backtrack holds their
compiled twins, with identical semantics, and kmagic._twin picks one of
the two modules for all six.  search and every piece search of
split_search run one loop, _kernel, which visits edges in the given
order; when an edge is the last unlabeled edge at one of its endpoints
its label is forced by the target sum, otherwise all of its allowed
labels (1..k-1, or a child bridge's feasible labels in a piece search)
are tried in increasing order.  Every attempted assignment counts as
one node against the cap; node_cap < 0 means unbounded, in search and
split_search alike, and the searches of one component in split_search
share one cap.

The module has one matcher, _matching, the search of maximum_matching:
each round of petersen_split but the last is a maximum matching of the
out/in incidence graph, found by that same search.

The scalar arguments n, k, c and node_cap are read through
operator.index, as the compiled twins read their C ints: any other type
raises TypeError before any other check.  Every twin takes its
multigraph as (n, us, vs): vertices 0..n-1, edge i joining us[i] and
vs[i].  One reader, _read_edges, is the only code that reads us and vs,
and it holds all six twins to one contract:

- n < 0 raises ValueError;
- us and vs may be any iterables, each read once;
- a non-int end raises TypeError, as operator.index does, the ends of
  us first;
- then unequal lengths raise ValueError ("differ in length"),
- and an end outside 0..n-1 raises ValueError ("endpoint"), at the
  first such edge.

A twin's own rules on n alone come before the reader, its rules on the
edges after it.
"""

from __future__ import annotations

from operator import index

SAT = 1
UNSAT = 0
UNDECIDED = -1

# magic_sum's answer for labels that are not one legal label per edge
MALFORMED = -1

# the largest n and k the compiled twins' C int arguments hold
C_INT_MAX = 2**31 - 1

_NOT_EVEN_REGULAR = "need an even-regular graph with degree >= 2"


def _read_edges(n, us, vs):
    """The graph argument of every twin: us and vs as lists of ints,
    read and checked as the module header states."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    us, vs = list(map(index, us)), list(map(index, vs))
    if len(us) != len(vs):
        raise ValueError("us and vs differ in length")
    for i, (u, v) in enumerate(zip(us, vs)):
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {i} has an endpoint outside 0..{n - 1}")
    return us, vs


def _refuse_loops(us, vs):
    """Raise ValueError at the first edge that is a loop."""
    for i, (u, v) in enumerate(zip(us, vs)):
        if u == v:
            raise ValueError(f"edge {i} is a loop")


def _adjacency(n, us, vs):
    """Per vertex, its (other end, edge id) pairs in edge-id order; a
    loop is listed twice at its vertex."""
    adjacency = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(zip(us, vs)):
        adjacency[u].append((v, eid))
        adjacency[v].append((u, eid))
    return adjacency


def magic_sum(n, us, vs, labels, k):
    """The common vertex sum mod k of a labeling, or None.

    (n, us, vs) is the graph, as the module header states.  labels is a
    tuple or list holding edge i's label at index i.  Returns MALFORMED
    unless it holds m labels, each an int (a bool counts as one) in
    1..k-1.  Otherwise returns the vertex sum mod k when every vertex has
    the same one, and None when two differ or n is 0.  A vertex without
    edges sums to 0.  Raises ValueError when k < 2, checked before the
    graph, and TypeError when labels is neither a tuple nor a list.
    """
    n, k = index(n), index(k)
    if k < 2:
        raise ValueError(f"magic_sum needs k >= 2, got {k}")
    us, vs = _read_edges(n, us, vs)
    if not isinstance(labels, (tuple, list)):
        raise TypeError("labels must be a tuple or list")
    if len(labels) != len(us):
        return MALFORMED
    sums = [0] * n
    for u, v, x in zip(us, vs, labels):
        if not isinstance(x, int) or not 0 < x < k:
            return MALFORMED
        sums[u] += x
        sums[v] += x
    if n == 0:
        return None
    c = sums[0] % k
    return c if all(s % k == c for s in sums) else None


def search(n, k, c, us, vs, node_cap):
    """Find an edge labeling with all vertex sums equal to c mod k.

    (n, us, vs) is the graph, as the module header states, its edges in
    assignment order; node_cap < 0 means unbounded.  A vertex without
    edges is never checked: the solver settles isolated vertices before
    it searches.  Returns (status, labels or None, nodes) with labels in
    assignment order.  Raises ValueError when k < 2, checked before the
    graph, or when an edge is a loop, checked after it.
    """
    n, k, c, node_cap = index(n), index(k), index(c), index(node_cap)
    if k < 2:
        raise ValueError(f"search needs k >= 2, got {k}")
    us, vs = _read_edges(n, us, vs)
    _refuse_loops(us, vs)
    return _kernel(us, vs, k, [c % k] * n, [None] * len(us), node_cap)


def _kernel(us, vs, k, targets, allowed, node_cap):
    """The search loop of search and of every piece search of
    split_search.

    Edge i joins us[i] and vs[i] and may take the labels allowed[i], an
    increasing list within 1..k-1, or every label 1..k-1 when allowed[i]
    is None.  Vertex v must sum to targets[v], a residue in 0..k-1, or to
    anything when targets[v] is None.  Returns (status, labels or None,
    nodes); node_cap < 0 means unbounded.
    """
    n, m = len(targets), len(us)
    # a free vertex has a phantom edge that is never labeled: no edge is ever its last
    left = [int(t is None) for t in targets]
    for u, v in zip(us, vs):
        left[u] += 1
        left[v] += 1
    tgt = [0 if t is None else t for t in targets]
    # per edge: None, or its allowed labels and their set
    opts = [None if labs is None else (labs, set(labs)) for labs in allowed]
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


def petersen_split(n, us, vs):
    """The 2-factors of an even-regular multigraph (Petersen, 1891).

    (n, us, vs) is the graph, as the module header states.  Returns one
    list of edge ids in increasing order per 2-factor.  The graph is
    oriented once so that every vertex is left by half of its edges.
    Every round but the last is one _matching call, the search of
    maximum_matching, on the out/in incidence graph of the edges no
    earlier round took, in edge-id order: tails 0..n-1, heads n..2n-1.
    That graph is regular, so its maximum matchings are perfect, and the
    round takes each tail's matched edge.  The last round is the edges
    left, that graph's only perfect matching by then.  Raises ValueError
    when the graph is not regular of even degree at least 2; n < 1 is
    refused before the graph is read.
    """
    n = index(n)
    if n < 1:
        raise ValueError(_NOT_EVEN_REGULAR)
    us, vs = _read_edges(n, us, vs)
    m = len(us)
    if m < n:  # a vertex would have no edges: checked before allocating per vertex
        raise ValueError(_NOT_EVEN_REGULAR)
    adjacency = _adjacency(n, us, vs)
    d = len(adjacency[0])
    if d < 2 or d % 2 or any(len(adj) != d for adj in adjacency):
        raise ValueError(_NOT_EVEN_REGULAR)
    tail = _orient(adjacency, m)
    left = range(m)
    parts = []
    for _ in range(d // 2 - 1):
        mates = _matching(2 * n, [tail[e] for e in left], [n + us[e] + vs[e] - tail[e] for e in left])[:n]
        if -1 in mates:
            raise RuntimeError("out/in incidence graph lost regularity")
        taken = set(mates)
        parts.append([e for j, e in enumerate(left) if j in taken])
        left = [e for j, e in enumerate(left) if j not in taken]
    parts.append(list(left))
    return parts


def bridge_tree(n, us, vs):
    """The 2-edge-connected pieces of a connected multigraph, as the
    solver searches them.

    (n, us, vs) is the graph, as the module header states.  The
    bridges come from one lowpoint walk (Tarjan, 1974); a parallel edge
    is never a bridge.  Returns one tuple (n_local, entry, order, us,
    vs, children, edgeless) per piece, the piece of vertex 0 first and
    each piece after its parent.  A piece's vertices are numbered
    0..size-1 in ascending order, and a piece with child bridges has one
    more vertex, a stub standing for every child piece; n_local counts
    the stub.  order holds the edge ids labeled in the piece, its own
    edges and its child bridges, in breadth-first order from entry, the
    local vertex at its parent bridge (at the root, vertex 0); us and vs
    are their local ends, us the end the walk reached first and vs the
    stub for a child bridge.  children holds (position in order, child
    piece index) per child bridge; edgeless is True for a single vertex.
    A bridgeless graph is one piece whose order is the breadth-first
    edge order from vertex 0.  Raises ValueError when n < 1, checked
    before the graph is read, or when the graph is not connected.
    """
    if n < 1:
        raise ValueError(f"bridge_tree needs n >= 1, got {n}")
    us, vs = _read_edges(n, us, vs)
    m = len(us)
    if m < n - 1:  # checked before allocating per vertex
        raise ValueError("graph is not connected")
    adjacency = _adjacency(n, us, vs)
    # the lowpoint walk from vertex 0, via[w] the tree edge that reached w
    disc = [-1] * n
    low = [0] * n
    via = [-1] * n
    nxt = [0] * n
    bridge = bytearray(m)
    disc[0] = 0
    seen = 1
    stack = [0]
    while stack:
        u = stack[-1]
        if nxt[u] < len(adjacency[u]):
            w, eid = adjacency[u][nxt[u]]
            nxt[u] += 1
            if eid == via[u]:
                continue
            if disc[w] < 0:
                disc[w] = low[w] = seen
                seen += 1
                via[w] = eid
                stack.append(w)
            elif disc[w] < low[u]:
                low[u] = disc[w]
            continue
        stack.pop()
        if stack:
            p = stack[-1]
            if low[u] > disc[p]:
                bridge[via[u]] = 1
            low[p] = min(low[p], low[u])
    if seen < n:
        raise ValueError("graph is not connected")
    # the pieces, numbered by smallest vertex, and each vertex's local number
    piece_of = [-1] * n
    size = []
    for s in range(n):
        if piece_of[s] >= 0:
            continue
        piece_of[s] = len(size)
        comp = [s]
        for u in comp:
            for w, eid in adjacency[u]:
                if piece_of[w] < 0 and not bridge[eid]:
                    piece_of[w] = piece_of[s]
                    comp.append(w)
        size.append(0)
    local = [0] * n
    for v in range(n):
        local[v] = size[piece_of[v]]
        size[piece_of[v]] += 1
    # top-down over the bridge tree: each piece walked breadth-first from
    # its entry, each child bridge queuing its child piece
    edge_seen = bytearray(m)
    visited = bytearray(n)
    todo = [0]  # entry vertex per piece, in output order
    pieces = []
    for entry in todo:
        stub = size[piece_of[entry]]
        order, pus, pvs, children = [], [], [], []
        visited[entry] = 1
        queue = [entry]
        for u in queue:
            for w, eid in adjacency[u]:
                if edge_seen[eid]:
                    continue
                edge_seen[eid] = 1
                order.append(eid)
                pus.append(local[u])
                if bridge[eid]:
                    children.append((len(order) - 1, len(todo)))
                    todo.append(w)
                    pvs.append(stub)
                    continue
                pvs.append(local[w])
                if not visited[w]:
                    visited[w] = 1
                    queue.append(w)
        pieces.append((stub + bool(children), local[entry], tuple(order), tuple(pus),
                       tuple(pvs), tuple(children), stub == 1))
    return pieces


def split_search(n, k, c, us, vs, node_cap):
    """Find an edge labeling of a multigraph with all vertex sums equal
    to c mod k, one connected component at a time, each searched piece
    by piece over its bridge tree.

    (n, us, vs) is the graph, as the module header states; node_cap < 0
    means unbounded.  Counting settles part of the question at 0 nodes:
    the vertex sums add up to twice the label sum, so at even k an odd
    n * c is absent, and a vertex without edges sums to 0, so it rules
    out every c != 0 mod k.  A labeling of the graph is one labeling per
    component, so the components, as _split lays them out, are then
    searched in turn: at even k a component on n_C vertices with n_C * c
    odd is absent at 0 nodes, a lone vertex is found at 0 nodes, and any
    other component is one _split_connected search under its own
    node_cap.  The first absent component ends the search; an undecided
    one does not, since a later one may still be absent, and the answer
    is then undecided.  Node counts add up.  Returns (status, labels or None, nodes) with labels
    indexed by the graph's edge ids.  Raises ValueError when k < 2 or
    n < 1, checked in that order before the graph, or when an edge is a
    loop, checked after it.
    """
    n, k, c, node_cap = index(n), index(k), index(c), index(node_cap)
    if k < 2:
        raise ValueError(f"split_search needs k >= 2, got {k}")
    if n < 1:
        raise ValueError(f"split_search needs n >= 1, got {n}")
    us, vs = _read_edges(n, us, vs)
    _refuse_loops(us, vs)
    c %= k
    degrees, component, orders = _profile(n, us, vs)
    if k % 2 == 0 and n * c % 2 or c and 0 in degrees:
        return UNSAT, None, 0
    out = [0] * len(us)
    nodes = 0
    undecided = False
    for cus, cvs, edge_ids, order in _split(us, vs, component, orders):
        if k % 2 == 0 and order * c % 2:
            return UNSAT, None, nodes
        if not edge_ids:  # a lone vertex, at c = 0
            continue
        status, labels, used = _split_connected(order, k, c, cus, cvs, node_cap)
        nodes += used
        if status == UNSAT:
            return UNSAT, None, nodes
        if status == UNDECIDED:
            undecided = True
            continue
        for eid, y in zip(edge_ids, labels):
            out[eid] = y
    if undecided:
        return UNDECIDED, None, nodes
    return SAT, out, nodes


def _split(us, vs, component, orders):
    """Each component of the graph with edge ends us and vs and profile
    (component, orders), in order of smallest vertex, as (us, vs,
    edge_ids, order): its vertices renumbered 0, 1, ... in ascending
    order, its edges in the graph's id order and edge_ids[i] the graph's
    id of its edge i.  A connected graph is its own one component."""
    if len(orders) < 2:
        return [(us, vs, range(len(us)), len(component))]
    local = []
    seen = [0] * len(orders)
    for i in component:
        local.append(seen[i])
        seen[i] += 1
    edge_ids: list[list[int]] = [[] for _ in orders]
    for eid, u in enumerate(us):
        edge_ids[component[u]].append(eid)
    return [([local[us[e]] for e in ids], [local[vs[e]] for e in ids], ids, order)
            for ids, order in zip(edge_ids, orders)]


def _split_connected(n, k, c, us, vs, node_cap):
    """The split search of a connected loopless multigraph with at least
    one edge, its vertex sums all c, a residue mod k, searched piece by
    piece over its bridge tree.

    A labeling is one labeling per 2-edge-connected piece, each bridge's
    label counted at both of its ends.  Bottom-up over bridge_tree's
    pieces, each piece below the root gets the parent bridge labels x
    for which it and its subtree can be labeled: one search per x, with
    the entry's target c - x, every other vertex's target c, the stub
    free and each child bridge limited to the labels found for its child
    piece.  An edgeless piece needs no search: the sums of one label per
    child bridge must reach its target.  The root is decided the same
    way with target c everywhere, and a labeling is then read off
    top-down, each piece with the labels it was found with.  A piece
    with no feasible label makes the graph absent.

    Two facts spare searches.  At even k the targets of a piece without
    child bridges add up to twice its label sum, so its parent label x
    must have the parity of n * c, n its vertex count; the other labels
    are not searched.  Pieces alike in shape, entry and child label sets
    (isomorphic siblings, say) are searched once: the first one's
    feasible labels serve the rest.

    All the searches share the one node_cap, each counting at least one
    node, so a huge k runs out of budget instead of running k - 1
    searches per piece.  A capped search ends the split as undecided:
    the budget is spent, so no later search could decide.  A bridgeless
    graph is one piece and one search, in breadth-first edge order from
    vertex 0.  Returns (status, labels or None, nodes) with labels
    indexed by edge id.
    """
    pieces = bridge_tree(n, us, vs)
    nodes = charged = 0
    # per piece: its feasible parent labels (None at the root), each with
    # the labels of the piece's order it was found with (None if edgeless)
    feasible: list[dict | None] = [None] * len(pieces)
    # the feasible labels of each searched piece, by all its searches read
    searched: dict[tuple, dict] = {}
    # per edgeless piece: the sums its child bridges j, j+1, ... can reach
    reach: list[list[set[int]] | None] = [None] * len(pieces)
    for p in reversed(range(len(pieces))):
        size, entry, order, pus, pvs, children, edgeless = pieces[p]
        allowed = [None] * len(order)
        for pos, q in children:
            allowed[pos] = list(feasible[q])
        alike = (p == 0, size, entry, pus, pvs, *(tuple(feasible[q]) for _, q in children))
        if edgeless:
            sets = [{0}]
            for pos in reversed(range(len(allowed))):
                sets.append({(y + r) % k for y in allowed[pos] for r in sets[-1]})
            sets.reverse()
            reach[p] = sets
            if p == 0:
                feasible[p] = {None: None} if c in sets[0] else {}
            else:
                feasible[p] = {x: None for x in sorted((c - r) % k for r in sets[0]) if x}
        elif alike in searched:
            feasible[p] = searched[alike]
        else:
            targets = [c] * size
            if children:
                targets[-1] = None
            if not p:
                labels_to_try = (None,)
            elif k % 2 == 0 and not children:
                labels_to_try = range(2 - size * c % 2, k, 2)
            else:
                labels_to_try = range(1, k)
            found = feasible[p] = searched[alike] = {}
            for x in labels_to_try:
                if x is not None:
                    targets[entry] = (c - x) % k
                if 0 <= node_cap <= charged:
                    return UNDECIDED, None, nodes
                status, labels, used = _kernel(
                    pus, pvs, k, targets, allowed, -1 if node_cap < 0 else node_cap - charged
                )
                nodes += used
                charged += max(used, 1)
                if status == UNDECIDED:
                    return UNDECIDED, None, nodes
                if status == SAT:
                    found[x] = labels
        if not feasible[p]:
            return UNSAT, None, nodes
    out = [0] * len(us)
    parent_label: list[int | None] = [None] * len(pieces)
    for p, (_, _, order, _, _, children, edgeless) in enumerate(pieces):
        x = parent_label[p]
        if edgeless:
            t = (c - (x or 0)) % k
            labels = []
            for pos, q in children:
                y = next(y for y in feasible[q] if (t - y) % k in reach[p][pos + 1])
                labels.append(y)
                t = (t - y) % k
        else:
            labels = feasible[p][x]
        for eid, y in zip(order, labels):
            out[eid] = y
        for pos, q in children:
            parent_label[q] = labels[pos]
    return SAT, out, nodes


def vertex_profile(n, us, vs):
    """Each vertex's degree and the index of its connected component,
    and each component's order.

    (n, us, vs) is the graph, as the module header states.  Returns
    (degrees, component, orders), three tuples of ints: degrees and
    component hold n each, component[v] numbering the components 0, 1,
    ... in the order of their smallest vertices, and orders[i] is the
    vertex count of component i, so orders is () when n = 0 and (n,)
    for a connected graph.  A loop counts twice toward its vertex's
    degree.
    """
    n = index(n)
    us, vs = _read_edges(n, us, vs)
    return _profile(n, us, vs)


def _profile(n, us, vs):
    """vertex_profile over the lists _read_edges returns: one
    breadth-first walk from each vertex no earlier walk reached, in
    vertex order, each walk's queue holding its component."""
    adjacency = _adjacency(n, us, vs)
    component = [-1] * n
    orders = []
    for s in range(n):
        if component[s] >= 0:
            continue
        count = len(orders)
        component[s] = count
        queue = [s]
        for u in queue:  # the list is the breadth-first queue: appends join the walk
            for w, _ in adjacency[u]:
                if component[w] < 0:
                    component[w] = count
                    queue.append(w)
        orders.append(len(queue))
    return tuple(map(len, adjacency)), tuple(component), tuple(orders)


def maximum_matching(n, us, vs):
    """A maximum-cardinality matching of a loopless multigraph (Edmonds,
    "Paths, trees, and flowers", 1965).

    (n, us, vs) is the graph, as the module header states.  Returns a
    tuple of n ints: each vertex's matched edge id, or -1 where the
    vertex is exposed.  Each vertex lists its neighbours in edge-id
    order, and an edge parallel to an earlier one is not offered, so the
    lowest id of each parallel class stands for it.  A greedy pass
    matches what it can; then, from each vertex still exposed, a
    breadth-first search grows an alternating tree.  An edge between two
    even vertices of the tree closes an odd cycle, a blossom, which is
    contracted by pointing the base of each of its vertices at the base
    of the cycle (their lowest common ancestor in the tree), after which
    the odd vertices of the cycle are searched from as even ones.  An
    exposed odd vertex ends an augmenting path, which is flipped along
    the parent and mate links.  A vertex from which no augmenting path
    starts never gets one later (Edmonds), so one pass over the vertices
    suffices.  Everything runs in loops; nothing recurses.  Raises
    ValueError when an edge is a loop, checked after the graph is read.
    """
    n = index(n)
    us, vs = _read_edges(n, us, vs)
    _refuse_loops(us, vs)
    return _matching(n, us, vs)


def _matching(n, us, vs):
    """maximum_matching's search of the loopless multigraph (n, us, vs),
    read and checked; petersen_split's rounds call it too."""
    adj = [[] for _ in range(n)]
    pair_id = {}  # the lowest id of each class of parallel edges
    for eid, (u, v) in enumerate(zip(us, vs)):
        pair = (u, v) if u < v else (v, u)
        if pair not in pair_id:
            pair_id[pair] = eid
            adj[u].append(v)
            adj[v].append(u)
    mate = [-1] * n
    for v in range(n):
        if mate[v] < 0:
            for w in adj[v]:
                if mate[w] < 0:
                    mate[v], mate[w] = w, v
                    break
    base = list(range(n))
    parent = [-1] * n  # the even vertex an odd vertex was reached from
    even = [False] * n
    for root in range(n):
        if mate[root] < 0:
            end, tree = _augmenting_path(adj, mate, base, parent, even, root)
            while end >= 0:
                v = parent[end]
                after = mate[v]
                mate[end], mate[v] = v, end
                end = after
            for u in tree:
                base[u], parent[u], even[u] = u, -1, False
    return tuple(-1 if w < 0 else pair_id[(v, w) if v < w else (w, v)] for v, w in enumerate(mate))


def _orient(adjacency, m):
    """Each edge's tail, given the _adjacency of a graph with m edges.

    From each vertex in turn, walk along unused edges, smallest id first,
    backing up when stuck; an edge points the way the walk first crossed
    it.  In an even graph a walk gets stuck only where it started, so
    every vertex is left by half of its edges.
    """
    n = len(adjacency)
    tail = [-1] * m
    nxt = [0] * n
    for start in range(n):
        stack = [start]
        while stack:
            u = stack[-1]
            adj = adjacency[u]
            i = nxt[u]
            while i < len(adj) and tail[adj[i][1]] >= 0:
                i += 1
            nxt[u] = i
            if i == len(adj):
                stack.pop()
                continue
            head, eid = adj[i]
            tail[eid] = u
            stack.append(head)
    return tail


def _augmenting_path(adj, mate, base, parent, even, root):
    """Exposed end of an augmenting path from root, traced back by parent,
    or -1 when there is none; and the vertices of the tree, the only ones
    whose base, parent and even the search changed.  It starts from
    base[v] == v, parent[v] == -1 and even[v] false for every v."""
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
                    return w, tree
                x = mate[w]
                even[x] = True
                tree.append(x)
                queue.append(x)
    return -1, tree


def _common_base(base, mate, parent, a, b):
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


def _mark_path(base, mate, parent, in_blossom, v, top, child):
    """Walk from v up to the blossom base top, recording the bases passed
    and pointing each odd vertex's parent across the closing edge."""
    while base[v] != top:
        in_blossom.add(base[v])
        in_blossom.add(base[mate[v]])
        parent[v] = child
        child = mate[v]
        v = parent[mate[v]]
