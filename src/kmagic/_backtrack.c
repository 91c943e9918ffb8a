/* Compiled twins of the six pure references in kmagic._backtrack_py:
 * the backtracking kernel (search), the magic-sum check (magic_sum), the
 * Petersen 2-factor split (petersen_split), the split search
 * (split_search: the solver's label search of any graph, one component
 * at a time, each over its bridge tree), the vertex profile
 * (vertex_profile: each vertex's degree and component, and each
 * component's order) and the maximum matching (maximum_matching:
 * Edmonds' blossom search).  search() and split_search() run one kernel
 * loop, kernel(), over plain arrays; split_search() and vertex_profile()
 * find the components with one walk, split_components(), and
 * split_search() plans each component's pieces with plan_tree(), the
 * transcription of kmagic._backtrack_py.bridge_tree, so split_search
 * makes no Python call per component or piece search.  The module has one
 * matcher, match_edges(), the search of maximum_matching() over plain
 * arrays: petersen_split()'s rounds are maximum matchings of the out/in
 * incidence graph by that same search, and neither makes a Python call
 * inside it.  plan_tree(), match_edges() and petersen_split() list each
 * vertex's edges through one adjacency builder, edge_csr().
 *
 * kernel() transcribes the pure reference's _kernel line for line: the
 * same edge order, the same forced-label rule and the same node count,
 * so both twins return the same (status, labels or None, nodes) and
 * raise ValueError on the same bad input.  n and k are C ints; residues
 * are unsigned, so c - s + k and s + x, all below 2k, cannot overflow.
 * The piece searches of split_search give each vertex its own target in
 * place of c; a free vertex (the stub) carries one phantom edge that is
 * never labeled, so no edge is ever its last.  An edge limited to a list
 * of labels (a child bridge) tries them in order, nxt holding 1 + the
 * index of the next one, and takes a forced label only when it is on the
 * list.
 *
 * The scalar arguments n, k, c and node_cap must be ints: any other type
 * raises TypeError, as operator.index does, before any other check.
 * Every twin takes its multigraph as (n, us, vs): vertices 0..n-1, edge
 * i joining us[i] and vs[i].  One reader, read_edges, is the only code
 * that reads us and vs, and it holds all six twins to one contract:
 * n < 0 raises ValueError; us and vs may be any iterables, each read
 * once; a non-int end raises TypeError, as operator.index does, the
 * ends of us first; then unequal lengths raise ValueError ("differ in
 * length"), and an end outside 0..n-1 raises ValueError ("endpoint"),
 * at the first such edge.  A twin's own rules on n alone come before
 * the reader, its rules on the edges after it.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

enum { UNDECIDED = -1, UNSAT = 0, SAT = 1 };
enum { RAISED = -2 };  /* split_connected's answer when it raised */
enum { MALFORMED = -1 };  /* magic_sum's answer for labels that are not one legal label per edge */
#define NOT_EVEN_REGULAR "need an even-regular graph with degree >= 2"

/* The graph argument of every twin, read and checked as the header
 * states: the ends in one new PyMem block of 2 * *m slots, us's first,
 * then vs's; or NULL with an exception set. */
static Py_ssize_t *
read_edges(int n, PyObject *us_arg, PyObject *vs_arg, Py_ssize_t *m)
{
    PyObject *seq[2] = {NULL, NULL};
    Py_ssize_t *ends = NULL;

    if (n < 0) {
        PyErr_Format(PyExc_ValueError, "need n >= 0, got %d", n);
        return NULL;
    }
    if ((seq[0] = PySequence_Fast(us_arg, "us must be iterable")) == NULL ||
        (seq[1] = PySequence_Fast(vs_arg, "vs must be iterable")) == NULL)
        goto fail;
    Py_ssize_t len[2] = {PySequence_Fast_GET_SIZE(seq[0]), PySequence_Fast_GET_SIZE(seq[1])};
    ends = PyMem_Malloc(((size_t)len[0] + (size_t)len[1] + 1) * sizeof(Py_ssize_t));
    if (ends == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    Py_ssize_t bad = PY_SSIZE_T_MAX;  /* the first edge with an end outside 0..n-1 */
    for (int s = 0; s < 2; s++) {
        Py_ssize_t *out = ends + (s ? len[0] : 0);
        for (Py_ssize_t i = 0; i < len[s]; i++) {
            int overflow;
            long x = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(seq[s], i), &overflow);
            if (x == -1 && PyErr_Occurred())
                goto fail;
            if ((overflow || x < 0 || x >= n) && i < bad)
                bad = i;
            out[i] = x;
        }
    }
    if (len[0] != len[1]) {
        PyErr_SetString(PyExc_ValueError, "us and vs differ in length");
        goto fail;
    }
    if (bad < len[0]) {
        PyErr_Format(PyExc_ValueError, "edge %zd has an endpoint outside 0..%d", bad, n - 1);
        goto fail;
    }
    *m = len[0];
    Py_DECREF(seq[0]);
    Py_DECREF(seq[1]);
    return ends;
fail:
    Py_XDECREF(seq[0]);
    Py_XDECREF(seq[1]);
    PyMem_Free(ends);
    return NULL;
}

/* Raise ValueError at the first of the m edges in ends, as read_edges
 * returns them, that is a loop. */
static int
refuse_loops(const Py_ssize_t *ends, Py_ssize_t m)
{
    for (Py_ssize_t i = 0; i < m; i++)
        if (ends[i] == ends[m + i]) {
            PyErr_Format(PyExc_ValueError, "edge %zd is a loop", i);
            return -1;
        }
    return 0;
}

/* Is f on the increasing list lo..hi (hi exclusive)? */
static int
listed(const unsigned *lo, const unsigned *hi, unsigned f)
{
    while (lo < hi) {
        const unsigned *mid = lo + (hi - lo) / 2;
        if (*mid < f)
            lo = mid + 1;
        else if (*mid > f)
            hi = mid;
        else
            return 1;
    }
    return 0;
}

/* A growing array of unsigned ints: len in use, room for cap. */
typedef struct {
    unsigned *a;
    Py_ssize_t len, cap;
} Pool;

/* Make room for extra more items in pool, or raise MemoryError. */
static int
pool_grow(Pool *pool, Py_ssize_t extra)
{
    if (extra <= pool->cap - pool->len)
        return 0;
    if (extra > PY_SSIZE_T_MAX / (Py_ssize_t)(2 * sizeof(unsigned)) - pool->len) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t cap = 2 * (pool->len + extra);
    unsigned *a = PyMem_Realloc(pool->a, (size_t)cap * sizeof(unsigned));
    if (a == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    pool->a = a;
    pool->cap = cap;
    return 0;
}

/* Read node_cap into *out: a cap past long long is never reached, a
 * negative one never applies. */
static int
read_cap(PyObject *cap_arg, long long *out)
{
    int overflow;
    long long cap = PyLong_AsLongLongAndOverflow(cap_arg, &overflow);
    if (cap == -1 && PyErr_Occurred())
        return -1;
    *out = overflow ? (overflow > 0 ? LLONG_MAX : -1) : cap;
    return 0;
}

/* The search loop, over plain arrays, of search and of every piece search
 * of split_search.  Edge i joins eu[i] and ev[i] and may take the labels
 * alab[span[2i] .. span[2i+1]), or every label 1..k-1 when span is NULL
 * or span[2i] < 0.  Vertex v must sum to tgt[v] and has left[v]
 * unlabeled edges, one more when it is free.  sums must start at 0 and
 * nxt at 1; labels receives the labeling.  Returns the status and stores
 * the nodes tried in *nodes_out; node_cap < 0 means unbounded. */
static int
kernel(Py_ssize_t m, const Py_ssize_t *eu, const Py_ssize_t *ev, unsigned k, const unsigned *tgt,
       unsigned *left, unsigned *sums, unsigned *labels, unsigned *nxt, const Py_ssize_t *span,
       const unsigned *alab, long long node_cap, long long *nodes_out)
{
    long long nodes = 0;
    Py_ssize_t pos = 0;
    int status;
    for (;;) {
        if (pos == m) {
            status = SAT;
            break;
        }
        Py_ssize_t u = eu[pos], v = ev[pos];
        unsigned x = 0;
        const Py_ssize_t *lim = span == NULL || span[2 * pos] < 0 ? NULL : span + 2 * pos;
        if (left[u] == 1 || left[v] == 1) {
            if (nxt[pos] == 1) {
                unsigned f;
                if (left[u] == 1) {
                    f = (tgt[u] - sums[u] + k) % k;
                    if (left[v] == 1 && (tgt[v] - sums[v] + k) % k != f)
                        f = 0;
                }
                else
                    f = (tgt[v] - sums[v] + k) % k;
                if (f != 0 && (lim == NULL || listed(alab + lim[0], alab + lim[1], f))) {
                    x = f;
                    nxt[pos] = k;
                }
            }
        }
        else if (lim == NULL) {
            unsigned t = nxt[pos];
            if (t <= k - 1) {
                x = t;
                nxt[pos] = t + 1;
            }
        }
        else {
            unsigned t = nxt[pos];  /* 1 + the index of the next allowed label */
            if ((Py_ssize_t)t <= lim[1] - lim[0]) {
                x = alab[lim[0] + t - 1];
                nxt[pos] = t + 1;
            }
        }
        if (x == 0) {
            nxt[pos] = 1;
            pos -= 1;
            if (pos < 0) {
                status = UNSAT;
                break;
            }
            unsigned y = labels[pos];
            Py_ssize_t pu = eu[pos], pv = ev[pos];
            sums[pu] = (sums[pu] - y + k) % k;
            sums[pv] = (sums[pv] - y + k) % k;
            left[pu] += 1;
            left[pv] += 1;
            continue;
        }
        nodes += 1;
        if (0 <= node_cap && node_cap < nodes) {
            status = UNDECIDED;
            break;
        }
        labels[pos] = x;
        sums[u] = (sums[u] + x) % k;
        sums[v] = (sums[v] + x) % k;
        left[u] -= 1;
        left[v] -= 1;
        pos += 1;
    }
    *nodes_out = nodes;
    return status;
}

/* The answer (status, labels or None, nodes) of search and split_search,
 * labels a list of labels[0..m) when status is SAT; or NULL. */
static PyObject *
answer(int status, const unsigned *labels, Py_ssize_t m, long long nodes)
{
    if (status != SAT)
        return Py_BuildValue("(iOL)", status, Py_None, nodes);
    PyObject *out = PyList_New(m);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < m; i++) {
        PyObject *label = PyLong_FromUnsignedLong(labels[i]);
        if (label == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, label);
    }
    return Py_BuildValue("(iNL)", status, out, nodes);
}

/* The residue of c mod k, k >= 2, in 0..k-1. */
static unsigned
residue(int c, int k)
{
    int r = c % k;
    return (unsigned)(r < 0 ? r + k : r);
}

/* The label search of a multigraph, the twin of
 * kmagic._backtrack_py.search: one kernel run, every vertex's target c
 * and every edge free to take every label. */
static PyObject *
search(PyObject *self, PyObject *args)
{
    int n, k_in, c_in;
    long long node_cap;
    PyObject *us_arg, *vs_arg, *cap_arg, *result = NULL;
    unsigned *block = NULL;
    Py_ssize_t *ends = NULL, m;

    if (!PyArg_ParseTuple(args, "iiiOOO:search", &n, &k_in, &c_in, &us_arg, &vs_arg, &cap_arg) ||
        read_cap(cap_arg, &node_cap) < 0)
        return NULL;
    if (k_in < 2)
        return PyErr_Format(PyExc_ValueError, "search needs k >= 2, got %d", k_in);
    ends = read_edges(n, us_arg, vs_arg, &m);
    if (ends == NULL || refuse_loops(ends, m) < 0)
        goto done;
    block = PyMem_Calloc(2 * (size_t)m + 3 * (size_t)n, sizeof(unsigned));
    if (block == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    const Py_ssize_t *eu = ends, *ev = ends + m;
    unsigned *labels = block, *nxt = labels + m, *left = nxt + m, *sums = left + n, *tgt = sums + n;
    for (Py_ssize_t i = 0; i < m; i++) {
        nxt[i] = 1;
        left[eu[i]] += 1;
        left[ev[i]] += 1;
    }
    unsigned k = (unsigned)k_in, c = residue(c_in, k_in);
    for (int v = 0; v < n; v++)
        tgt[v] = c;

    long long nodes;
    int status = kernel(m, eu, ev, k, tgt, left, sums, labels, nxt, NULL, NULL, node_cap, &nodes);
    result = answer(status, labels, m, nodes);
done:
    PyMem_Free(ends);
    PyMem_Free(block);
    return result;
}

/* The common vertex sum mod k of a labeling, the twin of
 * kmagic._backtrack_py.magic_sum: MALFORMED unless the tuple or list
 * labels holds m labels, edge i's at index i, each an int in 1..k-1,
 * else the sum or None.  No Python code runs while the items are read,
 * so a list cannot change under the loop.  Labels lie below k, a C int,
 * so the per-vertex sums, at most m labels each, fit unsigned long
 * long. */
static PyObject *
magic_sum(PyObject *self, PyObject *args)
{
    int n, k;
    PyObject *us_arg, *vs_arg, *labels, *result = NULL;
    Py_ssize_t *ends = NULL, m;
    unsigned long long *sums = NULL;

    if (!PyArg_ParseTuple(args, "iOOOi:magic_sum", &n, &us_arg, &vs_arg, &labels, &k))
        return NULL;
    if (k < 2)
        return PyErr_Format(PyExc_ValueError, "magic_sum needs k >= 2, got %d", k);
    ends = read_edges(n, us_arg, vs_arg, &m);
    if (ends == NULL)
        goto done;
    if (!PyTuple_Check(labels) && !PyList_Check(labels)) {
        PyErr_SetString(PyExc_TypeError, "labels must be a tuple or list");
        goto done;
    }
    if (PySequence_Fast_GET_SIZE(labels) != m) {
        result = PyLong_FromLong(MALFORMED);
        goto done;
    }
    sums = PyMem_Calloc((size_t)n + 1, sizeof(unsigned long long));
    if (sums == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    PyObject **items = PySequence_Fast_ITEMS(labels);  /* borrowed */
    for (Py_ssize_t i = 0; i < m; i++) {
        int overflow = 0;
        long x = PyLong_Check(items[i]) ? PyLong_AsLongAndOverflow(items[i], &overflow) : 0;
        if (x == -1 && PyErr_Occurred())
            goto done;
        if (overflow || x < 1 || x > k - 1) {
            result = PyLong_FromLong(MALFORMED);
            goto done;
        }
        sums[ends[i]] += (unsigned long long)x;
        sums[ends[m + i]] += (unsigned long long)x;
    }
    if (n == 0) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    unsigned long long c = sums[0] % (unsigned)k;
    for (int v = 1; v < n; v++)
        if (sums[v] % (unsigned)k != c) {
            result = Py_NewRef(Py_None);
            goto done;
        }
    result = PyLong_FromUnsignedLongLong(c);
done:
    PyMem_Free(ends);
    PyMem_Free(sums);
    return result;
}

/* A new tuple of the ints a[0..len), or NULL with an exception set. */
static PyObject *
int_tuple(const Py_ssize_t *a, Py_ssize_t len)
{
    PyObject *t = PyTuple_New(len);
    if (t == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < len; i++) {
        PyObject *x = PyLong_FromSsize_t(a[i]);
        if (x == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, x);
    }
    return t;
}

/* The adjacency of the multigraph on nv vertices whose edge e joins eu[e]
 * and ev[e], in edge-id order: vertex v's edge ids at adj[first[v] ..
 * first[v + 1]).  first holds nv + 1 zeroed slots and adj 2m; fill, nv
 * slots of scratch, ends with fill[v] == first[v + 1].  The one adjacency
 * builder of plan_tree, match_edges and petersen_split. */
static void
edge_csr(Py_ssize_t nv, Py_ssize_t m, const Py_ssize_t *eu, const Py_ssize_t *ev,
         Py_ssize_t *first, Py_ssize_t *fill, Py_ssize_t *adj)
{
    for (Py_ssize_t e = 0; e < m; e++) {
        first[eu[e] + 1] += 1;
        first[ev[e] + 1] += 1;
    }
    for (Py_ssize_t v = 0; v < nv; v++) {
        first[v + 1] += first[v];
        fill[v] = first[v];
    }
    for (Py_ssize_t e = 0; e < m; e++) {
        adj[fill[eu[e]]++] = e;
        adj[fill[ev[e]]++] = e;
    }
}

/* The plan of kmagic._backtrack_py.bridge_tree over plain arrays, its
 * pieces in bridge_tree's order: piece i has size[i] local vertices, its
 * stub included, entry[i] is the local entry and edgeless[i] is set for a
 * single vertex; its edges are order[ostart[i] .. ostart[i + 1]), with
 * local ends pus and pvs at the same slots; its child bridges sit at
 * positions cpos[cstart[i] .. cstart[i + 1]) of that run, leading to the
 * pieces cidx at the same slots.  Every array lives in block. */
typedef struct {
    Py_ssize_t npieces;
    Py_ssize_t *size, *entry, *edgeless, *ostart, *cstart, *order, *pus, *pvs, *cpos, *cidx;
    Py_ssize_t *block;
} Plan;

/* Plan the 2-edge-connected pieces of the connected multigraph on n >= 1
 * vertices whose edge i joins eu[i] and ev[i], as kmagic._backtrack_py.
 * bridge_tree does; the caller passes one component of split_components.
 * One lowpoint walk from vertex 0 marks the bridges; one scan numbers the
 * pieces by smallest vertex and each vertex within its piece; one
 * breadth-first walk per piece, top-down over the bridge tree, lists its
 * edges, each edge once overall, so the per-piece lists are consecutive
 * runs of shared arrays.  Every stack and queue holds at most n vertices,
 * and a graph has at most n pieces and n - 1 bridges.  The caller frees
 * plan->block, also on failure. */
static int
plan_tree(int n, Py_ssize_t m, const Py_ssize_t *eu, const Py_ssize_t *ev, Plan *plan)
{
    /* per edge: adjacency (two slots), bridge and seen flags, the pieces'
     * order, us and vs; per vertex: first adjacency slot, walk position,
     * discovery, lowpoint, tree edge, stack, piece, local number, queue,
     * visited flag, piece size; per output piece: entry vertex, order
     * start, children start, size, local entry, edgeless flag; per
     * bridge: child position and index */
    Py_ssize_t nv = n;
    Py_ssize_t *block = plan->block = PyMem_Calloc(7 * (size_t)m + 19 * (size_t)nv + 3,
                                                   sizeof(Py_ssize_t));
    if (block == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t *adj = block, *bridge = adj + 2 * m;
    Py_ssize_t *eseen = bridge + m, *order = eseen + m, *pus = order + m, *pvs = pus + m;
    Py_ssize_t *first = pvs + m, *nxt = first + nv + 1, *disc = nxt + nv, *low = disc + nv;
    Py_ssize_t *via = low + nv, *stack = via + nv, *piece_of = stack + nv, *local = piece_of + nv;
    Py_ssize_t *queue = local + nv, *visited = queue + nv, *size = visited + nv;
    Py_ssize_t *entry = size + nv, *ostart = entry + nv, *cstart = ostart + nv + 1;
    Py_ssize_t *psize = cstart + nv + 1, *pentry = psize + nv, *pedgeless = pentry + nv;
    Py_ssize_t *cpos = pedgeless + nv, *cidx = cpos + nv;

    edge_csr(nv, m, eu, ev, first, nxt, adj);

    /* the lowpoint walk from vertex 0 */
    for (Py_ssize_t v = 0; v < nv; v++) {
        nxt[v] = first[v];
        disc[v] = -1;
        via[v] = -1;
    }
    Py_ssize_t seen = 1, top = 0;
    disc[0] = 0;
    stack[0] = 0;
    while (top >= 0) {
        Py_ssize_t u = stack[top];
        if (nxt[u] < first[u + 1]) {
            Py_ssize_t e = adj[nxt[u]++];
            if (e == via[u])
                continue;
            Py_ssize_t w = eu[e] == u ? ev[e] : eu[e];
            if (disc[w] < 0) {
                disc[w] = low[w] = seen++;
                via[w] = e;
                stack[++top] = w;
            }
            else if (disc[w] < low[u])
                low[u] = disc[w];
            continue;
        }
        if (--top >= 0) {
            Py_ssize_t p = stack[top];
            if (low[u] > disc[p])
                bridge[via[u]] = 1;
            if (low[u] < low[p])
                low[p] = low[u];
        }
    }

    /* the pieces, numbered by smallest vertex, and each vertex's local number */
    Py_ssize_t npieces = 0;
    for (Py_ssize_t v = 0; v < nv; v++)
        piece_of[v] = -1;
    for (Py_ssize_t s = 0; s < nv; s++) {
        if (piece_of[s] >= 0)
            continue;
        Py_ssize_t head = 0, tail = 0;
        piece_of[s] = npieces;
        queue[tail++] = s;
        while (head < tail) {
            Py_ssize_t u = queue[head++];
            for (Py_ssize_t j = first[u]; j < first[u + 1]; j++) {
                Py_ssize_t e = adj[j], w = eu[e] == u ? ev[e] : eu[e];
                if (piece_of[w] < 0 && !bridge[e]) {
                    piece_of[w] = npieces;
                    queue[tail++] = w;
                }
            }
        }
        npieces++;
    }
    for (Py_ssize_t v = 0; v < nv; v++)
        local[v] = size[piece_of[v]]++;

    /* top-down over the bridge tree: piece i walked breadth-first from
     * entry[i], its edges at order[ostart[i] .. ostart[i + 1]) and its
     * children at cpos/cidx[cstart[i] .. cstart[i + 1]) */
    Py_ssize_t ntodo = 1, len = 0, nch = 0;
    entry[0] = 0;
    for (Py_ssize_t i = 0; i < ntodo; i++) {
        Py_ssize_t stub = size[piece_of[entry[i]]], head = 0, tail = 0;
        ostart[i] = len;
        cstart[i] = nch;
        visited[entry[i]] = 1;
        queue[tail++] = entry[i];
        while (head < tail) {
            Py_ssize_t u = queue[head++];
            for (Py_ssize_t j = first[u]; j < first[u + 1]; j++) {
                Py_ssize_t e = adj[j], w = eu[e] == u ? ev[e] : eu[e];
                if (eseen[e])
                    continue;
                eseen[e] = 1;
                order[len] = e;
                pus[len] = local[u];
                if (bridge[e]) {
                    cpos[nch] = len - ostart[i];
                    cidx[nch++] = ntodo;
                    entry[ntodo++] = w;
                    pvs[len++] = stub;
                    continue;
                }
                pvs[len++] = local[w];
                if (!visited[w]) {
                    visited[w] = 1;
                    queue[tail++] = w;
                }
            }
        }
        psize[i] = stub + (nch > cstart[i]);
        pentry[i] = local[entry[i]];
        pedgeless[i] = stub == 1;
    }
    ostart[ntodo] = len;
    cstart[ntodo] = nch;
    *plan = (Plan){ntodo, psize, pentry, pedgeless, ostart, cstart, order, pus, pvs, cpos, cidx,
                   block};
    return 0;
}

static int
compare_unsigned(const void *a, const void *b)
{
    unsigned x = *(const unsigned *)a, y = *(const unsigned *)b;
    return (x > y) - (x < y);
}

/* Sort a[0..len) and drop its repeats; returns the count left. */
static Py_ssize_t
sort_unique(unsigned *a, Py_ssize_t len)
{
    if (len == 0)
        return 0;
    qsort(a, (size_t)len, sizeof(unsigned), compare_unsigned);
    Py_ssize_t out = 1;
    for (Py_ssize_t i = 1; i < len; i++)
        if (a[i] != a[out - 1])
            a[out++] = a[i];
    return out;
}

/* Are pieces p and s of plan alike to the split search: both the root or
 * both not, of one size and entry, with the same local edges, as many
 * child bridges and each child bridge limited to the same labels?  The
 * count matters: size counts the stub, so equal edges can join a stub in
 * one piece and a real vertex in a childless one.  Child piece q's feasible
 * labels are flab[fstart[q] .. fstart[q] + fcount[q]). */
static int
alike(const Plan *plan, Py_ssize_t p, Py_ssize_t s, const unsigned *flab, const Py_ssize_t *fstart,
      const Py_ssize_t *fcount)
{
    Py_ssize_t lo = plan->ostart[p], so = plan->ostart[s], len = plan->ostart[p + 1] - lo;
    if ((p == 0) != (s == 0) || plan->size[p] != plan->size[s] ||
        plan->entry[p] != plan->entry[s] || plan->ostart[s + 1] - so != len ||
        plan->cstart[p + 1] - plan->cstart[p] != plan->cstart[s + 1] - plan->cstart[s] ||
        memcmp(plan->pus + lo, plan->pus + so, (size_t)len * sizeof(Py_ssize_t)) != 0 ||
        memcmp(plan->pvs + lo, plan->pvs + so, (size_t)len * sizeof(Py_ssize_t)) != 0)
        return 0;
    /* equal pvs put the child bridges, the edges to the stub, at equal positions */
    for (Py_ssize_t j = plan->cstart[p], t = plan->cstart[s]; j < plan->cstart[p + 1]; j++, t++) {
        Py_ssize_t q = plan->cidx[j], r = plan->cidx[t];
        if (fcount[q] != fcount[r] ||
            memcmp(flab + fstart[q], flab + fstart[r], (size_t)fcount[q] * sizeof(unsigned)) != 0)
            return 0;
    }
    return 1;
}

/* The split search of one connected component with at least one edge,
 * the twin of kmagic._backtrack_py._split_connected, over plain arrays:
 * its n vertices, its m edges, edge i joining eu[i] and ev[i], and c a
 * residue mod k.  One plan_tree plan, then one kernel run per piece and
 * parent-bridge label, bottom-up, and the labeling read off top-down into
 * out[0..m), with no Python call in between.  The feasible parent
 * labels of piece p are flab[fstart[p] .. fstart[p] + fcount[p]), in
 * increasing order (the root's one entry, 0, stands for None); those of a
 * searched piece were found with the labels of its order at lpool[lbase[p]
 * + j * len] for the j-th, len its edge count, and a piece alike to one
 * searched before shares that one's entries.  The sums the child bridges
 * j, j + 1, ... of an edgeless piece p can reach are rpool[rspan[2i] ..
 * rspan[2i + 1]), sorted, at i = ostart[p] + p + j.  Returns the status
 * and stores the nodes in *nodes_out, or returns RAISED with an exception
 * set. */
static int
split_connected(int n, Py_ssize_t m, const Py_ssize_t *eu, const Py_ssize_t *ev, unsigned k,
                unsigned c, long long node_cap, unsigned *out, long long *nodes_out)
{
    Py_ssize_t *work = NULL;
    unsigned *uwork = NULL;
    Pool flab = {NULL, 0, 0}, lpool = {NULL, 0, 0}, rpool = {NULL, 0, 0};
    Plan plan = {0};
    int result = RAISED;

    if (plan_tree(n, m, eu, ev, &plan) < 0)
        goto done;
    /* per edge: the allowed spans; per piece: fstart, fcount, lbase, the
     * searched list; per edge and piece: reach spans.  Per vertex, the
     * stub included: left, sums, targets; per edge: labels, nxt; per
     * piece: parent label */
    Py_ssize_t np = plan.npieces;
    work = PyMem_Calloc(4 * (size_t)m + 6 * (size_t)np + 1, sizeof(Py_ssize_t));
    uwork = PyMem_Calloc(3 * (size_t)n + 2 * (size_t)m + (size_t)np + 3, sizeof(unsigned));
    if (work == NULL || uwork == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_ssize_t *span = work, *fstart = span + 2 * m, *fcount = fstart + np;
    Py_ssize_t *lbase = fcount + np, *searched = lbase + np, *rspan = searched + np;
    unsigned *left = uwork, *sums = left + n + 1, *tgt = sums + n + 1, *labels = tgt + n + 1;
    unsigned *nxt = labels + m, *plab = nxt + m;
    long long nodes = 0, charged = 0;
    Py_ssize_t nsearched = 0;
    int status = SAT;

    for (Py_ssize_t p = np - 1; p >= 0; p--) {
        Py_ssize_t lo = plan.ostart[p], len = plan.ostart[p + 1] - lo;
        Py_ssize_t clo = plan.cstart[p], nch = plan.cstart[p + 1] - clo, size = plan.size[p];
        const Py_ssize_t *pus = plan.pus + lo, *pvs = plan.pvs + lo;
        if (plan.edgeless[p]) {
            /* every edge of the piece is a child bridge: child j at position j */
            Py_ssize_t *rs = rspan + 2 * (lo + p);
            if (pool_grow(&rpool, 1) < 0)
                goto done;
            rs[2 * len] = rpool.len;
            rpool.a[rpool.len++] = 0;
            rs[2 * len + 1] = rpool.len;
            for (Py_ssize_t j = len - 1; j >= 0; j--) {
                Py_ssize_t q = plan.cidx[clo + j], ny = fcount[q];
                Py_ssize_t r0 = rs[2 * j + 2], nr = rs[2 * j + 3] - r0;
                if ((nr > 0 && ny > PY_SSIZE_T_MAX / nr) || pool_grow(&rpool, ny * nr) < 0) {
                    if (!PyErr_Occurred())
                        PyErr_NoMemory();
                    goto done;
                }
                unsigned *sum = rpool.a + rpool.len;
                const unsigned *ys = flab.a + fstart[q], *rr = rpool.a + r0;
                for (Py_ssize_t a = 0; a < ny; a++)
                    for (Py_ssize_t b = 0; b < nr; b++)
                        *sum++ = (ys[a] + rr[b]) % k;
                rs[2 * j] = rpool.len;
                rpool.len += sort_unique(rpool.a + rpool.len, ny * nr);
                rs[2 * j + 1] = rpool.len;
            }
            Py_ssize_t nr = rs[1] - rs[0];
            if (pool_grow(&flab, nr) < 0)
                goto done;
            const unsigned *r = rpool.a + rs[0];
            fstart[p] = flab.len;
            if (p == 0) {
                if (listed(r, r + nr, c))
                    flab.a[flab.len++] = 0;
            }
            else {
                for (Py_ssize_t i = 0; i < nr; i++)
                    if ((c + k - r[i]) % k != 0)
                        flab.a[flab.len++] = (c + k - r[i]) % k;
                qsort(flab.a + fstart[p], (size_t)(flab.len - fstart[p]), sizeof(unsigned),
                      compare_unsigned);
            }
            fcount[p] = flab.len - fstart[p];
        }
        else {
            Py_ssize_t s = 0;
            while (s < nsearched && !alike(&plan, p, searched[s], flab.a, fstart, fcount))
                s++;
            if (s < nsearched) {
                Py_ssize_t t = searched[s];
                fstart[p] = fstart[t];
                fcount[p] = fcount[t];
                lbase[p] = lbase[t];
            }
            else {
                searched[nsearched++] = p;
                for (Py_ssize_t j = 0; j < len; j++)
                    span[2 * j] = span[2 * j + 1] = -1;
                for (Py_ssize_t j = clo; j < clo + nch; j++) {
                    Py_ssize_t q = plan.cidx[j], pos = plan.cpos[j];
                    span[2 * pos] = fstart[q];
                    span[2 * pos + 1] = fstart[q] + fcount[q];
                }
                /* the root tries only x = 0 (None); at even k a piece without
                 * child bridges only the x of the parity of size * c */
                int parity = k % 2 == 0 && nch == 0;
                unsigned x = p == 0 ? 0 : parity ? 2 - ((unsigned)size & c & 1) : 1;
                unsigned step = p == 0 ? k : parity ? 2 : 1;
                fstart[p] = flab.len;
                lbase[p] = lpool.len;
                for (; x < k; x += step) {
                    if (node_cap >= 0 && charged >= node_cap) {
                        status = UNDECIDED;
                        break;
                    }
                    for (Py_ssize_t v = 0; v < size; v++) {
                        left[v] = sums[v] = 0;
                        tgt[v] = c;
                    }
                    if (nch > 0)
                        left[size - 1] = 1;  /* the stub's phantom edge: it is free */
                    if (p > 0)
                        tgt[plan.entry[p]] = (c + k - x) % k;
                    for (Py_ssize_t j = 0; j < len; j++) {
                        left[pus[j]] += 1;
                        left[pvs[j]] += 1;
                        nxt[j] = 1;
                    }
                    long long used;
                    int found = kernel(len, pus, pvs, k, tgt, left, sums, labels, nxt,
                                       nch > 0 ? span : NULL, flab.a,
                                       node_cap < 0 ? -1 : node_cap - charged, &used);
                    nodes += used;
                    charged += used > 1 ? used : 1;
                    if (found == UNDECIDED) {
                        status = UNDECIDED;
                        break;
                    }
                    if (found == SAT) {
                        if (pool_grow(&flab, 1) < 0 || pool_grow(&lpool, len) < 0)
                            goto done;
                        flab.a[flab.len++] = x;
                        memcpy(lpool.a + lpool.len, labels, (size_t)len * sizeof(unsigned));
                        lpool.len += len;
                    }
                }
                fcount[p] = flab.len - fstart[p];
                if (status == UNDECIDED)
                    break;
            }
        }
        if (fcount[p] == 0) {
            status = UNSAT;
            break;
        }
    }

    if (status == SAT) {
        plab[0] = 0;
        for (Py_ssize_t p = 0; p < np; p++) {
            Py_ssize_t lo = plan.ostart[p], len = plan.ostart[p + 1] - lo;
            Py_ssize_t clo = plan.cstart[p], nch = plan.cstart[p + 1] - clo;
            const unsigned *f = flab.a + fstart[p];
            if (plan.edgeless[p]) {
                /* each child bridge takes its first label that leaves a sum
                 * the later ones reach */
                unsigned t = (c + k - plab[p]) % k;
                for (Py_ssize_t j = 0; j < nch; j++) {
                    Py_ssize_t q = plan.cidx[clo + j];
                    const Py_ssize_t *rs = rspan + 2 * (lo + p + j + 1);
                    const unsigned *ys = flab.a + fstart[q];
                    while (!listed(rpool.a + rs[0], rpool.a + rs[1], (t + k - *ys) % k))
                        ys++;
                    out[plan.order[lo + j]] = plab[q] = *ys;
                    t = (t + k - *ys) % k;
                }
                continue;
            }
            Py_ssize_t i = 0;
            while (f[i] != plab[p])
                i++;
            const unsigned *lab = lpool.a + lbase[p] + i * len;
            for (Py_ssize_t j = 0; j < len; j++)
                out[plan.order[lo + j]] = lab[j];
            for (Py_ssize_t j = clo; j < clo + nch; j++)
                plab[plan.cidx[j]] = lab[plan.cpos[j]];
        }
    }
    *nodes_out = nodes;
    result = status;
done:
    PyMem_Free(plan.block);
    PyMem_Free(work);
    PyMem_Free(uwork);
    PyMem_Free(flab.a);
    PyMem_Free(lpool.a);
    PyMem_Free(rpool.a);
    return result;
}

/* The connected components of the multigraph on n vertices whose edge i
 * joins eu[i] and ev[i], as kmagic._backtrack_py.vertex_profile numbers
 * them, for vertex_profile and split_search alike: count components,
 * numbered by smallest vertex; per vertex, its degree deg, its
 * component comp and its number local within the component, in ascending
 * order; component i holds vstart[i + 1] - vstart[i] vertices and its
 * edges, by id, at eids[estart[i] .. estart[i + 1]).  Every array lives
 * in block. */
typedef struct {
    Py_ssize_t count;
    Py_ssize_t *deg, *comp, *local, *vstart, *estart, *eids;
    Py_ssize_t *block;
} Parts;

/* Fill parts for the graph, or raise MemoryError.  One pass over the
 * edges counts the degrees and joins the trees of each edge's ends, the
 * larger root under the smaller one, with path halving; so every root is
 * the smallest vertex of its tree, and one pass over the vertices in
 * order numbers the components by smallest vertex, each vertex after its
 * root.  Then one counting pass over the vertices numbers each within its
 * component, and one over the edges groups them by component, each in
 * increasing order.  The caller frees parts->block, also on failure. */
static int
split_components(int n, Py_ssize_t m, const Py_ssize_t *eu, const Py_ssize_t *ev, Parts *parts)
{
    /* per vertex: degree, component, local number, tree parent, fill
     * cursor; per component, at most n, and one more for a run's end:
     * vertex and edge starts; per edge: the edge list */
    Py_ssize_t nv = n;
    Py_ssize_t *block = parts->block = PyMem_Malloc((7 * (size_t)nv + (size_t)m + 4) *
                                                    sizeof(Py_ssize_t));
    if (block == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t *deg = block, *comp = deg + nv, *local = comp + nv, *parent = local + nv;
    Py_ssize_t *fill = parent + nv, *vstart = fill + nv, *estart = vstart + nv + 2;
    Py_ssize_t *eids = estart + nv + 2;

    for (Py_ssize_t v = 0; v < nv; v++) {
        deg[v] = 0;
        parent[v] = v;
    }
    for (Py_ssize_t e = 0; e < m; e++) {
        Py_ssize_t a = eu[e], b = ev[e];
        deg[a] += 1;
        deg[b] += 1;
        while (parent[a] != a)
            a = parent[a] = parent[parent[a]];
        while (parent[b] != b)
            b = parent[b] = parent[parent[b]];
        if (a < b)
            parent[b] = a;
        else
            parent[a] = b;
    }
    Py_ssize_t count = 0;
    for (Py_ssize_t v = 0; v < nv; v++) {
        Py_ssize_t r = v;
        while (parent[r] != r)
            r = parent[r] = parent[parent[r]];
        comp[v] = r == v ? count++ : comp[r];
    }
    *parts = (Parts){count, deg, comp, local, vstart, estart, eids, block};
    for (Py_ssize_t i = 0; i <= count; i++)
        vstart[i] = estart[i] = 0;
    for (Py_ssize_t v = 0; v < nv; v++)
        local[v] = vstart[comp[v] + 1]++;
    for (Py_ssize_t e = 0; e < m; e++)
        estart[comp[eu[e]] + 1] += 1;
    for (Py_ssize_t i = 0; i < count; i++) {
        vstart[i + 1] += vstart[i];
        estart[i + 1] += estart[i];
    }
    for (Py_ssize_t i = 0; i < count; i++)
        fill[i] = estart[i];
    for (Py_ssize_t e = 0; e < m; e++)
        eids[fill[comp[eu[e]]]++] = e;
    return 0;
}

/* Component i of parts as local arrays: its edge j joins lu[j] and lv[j],
 * for j < estart[i + 1] - estart[i]. */
static void
local_edges(const Parts *parts, Py_ssize_t i, const Py_ssize_t *eu, const Py_ssize_t *ev,
            Py_ssize_t *lu, Py_ssize_t *lv)
{
    for (Py_ssize_t j = parts->estart[i]; j < parts->estart[i + 1]; j++) {
        Py_ssize_t e = parts->eids[j];
        *lu++ = parts->local[eu[e]];
        *lv++ = parts->local[ev[e]];
    }
}

/* The split search of a multigraph, the twin of
 * kmagic._backtrack_py.split_search: the counting settles, then one
 * split_connected run per component of split_components with edges, each
 * under its own node_cap, over local arrays whose labels are written back
 * by the graph's edge ids. */
static PyObject *
split_search(PyObject *self, PyObject *args)
{
    int n, k_in, c_in;
    long long node_cap;
    PyObject *us_arg, *vs_arg, *cap_arg, *result = NULL;
    Py_ssize_t *ends = NULL, *lends = NULL, m;
    unsigned *ulabels = NULL;
    Parts parts = {0};

    if (!PyArg_ParseTuple(args, "iiiOOO:split_search", &n, &k_in, &c_in, &us_arg, &vs_arg,
                          &cap_arg) ||
        read_cap(cap_arg, &node_cap) < 0)
        return NULL;
    if (k_in < 2)
        return PyErr_Format(PyExc_ValueError, "split_search needs k >= 2, got %d", k_in);
    if (n < 1)
        return PyErr_Format(PyExc_ValueError, "split_search needs n >= 1, got %d", n);
    ends = read_edges(n, us_arg, vs_arg, &m);
    if (ends == NULL || refuse_loops(ends, m) < 0 || split_components(n, m, ends, ends + m, &parts) < 0)
        goto done;
    const Py_ssize_t *eu = ends, *ev = ends + m;
    unsigned k = (unsigned)k_in, c = residue(c_in, k_in);
    int even = k % 2 == 0, status = SAT, undecided = 0;
    long long nodes = 0;

    /* per edge: the local ends and labels of its component, the graph's labels */
    lends = PyMem_Malloc((2 * (size_t)m + 1) * sizeof(Py_ssize_t));
    ulabels = PyMem_Malloc((2 * (size_t)m + 1) * sizeof(unsigned));
    if (lends == NULL || ulabels == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    unsigned *labels = ulabels, *out = ulabels + m;
    if (even && (n & c & 1))
        status = UNSAT;
    for (Py_ssize_t v = 0; v < n && c != 0 && status == SAT; v++)
        if (parts.deg[v] == 0)
            status = UNSAT;
    for (Py_ssize_t i = 0; i < parts.count && status == SAT; i++) {
        Py_ssize_t size = parts.vstart[i + 1] - parts.vstart[i];
        Py_ssize_t lo = parts.estart[i], len = parts.estart[i + 1] - lo;
        if (even && (size & c & 1)) {
            status = UNSAT;
            break;
        }
        if (len == 0)  /* a lone vertex, at c = 0 */
            continue;
        local_edges(&parts, i, eu, ev, lends, lends + len);
        long long used;
        int found = split_connected((int)size, len, lends, lends + len, k, c, node_cap, labels, &used);
        if (found == RAISED)
            goto done;
        nodes += used;
        if (found == UNSAT)
            status = UNSAT;
        else if (found == UNDECIDED)
            undecided = 1;
        else
            for (Py_ssize_t j = 0; j < len; j++)
                out[parts.eids[lo + j]] = labels[j];
    }
    result = answer(status == SAT && undecided ? UNDECIDED : status, out, m, nodes);
done:
    PyMem_Free(ends);
    PyMem_Free(lends);
    PyMem_Free(ulabels);
    PyMem_Free(parts.block);
    return result;
}

/* Each vertex's degree and component index, and each component's order,
 * the twin of kmagic._backtrack_py.vertex_profile: one split_components
 * walk, whose vertex starts give the orders. */
static PyObject *
vertex_profile(PyObject *self, PyObject *args)
{
    int n;
    PyObject *us_arg, *vs_arg, *degrees = NULL, *component = NULL, *orders = NULL, *result = NULL;
    Py_ssize_t *ends = NULL, m;
    Parts parts = {0};

    if (!PyArg_ParseTuple(args, "iOO:vertex_profile", &n, &us_arg, &vs_arg))
        return NULL;
    ends = read_edges(n, us_arg, vs_arg, &m);
    if (ends == NULL || split_components(n, m, ends, ends + m, &parts) < 0)
        goto done;
    for (Py_ssize_t i = parts.count; i > 0; i--)  /* the starts turn into orders, in place */
        parts.vstart[i] -= parts.vstart[i - 1];
    if ((degrees = int_tuple(parts.deg, n)) != NULL && (component = int_tuple(parts.comp, n)) != NULL &&
        (orders = int_tuple(parts.vstart + 1, parts.count)) != NULL)
        result = PyTuple_Pack(3, degrees, component, orders);
done:
    PyMem_Free(ends);
    PyMem_Free(parts.block);
    Py_XDECREF(degrees);
    Py_XDECREF(component);
    Py_XDECREF(orders);
    return result;
}

/* The state of match_edges' search over its n vertices: vertex v's
 * neighbours, each parallel class once, are nb[first[v] .. last[v]), the
 * edge to nb[j] being eid[j]; the rest are the reference's lists, with its
 * sets as stamp arrays (x is in a set when its slot holds the set's
 * stamp, and each new set takes a fresh stamp).  tree and queue hold at
 * most n vertices: a vertex joins the tree once, as the root, as an odd
 * vertex when it first gets a parent or as the mate of one, and the queue
 * once, when it turns even. */
typedef struct {
    const Py_ssize_t *nb, *first, *last;
    Py_ssize_t *mate, *base, *parent, *even, *tree, *queue, *seen, *in_blossom;
    Py_ssize_t ntree, stamp;
} Matching;

/* Base of the blossom closed by the edge between even vertices a, b. */
static Py_ssize_t
common_base(Matching *s, Py_ssize_t a, Py_ssize_t b)
{
    Py_ssize_t stamp = ++s->stamp;
    for (;;) {
        a = s->base[a];
        s->seen[a] = stamp;
        if (s->mate[a] < 0)
            break;
        a = s->parent[s->mate[a]];
    }
    for (;;) {
        b = s->base[b];
        if (s->seen[b] == stamp)
            return b;
        b = s->parent[s->mate[b]];
    }
}

/* Walk from v up to the blossom base top, stamping the bases passed and
 * pointing each odd vertex's parent across the closing edge. */
static void
mark_path(Matching *s, Py_ssize_t v, Py_ssize_t top, Py_ssize_t child, Py_ssize_t stamp)
{
    while (s->base[v] != top) {
        s->in_blossom[s->base[v]] = stamp;
        s->in_blossom[s->base[s->mate[v]]] = stamp;
        s->parent[v] = child;
        child = s->mate[v];
        v = s->parent[s->mate[v]];
    }
}

/* Exposed end of an augmenting path from root, traced back by s->parent,
 * or -1 when there is none; s->tree lists the vertices the tree holds. */
static Py_ssize_t
augmenting_path(Matching *s, Py_ssize_t root)
{
    Py_ssize_t *base = s->base, *parent = s->parent, *mate = s->mate;
    Py_ssize_t head = 0, tail = 0;
    s->even[root] = 1;
    s->ntree = 0;
    s->tree[s->ntree++] = root;
    s->queue[tail++] = root;
    while (head < tail) {
        Py_ssize_t v = s->queue[head++];
        for (Py_ssize_t j = s->first[v]; j < s->last[v]; j++) {
            Py_ssize_t w = s->nb[j];
            if (base[v] == base[w] || mate[v] == w)
                continue;
            if (w == root || (mate[w] >= 0 && parent[mate[w]] >= 0)) {
                /* v and w are both even: contract the blossom they close */
                Py_ssize_t top = common_base(s, v, w), stamp = ++s->stamp;
                mark_path(s, v, top, w, stamp);
                mark_path(s, w, top, v, stamp);
                for (Py_ssize_t i = 0; i < s->ntree; i++) {
                    Py_ssize_t u = s->tree[i];
                    if (s->in_blossom[base[u]] == stamp) {
                        base[u] = top;
                        if (!s->even[u]) {
                            s->even[u] = 1;
                            s->queue[tail++] = u;
                        }
                    }
                }
            }
            else if (parent[w] < 0) {
                parent[w] = v;
                s->tree[s->ntree++] = w;
                if (mate[w] < 0)
                    return w;
                Py_ssize_t x = mate[w];
                s->even[x] = 1;
                s->tree[s->ntree++] = x;
                s->queue[tail++] = x;
            }
        }
    }
    return -1;
}

/* The search of maximum_matching over plain arrays, on the loopless
 * multigraph of nv vertices whose edge e joins eu[e] and ev[e]: match[v]
 * becomes vertex v's matched edge id, or -1 where v is exposed.  Returns 0,
 * or -1 with MemoryError set.  It transcribes the pure reference's
 * _matching line for line: the same neighbour lists, the same greedy pass
 * and the same alternating trees, so both twins return the same mates.
 * Where the reference keys the lowest id of each class of parallel edges
 * by its vertex pair, each vertex here keeps its first edge to each
 * neighbour, in edge-id order, marking the neighbour in owner. */
static int
match_edges(Py_ssize_t nv, Py_ssize_t m, const Py_ssize_t *eu, const Py_ssize_t *ev,
            Py_ssize_t *match)
{
    /* per edge end: neighbour and edge id; per vertex: first and last
     * neighbour slot, owner, mate, base, parent, even, tree, queue, seen
     * and in_blossom stamps */
    Py_ssize_t *block = PyMem_Calloc(4 * (size_t)m + 11 * (size_t)nv + 1, sizeof(Py_ssize_t));
    if (block == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t *nb = block, *eid = nb + 2 * m, *first = eid + 2 * m, *last = first + nv + 1;
    Py_ssize_t *owner = last + nv, *mate = owner + nv, *base = mate + nv, *parent = base + nv;
    Py_ssize_t *even = parent + nv, *tree = even + nv, *queue = tree + nv, *seen = queue + nv;
    Py_ssize_t *in_blossom = seen + nv;

    /* the adjacency, then each vertex's list cut to its first edge to each
     * neighbour, owner[w] == v once v keeps one to w */
    edge_csr(nv, m, eu, ev, first, last, eid);
    for (Py_ssize_t v = 0; v < nv; v++) {
        owner[v] = -1;
        mate[v] = -1;
        base[v] = v;
        parent[v] = -1;
    }
    for (Py_ssize_t v = 0; v < nv; v++) {
        Py_ssize_t out = first[v];
        for (Py_ssize_t j = first[v]; j < last[v]; j++) {
            Py_ssize_t e = eid[j], w = eu[e] == v ? ev[e] : eu[e];
            if (owner[w] != v) {
                owner[w] = v;
                nb[out] = w;
                eid[out++] = e;
            }
        }
        last[v] = out;
    }

    for (Py_ssize_t v = 0; v < nv; v++)
        if (mate[v] < 0)
            for (Py_ssize_t j = first[v]; j < last[v]; j++)
                if (mate[nb[j]] < 0) {
                    mate[v] = nb[j];
                    mate[nb[j]] = v;
                    break;
                }
    Matching s = {nb, first, last, mate, base, parent, even, tree, queue, seen, in_blossom, 0, 0};
    for (Py_ssize_t root = 0; root < nv; root++) {
        if (mate[root] >= 0)
            continue;
        Py_ssize_t end = augmenting_path(&s, root);
        while (end >= 0) {
            Py_ssize_t v = parent[end], after = mate[v];
            mate[end] = v;
            mate[v] = end;
            end = after;
        }
        for (Py_ssize_t i = 0; i < s.ntree; i++) {
            Py_ssize_t u = tree[i];
            base[u] = u;
            parent[u] = -1;
            even[u] = 0;
        }
    }

    /* each vertex's matched edge id */
    for (Py_ssize_t v = 0; v < nv; v++) {
        Py_ssize_t j = first[v];
        if (mate[v] >= 0)
            while (nb[j] != mate[v])
                j++;
        match[v] = mate[v] < 0 ? -1 : eid[j];
    }
    PyMem_Free(block);
    return 0;
}

/* A maximum-cardinality matching of a loopless multigraph, the twin of
 * kmagic._backtrack_py.maximum_matching: the graph read and checked, then
 * match_edges. */
static PyObject *
maximum_matching(PyObject *self, PyObject *args)
{
    int n;
    PyObject *us_arg, *vs_arg, *result = NULL;
    Py_ssize_t *ends = NULL, *match = NULL, m;

    if (!PyArg_ParseTuple(args, "iOO:maximum_matching", &n, &us_arg, &vs_arg))
        return NULL;
    ends = read_edges(n, us_arg, vs_arg, &m);
    if (ends == NULL || refuse_loops(ends, m) < 0)
        goto done;
    match = PyMem_Malloc(((size_t)n + 1) * sizeof(Py_ssize_t));
    if (match == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (match_edges(n, m, ends, ends + m, match) == 0)
        result = int_tuple(match, n);
done:
    PyMem_Free(ends);
    PyMem_Free(match);
    return result;
}

/* Petersen's split of an even-regular multigraph into 2-factors, the twin
 * of kmagic._backtrack_py.petersen_split.  The orienting walk lives on an
 * explicit stack of at most m + 1 vertices.  Every round but the last is
 * one match_edges call, the search of maximum_matching, on the out/in
 * incidence graph of the edges no earlier round took (tails 0..n-1, heads
 * n..2n-1, in edge-id order); that graph is regular, so its maximum
 * matchings are perfect and each 2-factor holds n edges. */
static PyObject *
petersen_split(PyObject *self, PyObject *args)
{
    int n;
    PyObject *us_arg, *vs_arg, *parts = NULL, *result = NULL;
    Py_ssize_t *ends = NULL, *block = NULL, m;

    if (!PyArg_ParseTuple(args, "iOO:petersen_split", &n, &us_arg, &vs_arg))
        return NULL;
    if (n < 1)
        return PyErr_Format(PyExc_ValueError, NOT_EVEN_REGULAR);
    ends = read_edges(n, us_arg, vs_arg, &m);
    if (ends == NULL)
        goto done;
    if (m < n) {  /* a vertex would have no edges: checked before allocating per vertex */
        PyErr_SetString(PyExc_ValueError, NOT_EVEN_REGULAR);
        goto done;
    }
    /* per edge: tail, round, two adjacency slots, and a round's out/in
     * edge (tail, n + head) with its edge id; per vertex: first adjacency
     * slot, walk position, the mates of its tail and head (scratch for
     * edge_csr first); the walk's stack */
    Py_ssize_t nv = n;
    block = PyMem_Calloc(8 * (size_t)m + 4 * (size_t)nv + 2, sizeof(Py_ssize_t));
    if (block == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    const Py_ssize_t *eu = ends, *ev = ends + m;
    Py_ssize_t *tail = block, *round = tail + m, *adj = round + m, *lu = adj + 2 * m, *lv = lu + m;
    Py_ssize_t *ids = lv + m, *first = ids + m, *nxt = first + nv + 1, *match = nxt + nv;
    Py_ssize_t *stack = match + 2 * nv;

    edge_csr(nv, m, eu, ev, first, match, adj);
    Py_ssize_t d = first[1];
    for (Py_ssize_t v = 0; v < nv; v++)
        if (first[v + 1] - first[v] != d)
            d = 0;
    if (d < 2 || d % 2 != 0) {
        PyErr_SetString(PyExc_ValueError, NOT_EVEN_REGULAR);
        goto done;
    }
    Py_ssize_t rho = d / 2;

    for (Py_ssize_t e = 0; e < m; e++) {
        tail[e] = -1;
        round[e] = rho - 1;  /* the last round takes what no earlier one does */
    }
    /* orient: each edge leaves the vertex the walk first crossed it from */
    for (Py_ssize_t start = 0; start < nv; start++) {
        Py_ssize_t top = 0;
        stack[0] = start;
        while (top >= 0) {
            Py_ssize_t u = stack[top], i = nxt[u];
            while (i < d && tail[adj[first[u] + i]] >= 0)
                i++;
            nxt[u] = i;
            if (i == d) {
                top--;
                continue;
            }
            Py_ssize_t e = adj[first[u] + i];
            tail[e] = u;
            stack[++top] = eu[e] == u ? ev[e] : eu[e];
        }
    }
    for (Py_ssize_t r = 0; r < rho - 1; r++) {
        Py_ssize_t left = 0;
        for (Py_ssize_t e = 0; e < m; e++)
            if (round[e] == rho - 1) {
                lu[left] = tail[e];
                lv[left] = nv + (eu[e] == tail[e] ? ev[e] : eu[e]);
                ids[left++] = e;
            }
        if (match_edges(2 * nv, left, lu, lv, match) < 0)
            goto done;
        for (Py_ssize_t v = 0; v < nv; v++) {
            if (match[v] < 0) {
                PyErr_SetString(PyExc_RuntimeError, "out/in incidence graph lost regularity");
                goto done;
            }
            round[ids[match[v]]] = r;
        }
    }

    parts = PyList_New(rho);
    if (parts == NULL)
        goto done;
    for (Py_ssize_t r = 0; r < rho; r++) {
        PyObject *part = PyList_New(0);
        if (part == NULL)
            goto done;
        PyList_SET_ITEM(parts, r, part);
    }
    for (Py_ssize_t e = 0; e < m; e++) {
        PyObject *eid = PyLong_FromSsize_t(e);
        if (eid == NULL)
            goto done;
        int failed = PyList_Append(PyList_GET_ITEM(parts, round[e]), eid);
        Py_DECREF(eid);
        if (failed)
            goto done;
    }
    result = parts;
    parts = NULL;
done:
    PyMem_Free(ends);
    PyMem_Free(block);
    Py_XDECREF(parts);
    return result;
}

static PyMethodDef methods[] = {
    {"search", search, METH_VARARGS,
     "search(n, k, c, us, vs, node_cap)\n--\n\n"
     "Find an edge labeling with all vertex sums equal to c mod k; see\n"
     "kmagic._backtrack_py.search, whose semantics this twin shares."},
    {"magic_sum", magic_sum, METH_VARARGS,
     "magic_sum(n, us, vs, labels, k)\n--\n\n"
     "The common vertex sum mod k of the labeling labels, a tuple or list with\n"
     "edge i's label at index i, of the multigraph whose edge i joins us[i] and\n"
     "vs[i], None when the sums differ, MALFORMED (-1) when labels is malformed;\n"
     "see kmagic._backtrack_py.magic_sum, whose semantics this twin shares."},
    {"petersen_split", petersen_split, METH_VARARGS,
     "petersen_split(n, us, vs)\n--\n\n"
     "Split an even-regular multigraph, edge i joining us[i] and vs[i], into\n"
     "its 2-factors, each a list of edge ids in increasing order; see\n"
     "kmagic._backtrack_py.petersen_split, whose semantics this twin shares."},
    {"split_search", split_search, METH_VARARGS,
     "split_search(n, k, c, us, vs, node_cap)\n--\n\n"
     "Find an edge labeling of a multigraph, edge i joining us[i] and vs[i],\n"
     "with all vertex sums equal to c mod k, one connected component at a time\n"
     "under its own node_cap, one search per piece and parent-bridge label over\n"
     "its bridge tree; see kmagic._backtrack_py.split_search, whose semantics\n"
     "this twin shares."},
    {"vertex_profile", vertex_profile, METH_VARARGS,
     "vertex_profile(n, us, vs)\n--\n\n"
     "(degrees, component, orders): each vertex's degree and the index of its\n"
     "connected component, numbered by smallest vertex, in the multigraph whose\n"
     "edge i joins us[i] and vs[i], and each component's vertex count, three\n"
     "flat tuples of ints; see kmagic._backtrack_py.vertex_profile, whose\n"
     "semantics this twin shares."},
    {"maximum_matching", maximum_matching, METH_VARARGS,
     "maximum_matching(n, us, vs)\n--\n\n"
     "Each vertex's matched edge id in a maximum-cardinality matching of a\n"
     "loopless multigraph, edge i joining us[i] and vs[i], or -1 where the\n"
     "vertex is exposed; see kmagic._backtrack_py.maximum_matching, whose\n"
     "semantics this twin shares."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_backtrack",
    .m_doc = "Compiled backtracking kernel, magic-sum check, Petersen 2-factor split,\n"
             "split search, vertex profile and maximum matching; semantics match\n"
             "kmagic._backtrack_py.search, kmagic._backtrack_py.magic_sum,\n"
             "kmagic._backtrack_py.petersen_split, kmagic._backtrack_py.split_search,\n"
             "kmagic._backtrack_py.vertex_profile and\n"
             "kmagic._backtrack_py.maximum_matching.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__backtrack(void)
{
    return PyModule_Create(&module);
}
