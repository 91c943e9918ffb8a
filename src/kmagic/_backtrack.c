/* Compiled twins of the five pure references in kmagic._backtrack_py:
 * the backtracking kernel, the magic-sum check, the Petersen 2-factor
 * split, the bridge tree (bridge_tree) and the vertex profile
 * (vertex_profile: each vertex's degree and component).
 *
 * search() transcribes the pure reference line for line: the same edge
 * order, the same forced-label rule and the same node count, so both
 * twins return the same (status, labels or None, nodes) and raise
 * ValueError on the same bad input.  n and k are C ints; residues are
 * unsigned, so c - s + k and s + x, all below 2k, cannot overflow.
 * Per-vertex targets replace c in the forced-label rule; a free vertex
 * (target None) carries one phantom edge that is never labeled, so no
 * edge is ever its last.  An edge limited to a list of labels tries
 * them in order, nxt holding 1 + the index of the next one, and takes
 * a forced label only when it is on the list.
 *
 * Every twin takes its multigraph as (n, us, vs): vertices 0..n-1, edge
 * i joining us[i] and vs[i].  One reader, read_edges, is the only code
 * that reads us and vs, and it holds all five twins to one contract:
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
enum { MALFORMED = -1 };  /* magic_sum's answer for labels that are not one legal label per edge */
#define NOT_EVEN_REGULAR "need an even-regular graph with degree >= 2"

/* Store obj, an int in lo..hi, in *out; otherwise raise ValueError with
 * msg, formatted with the index i and the bound hi. */
static int
read_bounded(PyObject *obj, long lo, long hi, const char *msg, Py_ssize_t i, unsigned *out)
{
    int overflow;
    long x = PyLong_AsLongAndOverflow(obj, &overflow);
    if (x == -1 && PyErr_Occurred())
        return -1;
    if (overflow || x < lo || x > hi) {
        PyErr_Format(PyExc_ValueError, msg, i, (int)hi);
        return -1;
    }
    *out = (unsigned)x;
    return 0;
}

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

/* Read the allowed labels of every edge into *labs, a growing buffer, and
 * their bounds into span: edge i may take (*labs)[span[2i]..span[2i+1]),
 * or every label when span[2i] < 0. */
static int
read_allowed(PyObject *al, int k, Py_ssize_t m, Py_ssize_t *span, unsigned **labs)
{
    Py_ssize_t used = 0, cap = 0;
    for (Py_ssize_t i = 0; i < m; i++) {
        PyObject *entry = PySequence_Fast_GET_ITEM(al, i);
        span[2 * i] = span[2 * i + 1] = -1;
        if (entry == Py_None)
            continue;
        PyObject *fast = PySequence_Fast(entry, "allowed labels must be a sequence");
        if (fast == NULL)
            return -1;
        Py_ssize_t len = PySequence_Fast_GET_SIZE(fast);
        if (used + len > cap) {
            cap = 2 * (used + len);
            unsigned *grown = PyMem_Realloc(*labs, (size_t)cap * sizeof(unsigned));
            if (grown == NULL) {
                Py_DECREF(fast);
                PyErr_NoMemory();
                return -1;
            }
            *labs = grown;
        }
        span[2 * i] = used;
        long prev = 0;
        for (Py_ssize_t j = 0; j < len; j++) {
            unsigned *slot = *labs + used;
            if (read_bounded(PySequence_Fast_GET_ITEM(fast, j), prev + 1, k - 1,
                             "allowed labels of edge %zd must increase within 1..%d", i, slot) < 0) {
                Py_DECREF(fast);
                return -1;
            }
            prev = *slot;
            used++;
        }
        span[2 * i + 1] = used;
        Py_DECREF(fast);
    }
    return 0;
}

static PyObject *
search(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "k", "c", "us", "vs", "node_cap", "targets", "allowed", NULL};
    int n, k_in, c_in, overflow;
    PyObject *us_arg, *vs_arg, *cap_arg, *tg_arg = Py_None, *al_arg = Py_None;
    PyObject *tg = NULL, *al = NULL, *result = NULL;
    unsigned *block = NULL, *alab = NULL;
    Py_ssize_t *ends = NULL, *span = NULL, m;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiiOOO|OO:search", kwlist, &n, &k_in,
                                     &c_in, &us_arg, &vs_arg, &cap_arg, &tg_arg, &al_arg))
        return NULL;
    if (k_in < 2)
        return PyErr_Format(PyExc_ValueError, "search needs k >= 2, got %d", k_in);
    long long node_cap = PyLong_AsLongLongAndOverflow(cap_arg, &overflow);
    if (node_cap == -1 && PyErr_Occurred())
        return NULL;
    if (overflow)  /* a cap past long long is never reached, a negative one never applies */
        node_cap = overflow > 0 ? LLONG_MAX : -1;
    ends = read_edges(n, us_arg, vs_arg, &m);
    if (ends == NULL)
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

    int c_mod = c_in % k_in;
    unsigned k = (unsigned)k_in, c = (unsigned)(c_mod < 0 ? c_mod + k_in : c_mod);
    for (int v = 0; v < n; v++)
        tgt[v] = c;
    if (tg_arg != Py_None) {
        tg = PySequence_Fast(tg_arg, "targets must be a sequence");
        if (tg == NULL)
            goto done;
        if (PySequence_Fast_GET_SIZE(tg) != n) {
            PyErr_SetString(PyExc_ValueError, "targets must hold one entry per vertex");
            goto done;
        }
        for (Py_ssize_t v = 0; v < n; v++) {
            PyObject *t = PySequence_Fast_GET_ITEM(tg, v);
            if (t == Py_None)
                left[v] += 1;  /* a phantom edge that is never labeled */
            else if (read_bounded(t, 0, k_in - 1, "target of vertex %zd lies outside 0..%d", v,
                                  &tgt[v]) < 0)
                goto done;
        }
    }
    if (al_arg != Py_None) {
        al = PySequence_Fast(al_arg, "allowed must be a sequence");
        if (al == NULL)
            goto done;
        if (PySequence_Fast_GET_SIZE(al) != m) {
            PyErr_SetString(PyExc_ValueError, "allowed must hold one entry per edge");
            goto done;
        }
        span = PyMem_Malloc((2 * (size_t)m + 1) * sizeof(Py_ssize_t));
        if (span == NULL) {
            PyErr_NoMemory();
            goto done;
        }
        if (read_allowed(al, k_in, m, span, &alab) < 0)
            goto done;
    }

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

    if (status != SAT) {
        result = Py_BuildValue("(iOL)", status, Py_None, nodes);
        goto done;
    }
    PyObject *out = PyList_New(m);
    if (out == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < m; i++) {
        PyObject *label = PyLong_FromUnsignedLong(labels[i]);
        if (label == NULL) {
            Py_DECREF(out);
            goto done;
        }
        PyList_SET_ITEM(out, i, label);
    }
    result = Py_BuildValue("(iNL)", status, out, nodes);
done:
    PyMem_Free(ends);
    PyMem_Free(block);
    PyMem_Free(span);
    PyMem_Free(alab);
    Py_XDECREF(tg);
    Py_XDECREF(al);
    return result;
}

/* The common vertex sum mod k of a labeling, the twin of
 * kmagic._backtrack_py.magic_sum: MALFORMED unless the dict labels holds
 * exactly the ids 0..m-1, each with an int label in 1..k-1, else the sum
 * or None.  Each id is looked up as a Python int, so a key is matched by
 * Python equality, as the reference matches it.  Labels lie below k, a
 * C int, so the per-vertex sums, at most m labels each, fit unsigned
 * long long. */
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
    if (!PyDict_Check(labels)) {
        PyErr_SetString(PyExc_TypeError, "labels must be a dict");
        goto done;
    }
    if (PyDict_GET_SIZE(labels) != m) {
        result = PyLong_FromLong(MALFORMED);
        goto done;
    }
    sums = PyMem_Calloc((size_t)n + 1, sizeof(unsigned long long));
    if (sums == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < m; i++) {
        PyObject *key = PyLong_FromSsize_t(i);
        if (key == NULL)
            goto done;
        PyObject *val = PyDict_GetItemWithError(labels, key);  /* borrowed */
        Py_DECREF(key);
        if (val == NULL && PyErr_Occurred())
            goto done;
        int overflow = 0;
        long x = val != NULL && PyLong_Check(val) ? PyLong_AsLongAndOverflow(val, &overflow) : 0;
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

/* Petersen's split of an even-regular multigraph into 2-factors, the twin
 * of kmagic._backtrack_py.petersen_split.  The orienting walk and the
 * augmenting paths live on explicit stacks: the walk's holds at most
 * m + 1 vertices, a path at most n tails, since each tail after the root
 * is matched into a head first reached on that path.  Every round but the
 * last finds a perfect matching of the out/in incidence graph over the
 * edges no earlier round took, so each 2-factor holds n edges. */
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
    /* per edge: tail, arc (edge id, head) by tail, round; per vertex:
     * degree, walk position, first arc, path state; the walk's stack */
    Py_ssize_t nv = n;
    block = PyMem_Calloc(7 * (size_t)m + 8 * (size_t)nv + 2, sizeof(Py_ssize_t));
    if (block == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    const Py_ssize_t *eu = ends, *ev = ends + m;
    Py_ssize_t *tail = block, *arc = tail + m, *head = arc + m;
    Py_ssize_t *round = head + m, *adj = round + m, *deg = adj + 2 * m, *nxt = deg + nv;
    Py_ssize_t *first = nxt + nv, *tail_of = first + nv + 1, *arc_of = tail_of + nv;
    Py_ssize_t *seen = arc_of + nv, *tails = seen + nv, *pos = tails + nv, *stack = pos + nv;

    for (Py_ssize_t i = 0; i < m; i++) {
        deg[eu[i]] += 1;
        deg[ev[i]] += 1;
    }
    Py_ssize_t d = deg[0];
    for (Py_ssize_t v = 0; v < nv; v++)
        if (deg[v] != d)
            d = 0;
    if (d < 2 || d % 2 != 0) {
        PyErr_SetString(PyExc_ValueError, NOT_EVEN_REGULAR);
        goto done;
    }
    Py_ssize_t rho = d / 2;

    /* the adjacency in edge-id order, vertex v's at adj[v * d .. (v + 1) * d) */
    for (Py_ssize_t v = 0; v < nv; v++)
        deg[v] = 0;
    for (Py_ssize_t e = 0; e < m; e++) {
        adj[eu[e] * d + deg[eu[e]]++] = e;
        adj[ev[e] * d + deg[ev[e]]++] = e;
        tail[e] = -1;
        round[e] = rho - 1;  /* the last round takes what no earlier one does */
    }
    if (rho > 1) {
        /* orient: each edge leaves the vertex the walk first crossed it from */
        for (Py_ssize_t start = 0; start < nv; start++) {
            Py_ssize_t top = 0;
            stack[0] = start;
            while (top >= 0) {
                Py_ssize_t u = stack[top], i = nxt[u];
                while (i < d && tail[adj[u * d + i]] >= 0)
                    i++;
                nxt[u] = i;
                if (i == d) {
                    top--;
                    continue;
                }
                Py_ssize_t e = adj[u * d + i];
                tail[e] = u;
                stack[++top] = eu[e] == u ? ev[e] : eu[e];
            }
        }
        /* the out-arcs of tail u, by edge id, at arc[first[u] .. first[u + 1]) */
        for (Py_ssize_t e = 0; e < m; e++)
            first[tail[e] + 1] += 1;
        for (Py_ssize_t v = 0; v < nv; v++)
            first[v + 1] += first[v];
        for (Py_ssize_t v = 0; v < nv; v++)
            nxt[v] = first[v];
        for (Py_ssize_t e = 0; e < m; e++) {
            Py_ssize_t u = tail[e], j = nxt[u]++;
            arc[j] = e;
            head[j] = eu[e] == u ? ev[e] : eu[e];
        }
        for (Py_ssize_t v = 0; v < nv; v++)
            seen[v] = -1;
    }
    for (Py_ssize_t r = 0; r < rho - 1; r++) {
        for (Py_ssize_t v = 0; v < nv; v++)
            tail_of[v] = -1;
        for (Py_ssize_t root = 0; root < nv; root++) {
            /* seen[h] == r * n + root: this round's search from root reached h */
            Py_ssize_t mark = r * nv + root, depth = 1;
            tails[0] = root;
            pos[0] = first[root];
            for (;;) {
                Py_ssize_t u = tails[depth - 1], i = pos[depth - 1], end = first[u + 1];
                while (i < end && (seen[head[i]] == mark || round[arc[i]] < r))
                    i++;
                pos[depth - 1] = i + 1;
                if (i == end) {
                    if (--depth == 0) {
                        PyErr_SetString(PyExc_RuntimeError,
                                        "out/in incidence graph lost regularity");
                        goto done;
                    }
                    continue;
                }
                seen[head[i]] = mark;
                if (tail_of[head[i]] < 0)
                    break;
                tails[depth] = tail_of[head[i]];
                pos[depth] = first[tails[depth]];
                depth++;
            }
            for (Py_ssize_t j = 0; j < depth; j++) {
                Py_ssize_t a = pos[j] - 1;
                tail_of[head[a]] = tails[j];
                arc_of[head[a]] = arc[a];
            }
        }
        for (Py_ssize_t v = 0; v < nv; v++)
            round[arc_of[v]] = r;
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

/* A new tuple of the pairs (pos[i], idx[i]) for i in 0..len, or NULL. */
static PyObject *
pair_tuple(const Py_ssize_t *pos, const Py_ssize_t *idx, Py_ssize_t len)
{
    PyObject *t = PyTuple_New(len);
    if (t == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < len; i++) {
        PyObject *pair = Py_BuildValue("(nn)", pos[i], idx[i]);
        if (pair == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, pair);
    }
    return t;
}

/* The piece tuple (n_local, entry, order, us, vs, children, edgeless) of
 * kmagic._backtrack_py.bridge_tree, or NULL.  Every field is built before
 * the tuple, so no tuple with an empty slot is ever made. */
static PyObject *
piece_tuple(Py_ssize_t size, Py_ssize_t entry, const Py_ssize_t *order, const Py_ssize_t *pus,
            const Py_ssize_t *pvs, Py_ssize_t len, const Py_ssize_t *cpos, const Py_ssize_t *cidx,
            Py_ssize_t nch)
{
    PyObject *f[7] = {NULL};
    PyObject *piece = NULL;
    if ((f[0] = PyLong_FromSsize_t(size + (nch > 0))) != NULL &&
        (f[1] = PyLong_FromSsize_t(entry)) != NULL &&
        (f[2] = int_tuple(order, len)) != NULL &&
        (f[3] = int_tuple(pus, len)) != NULL &&
        (f[4] = int_tuple(pvs, len)) != NULL &&
        (f[5] = pair_tuple(cpos, cidx, nch)) != NULL) {
        f[6] = PyBool_FromLong(size == 1);
        piece = PyTuple_Pack(7, f[0], f[1], f[2], f[3], f[4], f[5], f[6]);
    }
    for (int j = 0; j < 7; j++)
        Py_XDECREF(f[j]);
    return piece;
}

/* The 2-edge-connected pieces of a connected multigraph, the twin of
 * kmagic._backtrack_py.bridge_tree.  One lowpoint walk from vertex 0
 * marks the bridges and checks that the graph is connected; one scan
 * numbers the pieces by smallest vertex and each vertex within its
 * piece; one breadth-first walk per piece, top-down over the bridge
 * tree, lists its edges, each edge once overall, so the per-piece lists
 * are consecutive runs of shared arrays.  Every stack and queue holds at
 * most n vertices, and a graph has at most n pieces and n - 1 bridges. */
static PyObject *
bridge_tree(PyObject *self, PyObject *args)
{
    int n;
    PyObject *us_arg, *vs_arg, *pieces = NULL, *result = NULL;
    Py_ssize_t *ends = NULL, *block = NULL, m;

    if (!PyArg_ParseTuple(args, "iOO:bridge_tree", &n, &us_arg, &vs_arg))
        return NULL;
    if (n < 1)
        return PyErr_Format(PyExc_ValueError, "bridge_tree needs n >= 1, got %d", n);
    ends = read_edges(n, us_arg, vs_arg, &m);
    if (ends == NULL)
        goto done;
    if (m < (Py_ssize_t)n - 1) {  /* checked before allocating per vertex */
        PyErr_SetString(PyExc_ValueError, "graph is not connected");
        goto done;
    }
    /* per edge: adjacency (two slots), bridge and seen flags, the pieces'
     * order, us and vs; per vertex: first adjacency slot, walk position,
     * discovery, lowpoint, tree edge, stack, piece, local number, queue,
     * visited flag, piece size; per output piece: entry, order start,
     * children start; per bridge: child position and index */
    Py_ssize_t nv = n;
    block = PyMem_Calloc(7 * (size_t)m + 16 * (size_t)nv + 3, sizeof(Py_ssize_t));
    if (block == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    const Py_ssize_t *eu = ends, *ev = ends + m;
    Py_ssize_t *adj = block, *bridge = adj + 2 * m;
    Py_ssize_t *eseen = bridge + m, *order = eseen + m, *pus = order + m, *pvs = pus + m;
    Py_ssize_t *first = pvs + m, *nxt = first + nv + 1, *disc = nxt + nv, *low = disc + nv;
    Py_ssize_t *via = low + nv, *stack = via + nv, *piece_of = stack + nv, *local = piece_of + nv;
    Py_ssize_t *queue = local + nv, *visited = queue + nv, *size = visited + nv;
    Py_ssize_t *entry = size + nv, *ostart = entry + nv, *cstart = ostart + nv + 1;
    Py_ssize_t *cpos = cstart + nv + 1, *cidx = cpos + nv;

    for (Py_ssize_t i = 0; i < m; i++) {
        first[eu[i] + 1] += 1;
        first[ev[i] + 1] += 1;
    }
    /* the adjacency in edge-id order, vertex v's at adj[first[v] .. first[v + 1]) */
    for (Py_ssize_t v = 0; v < nv; v++)
        first[v + 1] += first[v];
    for (Py_ssize_t v = 0; v < nv; v++)
        nxt[v] = first[v];
    for (Py_ssize_t e = 0; e < m; e++) {
        adj[nxt[eu[e]]++] = e;
        adj[nxt[ev[e]]++] = e;
    }

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
    if (seen < nv) {
        PyErr_SetString(PyExc_ValueError, "graph is not connected");
        goto done;
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
    }
    ostart[ntodo] = len;
    cstart[ntodo] = nch;

    pieces = PyList_New(ntodo);
    if (pieces == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < ntodo; i++) {
        Py_ssize_t lo = ostart[i], clo = cstart[i];
        PyObject *piece = piece_tuple(size[piece_of[entry[i]]], local[entry[i]], order + lo,
                                      pus + lo, pvs + lo, ostart[i + 1] - lo, cpos + clo,
                                      cidx + clo, cstart[i + 1] - clo);
        if (piece == NULL)
            goto done;
        PyList_SET_ITEM(pieces, i, piece);
    }
    result = pieces;
    pieces = NULL;
done:
    PyMem_Free(ends);
    PyMem_Free(block);
    Py_XDECREF(pieces);
    return result;
}

/* Each vertex's degree and component index, the twin of
 * kmagic._backtrack_py.vertex_profile.  One pass over the edges counts
 * the degrees and joins the trees of each edge's ends, the larger root
 * under the smaller one, with path halving; so every root is the smallest
 * vertex of its tree, and one pass over the vertices in order numbers the
 * components by smallest vertex, each vertex after its root. */
static PyObject *
vertex_profile(PyObject *self, PyObject *args)
{
    int n;
    PyObject *us_arg, *vs_arg, *degrees = NULL, *component = NULL, *result = NULL;
    Py_ssize_t *ends = NULL, *block = NULL, m;

    if (!PyArg_ParseTuple(args, "iOO:vertex_profile", &n, &us_arg, &vs_arg))
        return NULL;
    ends = read_edges(n, us_arg, vs_arg, &m);
    if (ends == NULL)
        goto done;
    /* per vertex: degree, tree parent, component */
    Py_ssize_t nv = n;
    block = PyMem_Calloc(3 * (size_t)nv + 1, sizeof(Py_ssize_t));
    if (block == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    const Py_ssize_t *eu = ends, *ev = ends + m;
    Py_ssize_t *deg = block, *parent = deg + nv, *comp = parent + nv;

    for (Py_ssize_t v = 0; v < nv; v++)
        parent[v] = v;
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
    if ((degrees = int_tuple(deg, nv)) != NULL && (component = int_tuple(comp, nv)) != NULL)
        result = PyTuple_Pack(2, degrees, component);
done:
    PyMem_Free(ends);
    PyMem_Free(block);
    Py_XDECREF(degrees);
    Py_XDECREF(component);
    return result;
}

static PyMethodDef methods[] = {
    {"search", (PyCFunction)(void (*)(void))search, METH_VARARGS | METH_KEYWORDS,
     "search(n, k, c, us, vs, node_cap, targets=None, allowed=None)\n--\n\n"
     "Find an edge labeling with all vertex sums equal to c mod k; see\n"
     "kmagic._backtrack_py.search, whose semantics this twin shares."},
    {"magic_sum", magic_sum, METH_VARARGS,
     "magic_sum(n, us, vs, labels, k)\n--\n\n"
     "The common vertex sum mod k of the labeling labels (edge id -> label) of\n"
     "the multigraph whose edge i joins us[i] and vs[i], None when the sums\n"
     "differ, MALFORMED (-1) when labels is malformed; see kmagic._backtrack_py.magic_sum,\n"
     "whose semantics this twin shares."},
    {"petersen_split", petersen_split, METH_VARARGS,
     "petersen_split(n, us, vs)\n--\n\n"
     "Split an even-regular multigraph, edge i joining us[i] and vs[i], into\n"
     "its 2-factors, each a list of edge ids in increasing order; see\n"
     "kmagic._backtrack_py.petersen_split, whose semantics this twin shares."},
    {"bridge_tree", bridge_tree, METH_VARARGS,
     "bridge_tree(n, us, vs)\n--\n\n"
     "The 2-edge-connected pieces of a connected multigraph, edge i joining\n"
     "us[i] and vs[i], as (n_local, entry, order, us, vs, children, edgeless)\n"
     "tuples, the piece of vertex 0 first and each piece after its parent; see\n"
     "kmagic._backtrack_py.bridge_tree, whose semantics this twin shares."},
    {"vertex_profile", vertex_profile, METH_VARARGS,
     "vertex_profile(n, us, vs)\n--\n\n"
     "(degrees, component): each vertex's degree and the index of its connected\n"
     "component, numbered by smallest vertex, in the multigraph whose edge i\n"
     "joins us[i] and vs[i]; see kmagic._backtrack_py.vertex_profile, whose\n"
     "semantics this twin shares."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_backtrack",
    .m_doc = "Compiled backtracking kernel, magic-sum check, Petersen 2-factor split,\n"
             "bridge tree and vertex profile; semantics match kmagic._backtrack_py.search,\n"
             "kmagic._backtrack_py.magic_sum, kmagic._backtrack_py.petersen_split,\n"
             "kmagic._backtrack_py.bridge_tree and kmagic._backtrack_py.vertex_profile.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__backtrack(void)
{
    return PyModule_Create(&module);
}
