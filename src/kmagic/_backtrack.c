/* Compiled backtracking kernel, the twin of kmagic._backtrack_py.
 *
 * search() transcribes the pure reference line for line: the same edge
 * order, the same forced-label rule and the same node count, so both
 * twins return the same (status, labels or None, nodes) and raise
 * ValueError on the same bad input.  n and k are C ints; residues are
 * unsigned, so c - s + k and s + x, all below 2k, cannot overflow.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

enum { UNDECIDED = -1, UNSAT = 0, SAT = 1 };

/* Store the endpoint obj of edge i in *out; ValueError unless 0 <= obj < n. */
static int
read_endpoint(PyObject *obj, int n, Py_ssize_t i, unsigned *out)
{
    int overflow;
    long x = PyLong_AsLongAndOverflow(obj, &overflow);
    if (x == -1 && PyErr_Occurred())
        return -1;
    if (overflow || x < 0 || x >= n) {
        PyErr_Format(PyExc_ValueError, "edge %zd has an endpoint outside 0..%d", i, n - 1);
        return -1;
    }
    *out = (unsigned)x;
    return 0;
}

static PyObject *
search(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "k", "c", "us", "vs", "node_cap", NULL};
    int n, k_in, c_in, overflow;
    PyObject *us_arg, *vs_arg, *cap_arg, *us = NULL, *vs = NULL, *result = NULL;
    unsigned *block = NULL;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiiOOO:search", kwlist, &n, &k_in,
                                     &c_in, &us_arg, &vs_arg, &cap_arg))
        return NULL;
    if (k_in < 2)
        return PyErr_Format(PyExc_ValueError, "search needs k >= 2, got %d", k_in);
    long long node_cap = PyLong_AsLongLongAndOverflow(cap_arg, &overflow);
    if (node_cap == -1 && PyErr_Occurred())
        return NULL;
    if (overflow)  /* a cap past long long is never reached, a negative one never applies */
        node_cap = overflow > 0 ? LLONG_MAX : -1;
    us = PySequence_Fast(us_arg, "us must be a sequence");
    if (us == NULL)
        goto done;
    vs = PySequence_Fast(vs_arg, "vs must be a sequence");
    if (vs == NULL)
        goto done;
    Py_ssize_t m = PySequence_Fast_GET_SIZE(us);
    if (PySequence_Fast_GET_SIZE(vs) != m) {
        PyErr_SetString(PyExc_ValueError, "us and vs differ in length");
        goto done;
    }
    size_t n_slots = n > 0 ? (size_t)n : 0;
    block = PyMem_Calloc(4 * (size_t)m + 2 * n_slots, sizeof(unsigned));
    if (block == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    unsigned *eu = block, *ev = eu + m, *labels = ev + m, *nxt = labels + m;
    unsigned *left = nxt + m, *sums = left + n_slots;

    for (Py_ssize_t i = 0; i < m; i++) {
        if (read_endpoint(PySequence_Fast_GET_ITEM(us, i), n, i, &eu[i]) < 0 ||
            read_endpoint(PySequence_Fast_GET_ITEM(vs, i), n, i, &ev[i]) < 0)
            goto done;
        nxt[i] = 1;
        left[eu[i]] += 1;
        left[ev[i]] += 1;
    }

    int c_mod = c_in % k_in;
    unsigned k = (unsigned)k_in, c = (unsigned)(c_mod < 0 ? c_mod + k_in : c_mod);
    long long nodes = 0;
    Py_ssize_t pos = 0;
    int status;
    for (;;) {
        if (pos == m) {
            status = SAT;
            break;
        }
        unsigned u = eu[pos], v = ev[pos], x = 0;
        if (left[u] == 1 || left[v] == 1) {
            if (nxt[pos] == 1) {
                unsigned f;
                if (left[u] == 1) {
                    f = (c - sums[u] + k) % k;
                    if (left[v] == 1 && (c - sums[v] + k) % k != f)
                        f = 0;
                }
                else
                    f = (c - sums[v] + k) % k;
                if (f != 0) {
                    x = f;
                    nxt[pos] = k;
                }
            }
        }
        else {
            unsigned t = nxt[pos];
            if (t <= k - 1) {
                x = t;
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
            unsigned y = labels[pos], pu = eu[pos], pv = ev[pos];
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
    PyMem_Free(block);
    Py_XDECREF(us);
    Py_XDECREF(vs);
    return result;
}

static PyMethodDef methods[] = {
    {"search", (PyCFunction)(void (*)(void))search, METH_VARARGS | METH_KEYWORDS,
     "search(n, k, c, us, vs, node_cap)\n--\n\n"
     "Find an edge labeling with all vertex sums equal to c mod k; see\n"
     "kmagic._backtrack_py.search, whose semantics this twin shares."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_backtrack",
    .m_doc = "Compiled backtracking kernel; semantics match kmagic._backtrack_py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__backtrack(void)
{
    return PyModule_Create(&module);
}
