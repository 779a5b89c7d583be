/*
 * Compiled core of the two-stage and backtracking solvers.
 *
 * Two searches are written once each, as cores on C arrays that the
 * entries share.  dfs_run is the bounded labelling DFS: it labels a fixed
 * sequence of nodes, each after its parent, with unused values and new
 * edge sums, and with weights it keeps the weighted sum of stage 1's
 * congruence (the solve table of the last position and the lookahead of
 * the second-last one).  leaf_run is the leaf search of
 * twostage.solve_leaf_csp: forward checking, smallest domain first, the
 * Hall check at the root and (once the search has backtracked) below it,
 * and sibling refutation.
 *
 * The two stages read the tree in one place and the leaf CSP is built in
 * one place: take_shape takes the tree's shape from its parent array
 * (the internal nodes for stage 1, the leaves with their neighbours and
 * sibling masks for stage 2), and leaf_domains gives each leaf the values
 * that stage 1's labels leave it.  solve_twostage runs a whole
 * twostage.solve_twostage call: up to `runs` rounds of stage 1, the leaf
 * CSP and stage 2 on one shape, then the labels reduced mod n-1.  stage1
 * runs one round of stage 1 (twostage.stage1_internal), and stage2 the
 * leaf CSP and stage 2 on the tree and stage 1's labels
 * (twostage.solve_leaf_csp).  solve_backtracking runs a whole
 * backtracking.solve_backtracking call: up to `restarts` runs, each
 * drawing a root label and then labelling nodes 1..n-1.  The solvers call
 * solve_twostage and solve_backtracking; the stage functions of twostage
 * call stage1 and stage2 as library and test entry points.  The Python
 * references in tests/search_reference.py document the searches and the
 * leaf-CSP build step for step, and the tests hold this file to them.
 *
 * Values, sums and leaf positions are bits of a uint64_t, so a tree has
 * at most 64 nodes.  Every entry takes an int seed, 0 <= seed < 2**64,
 * and draws only from an MT19937 of its own (Matsumoto and Nishimura,
 * ACM TOMACS 1998), seeded as random.Random seeds that int, so it makes
 * the draws that random.Random(seed) would.  A level with c >= 2 untried
 * values draws r as random.Random._randbelow(c) does (getrandbits of c's
 * bit length until it is below c) and takes the r-th lowest untried
 * value; a last untried value draws nothing.  A backtracking run draws
 * its root label the same way over the values 0..n-2, which is
 * random.Random.randrange(n-1) for n >= 3.  Nothing else is drawn, and
 * no search calls back into Python to draw.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <string.h>

#define MAX_NODES 64

static inline int
floor_mod(long long a, int m)
{
    long long r = a % m;
    return (int)(r < 0 ? r + m : r);
}

static inline int
popcount(uint64_t x)
{
    return __builtin_popcountll(x);
}

static inline int
lowest_bit(uint64_t x)
{
    return __builtin_ctzll(x);
}

/* ------------------------------------------------------------------ */
/* Draws                                                               */
/* ------------------------------------------------------------------ */

#define MT_N 624
#define MT_M 397

/* MT19937 as CPython's _random module runs it. */
struct mt {
    uint32_t state[MT_N];
    int index;          /* the next word to twist and return */
};

/* init_genrand(19650218), where every seeding starts; set at module init */
static uint32_t mt_base[MT_N];

/* random.Random(seed) for an int 0 <= seed < 2**64: CPython's
 * init_by_array over the seed's 32-bit words, least significant first
 * (one word when the seed is below 2**32), with its index wrap-arounds
 * unrolled.  Its first loop runs MT_N steps from i = 1: i = 1..MT_N-1,
 * then mt[0] = mt[MT_N-1] and i = 1 once more; key word j goes round
 * with the step.  Its second loop runs MT_N-1 steps from i = 2 with the
 * same wrap.  Each step reads the word the step before wrote, kept in
 * prev. */
static void
mt_seed(struct mt *g, uint64_t seed)
{
    uint32_t key[2] = {(uint32_t)seed, (uint32_t)(seed >> 32)};
    uint32_t two = seed >> 32 ? 1 : 0;   /* j = step % 2 for a key of two words, else 0 */
    uint32_t *mt = g->state;
    uint32_t prev = mt_base[0], j;
    for (uint32_t i = 1; i < MT_N; i++) {
        j = (i - 1) & two;
        prev = mt[i] = (mt_base[i] ^ ((prev ^ (prev >> 30)) * 1664525U)) + key[j] + j;
    }
    j = (MT_N - 1) & two;
    prev = mt[1] = (mt[1] ^ ((prev ^ (prev >> 30)) * 1664525U)) + key[j] + j;
    for (uint32_t i = 2; i < MT_N; i++)
        prev = mt[i] = (mt[i] ^ ((prev ^ (prev >> 30)) * 1566083941U)) - i;
    mt[1] = (mt[1] ^ ((prev ^ (prev >> 30)) * 1566083941U)) - 1;
    mt[0] = 0x80000000U;
    g->index = 0;
}

/* The next 32-bit output.  CPython twists all MT_N words once they are
 * used up; twisting each word just before it is returned computes the
 * same words (word i reads words i+1 and i+M before they are twisted,
 * and words below i after), and leaves untwisted the words a solve never
 * reaches. */
static inline uint32_t
mt_next(struct mt *g)
{
    uint32_t *mt = g->state;
    int i = g->index;
    int i1 = i + 1 == MT_N ? 0 : i + 1;
    int im = i < MT_N - MT_M ? i + MT_M : i + MT_M - MT_N;
    uint32_t y = (mt[i] & 0x80000000U) | (mt[i1] & 0x7fffffffU);
    y = mt[i] = mt[im] ^ (y >> 1) ^ (-(y & 1U) & 0x9908b0dfU);
    g->index = i1;
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

/* One value of the non-empty mask, drawn from g as described at the top:
 * getrandbits(k) for k <= 32 is the top k bits of one output. */
static inline int
pick(uint64_t mask, struct mt *g)
{
    int c = popcount(mask);
    if (c > 1) {
        int bits = 32 - __builtin_clz((unsigned)c);
        uint32_t r;
        do
            r = mt_next(g) >> (32 - bits);
        while (r >= (uint32_t)c);
        while (r--)
            mask &= mask - 1;
    }
    return lowest_bit(mask);
}

/* The values w in 0..m whose edge sum with parent label pl is a bit of
 * open: open rotated right by pl % m within m bits, plus bit m when bit
 * pl % m is open (value m has the sum of value 0). */
static inline uint64_t
open_values(uint64_t open, int pl, int m)
{
    int r = floor_mod(pl, m);
    uint64_t low = (UINT64_C(1) << m) - 1;
    uint64_t allowed = ((open >> r) | (open << (m - r))) & low;
    if (open >> r & 1)
        allowed |= UINT64_C(1) << m;
    return allowed;
}

/* The readers every entry shares: its arity, its limits and its int
 * sequences.  Each returns -1 with an exception set when it refuses. */

static int
check_arity(const char *entry, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments", entry, want);
    return -1;
}

/* A limit (a budget or a run count) is an int; one beyond long long is
 * clamped to its range. */
static int
read_limit(PyObject *obj, long long *out)
{
    int overflow;
    long long b = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (b == -1 && PyErr_Occurred())
        return -1;
    *out = overflow > 0 ? LLONG_MAX : overflow < 0 ? LLONG_MIN : b;
    return 0;
}

/* A seed is an int, 0 <= seed < 2**64. */
static int
read_seed(PyObject *obj, uint64_t *out)
{
    if (!PyLong_Check(obj)) {
        PyErr_SetString(PyExc_TypeError, "seed must be an int");
        return -1;
    }
    unsigned long long seed = PyLong_AsUnsignedLongLong(obj);
    if (seed == (unsigned long long)-1 && PyErr_Occurred()) {
        if (PyErr_ExceptionMatches(PyExc_OverflowError)) {
            PyErr_Clear();
            PyErr_SetString(PyExc_ValueError, "seed must be at least 0 and below 2**64");
        }
        return -1;
    }
    *out = seed;
    return 0;
}

/* The ints of a sequence argument into out, refusing more than
 * MAX_NODES as a tree of that many nodes.  Returns the sequence's length.
 * READ_INT_SEQ names the argument once: its name is a string literal, so
 * the refusal of a non-sequence is joined at compile time and a call
 * formats no message it does not raise. */
#define READ_INT_SEQ(obj, name, out) read_int_seq((obj), name " must be a sequence", (out))

static Py_ssize_t
read_int_seq(PyObject *obj, const char *not_a_sequence, long long *out)
{
    PyObject *fast = PySequence_Fast(obj, not_a_sequence);
    if (fast == NULL)
        return -1;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(fast);
    if (len > MAX_NODES) {
        PyErr_Format(PyExc_ValueError,
                     "the search kernel handles trees of at most %d nodes, not %zd",
                     MAX_NODES, len);
        len = -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < len; i++) {
        out[i] = PyLong_AsLongLong(items[i]);
        if (out[i] == -1 && PyErr_Occurred()) {
            len = -1;
            break;
        }
    }
    Py_DECREF(fast);
    return len;
}

/* The parents of a tree of min_nodes..MAX_NODES nodes in preorder, as
 * Tree.parents holds them: -1, then each node's earlier parent.  Returns
 * the node count. */
static int
read_parents(PyObject *obj, const char *entry, int min_nodes, long long *parents)
{
    Py_ssize_t n = READ_INT_SEQ(obj, "parents", parents);
    if (n < 0)
        return -1;
    if (n < min_nodes) {
        PyErr_Format(PyExc_ValueError, "%s needs at least %d nodes", entry, min_nodes);
        return -1;
    }
    for (Py_ssize_t v = 0; v < n; v++) {
        if (v == 0 ? parents[v] != -1 : (parents[v] < 0 || parents[v] >= v)) {
            PyErr_SetString(PyExc_ValueError, "parents must be -1 for node 0 and "
                            "an earlier node for every other node");
            return -1;
        }
    }
    return (int)n;
}

/* The labels of nodes 0..n-1 as a tuple, reduced mod n-1 when reduce is
 * set. */
static PyObject *
labels_tuple(const int *lab, int n, int reduce)
{
    PyObject *labels = PyTuple_New(n);
    if (labels == NULL)
        return NULL;
    for (int v = 0; v < n; v++) {
        PyObject *x = PyLong_FromLong(reduce ? lab[v] % (n - 1) : lab[v]);
        if (x == NULL) {
            Py_DECREF(labels);
            return NULL;
        }
        PyTuple_SET_ITEM(labels, v, x);
    }
    return labels;
}

/* ------------------------------------------------------------------ */
/* Hall's condition                                                    */
/* ------------------------------------------------------------------ */

struct matching {
    uint64_t *masks;
    int owner[64];     /* bit -> index of the mask holding it */
    uint64_t taken;    /* the bits held */
    uint64_t seen;     /* the bits visited by this augmentation */
};

static int
augment(struct matching *mt, int i)
{
    uint64_t spare = mt->masks[i] & ~mt->taken;
    if (spare) {
        int bit = lowest_bit(spare);
        mt->taken |= UINT64_C(1) << bit;
        mt->owner[bit] = i;
        return 1;
    }
    for (;;) {
        uint64_t avail = mt->masks[i] & ~mt->seen;
        if (!avail)
            return 0;
        int bit = lowest_bit(avail);
        mt->seen |= UINT64_C(1) << bit;
        if (augment(mt, mt->owner[bit])) {
            mt->owner[bit] = i;
            return 1;
        }
    }
}

/* True when every mask can keep a bit of its own that no other mask
 * keeps: a greedy pass that takes each mask's lowest free bit, then
 * Kuhn's augmenting paths for the masks it left without one. */
static int
matchable(uint64_t *masks, int count)
{
    struct matching mt;
    int pending[64];
    int n_pending = 0;
    mt.masks = masks;
    mt.taken = 0;
    for (int i = 0; i < count; i++) {
        uint64_t spare = masks[i] & ~mt.taken;
        if (spare) {
            int bit = lowest_bit(spare);
            mt.taken |= UINT64_C(1) << bit;
            mt.owner[bit] = i;
        }
        else {
            pending[n_pending++] = i;
        }
    }
    for (int p = 0; p < n_pending; p++) {
        mt.seen = 0;
        if (!augment(&mt, pending[p]))
            return 0;
    }
    return 1;
}

/* True when the free leaves (the non-zero domains) can be matched to
 * distinct values of their domains, and also to distinct edge sums.  The
 * sums of a domain are its values rotated left by the parent label, the
 * inverse of open_values. */
static int
hall_holds(uint64_t *doms, const int *plm, int k, int m)
{
    uint64_t masks[64];
    uint64_t low = (UINT64_C(1) << m) - 1;
    int count = 0;
    for (int j = 0; j < k; j++)
        if (doms[j])
            masks[count++] = doms[j];
    if (!matchable(masks, count))
        return 0;
    count = 0;
    for (int j = 0; j < k; j++) {
        uint64_t dom = doms[j];
        if (!dom)
            continue;
        int r = plm[j];
        uint64_t d = dom & low;
        uint64_t mask = ((d << r) | (d >> (m - r))) & low;
        if (dom >> m & 1)
            mask |= UINT64_C(1) << r;
        masks[count++] = mask;
    }
    return matchable(masks, count);
}

/* ------------------------------------------------------------------ */
/* The labelling DFS                                                   */
/* ------------------------------------------------------------------ */

struct dfs {
    int m;                      /* edge sums are taken mod m */
    int size;                   /* the positions to label */
    int last;                   /* the last position */
    int weighted;
    uint64_t low;               /* the m sum bits */
    uint64_t full;              /* the values 0..n_values-1 */
    uint64_t used_values;
    uint64_t used_sums;
    int total;                  /* sum of weights[k] * value so far, mod m */
    int w_last;                 /* weights[last] mod m */
    int p_last;                 /* see dfs_setup */
    long long backtracks;       /* spent by the last dfs_run */
    int ord[MAX_NODES];         /* the node of each position */
    int par[MAX_NODES];         /* the parent node of each position, or -1 */
    int wmod[MAX_NODES];        /* the weight of each position mod m */
    int lab[MAX_NODES];         /* the label of each node */
    uint64_t solve[MAX_NODES];  /* values w with w_last * w = t (mod m) */
    uint64_t pre[MAX_NODES];    /* values x with weights[last-1] * x = q (mod m) */
};

/* Fills in the rest of a search over positions 0..size-1, once ord, par
 * and (when weighted) wmod hold them: labels of n >= 2 nodes, values
 * 0..n_values-1 (n_values <= 64). */
static void
dfs_setup(struct dfs *s, int n, int n_values, int size, int weighted)
{
    int m = s->m = n - 1;
    int last = s->last = size - 1;
    s->size = size;
    s->weighted = weighted;
    s->low = (UINT64_C(1) << m) - 1;
    s->full = n_values == 64 ? ~UINT64_C(0) : (UINT64_C(1) << n_values) - 1;
    s->p_last = -1;
    if (!weighted)
        return;
    s->w_last = s->wmod[last];
    memset(s->solve, 0, sizeof s->solve);
    for (int w = 0; w < n_values; w++)
        s->solve[s->w_last * w % m] |= UINT64_C(1) << w;
    if (size >= 2) {
        int w_pre = s->wmod[last - 1];
        memset(s->pre, 0, sizeof s->pre);
        for (int x = 0; x < n_values; x++)
            s->pre[w_pre * x % m] |= UINT64_C(1) << x;
        /* the last node's parent, when its label is known before the
         * second-last position is chosen */
        s->p_last = s->par[last];
        if (s->p_last == s->ord[last - 1])
            s->p_last = -1;
    }
}

/* The candidates of depth k: unused values with a new edge sum, which at
 * the last position close the weighted sum and at the second-last leave
 * the last position a value that closes it. */
static uint64_t
candidates(const struct dfs *s, int k)
{
    int m = s->m;
    uint64_t open = s->low & ~s->used_sums;
    uint64_t free_ = s->full & ~s->used_values;
    int p = s->par[k];
    if (p >= 0)
        free_ &= open_values(open, s->lab[p], m);
    if (s->weighted && k == s->last) {
        free_ &= s->solve[(m - s->total) % m];
    }
    else if (s->weighted && k == s->last - 1) {
        /* the values x that some candidate y of the last position can
         * close: pre[(-total - w_last * y) % m] over those y */
        uint64_t ys = s->full & ~s->used_values;
        if (s->p_last >= 0)
            ys &= open_values(open, s->lab[s->p_last], m);
        uint64_t reach = 0;
        for (; ys; ys &= ys - 1)
            reach |= s->pre[floor_mod(-(long long)s->total
                                      - (long long)s->w_last * lowest_bit(ys), m)];
        free_ &= reach;
    }
    return free_;
}

/* The search from no labelled position, drawing from g: 1 once every
 * position is labelled, 0 once the budget is spent or the candidates run
 * out.  Afterwards used_values and used_sums hold the labelled positions'
 * values and edge sums, and backtracks the backtracks spent. */
static int
dfs_run(struct dfs *s, long long budget, struct mt *g)
{
    uint64_t untried[MAX_NODES];   /* each depth's untried candidates */
    int m = s->m;
    long long spent = 0;
    int found;
    int k = 0;
    s->used_values = s->used_sums = 0;
    s->total = 0;
    untried[0] = candidates(s, 0);
    for (;;) {
        uint64_t mask = untried[k];
        if (!mask) {
            if (spent >= budget) {
                found = 0;
                break;
            }
            spent++;
            k--;
            if (k < 0) {
                found = 0;
                break;
            }
            int value = s->lab[s->ord[k]];
            s->used_values ^= UINT64_C(1) << value;
            int p = s->par[k];
            if (p >= 0)
                s->used_sums ^= UINT64_C(1) << floor_mod((long long)value + s->lab[p], m);
            if (s->weighted)
                s->total = floor_mod((long long)s->total - (long long)s->wmod[k] * value, m);
            continue;
        }
        int value = pick(mask, g);
        untried[k] = mask ^ (UINT64_C(1) << value);
        s->lab[s->ord[k]] = value;
        s->used_values |= UINT64_C(1) << value;
        int p = s->par[k];
        if (p >= 0)
            s->used_sums |= UINT64_C(1) << floor_mod((long long)value + s->lab[p], m);
        if (s->weighted)
            s->total = (s->total + s->wmod[k] * value) % m;
        k++;
        if (k == s->size) {
            found = 1;
            break;
        }
        untried[k] = candidates(s, k);
    }
    s->backtracks = spent;
    return found;
}

/* ------------------------------------------------------------------ */
/* The leaf search                                                     */
/* ------------------------------------------------------------------ */

struct leaf_csp {
    int k;                         /* the leaves, 2..63 */
    int m;
    int leaf[MAX_NODES];           /* the node of each leaf, ascending */
    int nb[MAX_NODES];             /* the one neighbour of each leaf */
    int plm[MAX_NODES];            /* the neighbour's label, mod m */
    uint64_t sibs[MAX_NODES];      /* the other leaves with the same neighbour */
    uint64_t levels[MAX_NODES][MAX_NODES];   /* the domain list of each level;
                                                levels[0]: the CSP's domains */
    int chosen[MAX_NODES];         /* the leaf of each level */
    int values[MAX_NODES];         /* values[d] is the value of chosen[d] */
};

/* {leaf node of chosen[d]: values[d] for d < depth}, in search order. */
static PyObject *
assignment(const struct leaf_csp *c, int depth)
{
    PyObject *out = PyDict_New();
    if (out == NULL)
        return NULL;
    for (int d = 0; d < depth; d++) {
        PyObject *leaf = PyLong_FromLong(c->leaf[c->chosen[d]]);
        PyObject *x = PyLong_FromLong(c->values[d]);
        int failed = leaf == NULL || x == NULL || PyDict_SetItem(out, leaf, x) < 0;
        Py_XDECREF(leaf);
        Py_XDECREF(x);
        if (failed) {
            Py_DECREF(out);
            return NULL;
        }
    }
    return out;
}

/* on_prune(leaf, value, dict(assigned)) */
static int
report_prune(PyObject *on_prune, int leaf, int value, PyObject *assigned)
{
    PyObject *copy = PyDict_Copy(assigned);
    if (copy == NULL)
        return -1;
    PyObject *res = PyObject_CallFunction(on_prune, "iiO", leaf, value, copy);
    Py_DECREF(copy);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* The search of the leaf CSP in c->levels[0], drawing from g: 1 when
 * every leaf has a value (chosen[d] and values[d] for d < k), 0 when the
 * CSP is refuted or the budget is spent, -1 with an exception set when
 * on_prune raised.  on_prune, when not NULL, hears of each
 * forward-checking removal, with each leaf named by its node. */
static int
leaf_run(struct leaf_csp *c, long long budget, struct mt *g, PyObject *on_prune)
{
    int k = c->k, m = c->m;
    const int *plm = c->plm, *leaf = c->leaf;
    int *chosen = c->chosen, *values = c->values;
    uint64_t *doms = c->levels[0];
    PyObject *assigned = NULL;
    int found = -1;
    for (int j = 0; j < k; j++)
        if (!doms[j])
            return 0;
    if (!hall_holds(doms, plm, k, m))
        return 0;
    int best = 0;
    for (int j = 1; j < k; j++)
        if (popcount(doms[j]) < popcount(doms[best]))
            best = j;
    chosen[0] = best;
    int depth = 1;   /* the levels in use; values holds depth - 1 entries */
    long long backtracks = 0;
    for (;;) {
        uint64_t *level = c->levels[depth - 1];
        int i = chosen[depth - 1];
        uint64_t untried = level[i];
        int value;
        if (!untried) {
            depth--;
            if (depth == 0 || backtracks >= budget) {
                found = 0;
                goto done;
            }
            backtracks++;
            /* the subtree of the enclosing level's value is exhausted */
            i = chosen[depth - 1];
            value = values[depth - 1];
        }
        else {
            value = pick(untried, g);
            uint64_t vbit = UINT64_C(1) << value;
            level[i] = untried ^ vbit;
            values[depth - 1] = value;
            if (depth == k) {
                found = 1;
                goto done;
            }
            int s = (value + plm[i]) % m;
            uint64_t *next = c->levels[depth];
            memcpy(next, level, (size_t)k * sizeof(uint64_t));
            next[i] = 0;
            if (on_prune != NULL) {
                Py_XDECREF(assigned);
                assigned = assignment(c, depth);
                if (assigned == NULL)
                    goto done;
            }
            int best_size = m + 2;
            int wiped = 0;
            best = -1;
            for (int j = 0; j < k; j++) {
                uint64_t dom = next[j];
                if (!dom)
                    continue;
                /* the values whose edge sum with leaf j's parent is s:
                 * (s - pl) % m, and m when that is 0 */
                int r = s - plm[j];
                if (r < 0)
                    r += m;
                uint64_t kill = vbit | UINT64_C(1) << r;
                if (r == 0)
                    kill |= UINT64_C(1) << m;
                uint64_t kept = dom & ~kill;
                if (on_prune != NULL && kept != dom) {
                    uint64_t removed = dom ^ kept;
                    if (removed & vbit) {
                        if (report_prune(on_prune, leaf[j], value, assigned) < 0)
                            goto done;
                        removed ^= vbit;
                    }
                    for (; removed; removed &= removed - 1)
                        if (report_prune(on_prune, leaf[j], lowest_bit(removed),
                                         assigned) < 0)
                            goto done;
                }
                if (!kept) {
                    wiped = 1;
                    break;
                }
                next[j] = kept;
                if (best_size > 1) {   /* no surviving domain is smaller than 1 */
                    int size = popcount(kept);
                    if (size < best_size) {
                        best = j;
                        best_size = size;
                    }
                }
            }
            /* below the root, Hall is checked once the search has
             * backtracked: a search that has not yet failed seldom
             * repays the matching */
            if (!wiped && (!backtracks || hall_holds(next, plm, k, m))) {
                if (best < 0) {
                    PyErr_SetString(PyExc_SystemError,
                                    "leaf search found no free leaf below a partial assignment");
                    goto done;
                }
                chosen[depth++] = best;
                continue;
            }
        }
        /* value is refuted for leaf i under this level's assignment, and
         * so for each free sibling of i (an assigned one's entry stays 0) */
        uint64_t keep = ~(UINT64_C(1) << value);
        level = c->levels[depth - 1];
        for (uint64_t sib = c->sibs[i]; sib; sib &= sib - 1)
            level[lowest_bit(sib)] &= keep;
    }

done:
    Py_XDECREF(assigned);
    return found;
}

/* ------------------------------------------------------------------ */
/* The tree's shape and the leaf CSP                                   */
/* ------------------------------------------------------------------ */

/* The two stages' shape of the tree of n >= 3 nodes with these preorder
 * parents, as tests/search_reference.py takes it from the tree.  Into s,
 * set up for stage 1 with every label -1: the internal nodes ascending,
 * each with its parent when that is internal (a parent precedes its
 * children, so it is the node's only earlier internal neighbour) and its
 * weight deg - 1, which is below m.  Then the leaves ascending: each
 * one's node and one neighbour (node 1 for a root that is a leaf), and
 * the other leaf positions next to that neighbour.  Returns the leaf
 * count. */
static int
take_shape(const long long *parents, int n, struct dfs *s, int *leaf, int *leaf_nb,
           uint64_t *sibs)
{
    int deg[MAX_NODES] = {0};
    uint64_t leaves_at[MAX_NODES] = {0};   /* the leaf positions next to each node */
    int size = 0, k = 0;
    for (int v = 1; v < n; v++) {
        deg[v]++;
        deg[parents[v]]++;
    }
    for (int v = 0; v < n; v++) {
        s->lab[v] = -1;
        if (deg[v] > 1) {
            int p = (int)parents[v];
            s->ord[size] = v;
            s->par[size] = p >= 0 && deg[p] > 1 ? p : -1;
            s->wmod[size] = deg[v] - 1;
            size++;
        }
        else {
            leaf[k] = v;
            leaf_nb[k] = v == 0 ? 1 : (int)parents[v];
            leaves_at[leaf_nb[k]] |= UINT64_C(1) << k;
            k++;
        }
    }
    for (int j = 0; j < k; j++)
        sibs[j] = leaves_at[leaf_nb[j]] & ~(UINT64_C(1) << j);
    dfs_setup(s, n, n, size, 1);
    return k;
}

/* The leaf CSP that stage 1's labels in s leave, into c->levels[0]: a
 * leaf may take an unused value whose edge sum with its neighbour's label
 * is unused.  The leaves next to one node share one domain. */
static void
leaf_domains(const struct dfs *s, struct leaf_csp *c)
{
    int m = c->m;
    uint64_t free_ = s->full & ~s->used_values;
    uint64_t open = s->low & ~s->used_sums;
    uint64_t dom_at[MAX_NODES];    /* the domain of the leaves next to a node */
    uint64_t filled = 0;           /* the nodes whose dom_at is set */
    for (int j = 0; j < c->k; j++) {
        int nb = c->nb[j];
        if (!(filled >> nb & 1)) {
            filled |= UINT64_C(1) << nb;
            dom_at[nb] = free_ & open_values(open, s->lab[nb], m);
        }
        c->levels[0][j] = dom_at[nb];
        c->plm[j] = s->lab[nb] % m;
    }
}

/* ------------------------------------------------------------------ */
/* stage1, stage2 and solve_twostage                                   */
/* ------------------------------------------------------------------ */

PyDoc_STRVAR(stage1_doc,
"stage1(parents, budget, seed)\n"
"--\n\n"
"One stage-1 search of treeharmony.twostage.stage1_internal on the tree of\n"
"3 to 64 nodes with these preorder parents, drawing what random.Random(seed)\n"
"would draw for an int seed, 0 <= seed < 2**64.  Returns (labels or None,\n"
"backtracks); the labels of nodes 0..n-1 are in 0..n-1, not reduced, and\n"
"-1 on each leaf.");

static PyObject *
k_stage1(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (check_arity("stage1", nargs, 3) < 0)
        return NULL;
    uint64_t seed;
    long long budget;
    if (read_seed(args[2], &seed) < 0 || read_limit(args[1], &budget) < 0)
        return NULL;
    long long parents[MAX_NODES];
    int n = read_parents(args[0], "stage1", 3, parents);
    if (n < 0)
        return NULL;

    struct dfs s;
    int leaf[MAX_NODES], leaf_nb[MAX_NODES];
    uint64_t sibs[MAX_NODES];
    take_shape(parents, n, &s, leaf, leaf_nb, sibs);
    struct mt g;
    mt_seed(&g, seed);
    int found = dfs_run(&s, budget, &g);
    PyObject *labels = found ? labels_tuple(s.lab, n, 0) : Py_NewRef(Py_None);
    if (labels == NULL)
        return NULL;
    return Py_BuildValue("(NL)", labels, s.backtracks);
}

PyDoc_STRVAR(stage2_doc,
"stage2(parents, labels, budget, seed, on_prune)\n"
"--\n\n"
"The leaf CSP and leaf search of treeharmony.twostage.solve_leaf_csp on\n"
"the tree of 3 to 64 nodes with these preorder parents, after stage 1's\n"
"labels of nodes 0..n-1 as stage1 returns them: distinct values of\n"
"0..n-1 on the internal nodes and -1 on each leaf.  Draws what\n"
"random.Random(seed) would draw for an int seed, 0 <= seed < 2**64.\n"
"Returns a dict from leaf to value, or None.  on_prune, unless None, is\n"
"called as on_prune(leaf, value, assigned) on each forward-checking\n"
"removal.");

static PyObject *
k_stage2(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (check_arity("stage2", nargs, 5) < 0)
        return NULL;
    uint64_t seed;
    long long budget;
    if (read_seed(args[3], &seed) < 0 || read_limit(args[2], &budget) < 0)
        return NULL;
    long long parents[MAX_NODES], labels[MAX_NODES];
    int n = read_parents(args[0], "stage2", 3, parents);
    if (n < 0)
        return NULL;
    Py_ssize_t size = READ_INT_SEQ(args[1], "labels", labels);
    if (size < 0)
        return NULL;

    struct dfs s;
    struct leaf_csp c;
    int k = c.k = take_shape(parents, n, &s, c.leaf, c.nb, c.sibs);
    int m = c.m = n - 1;
    /* stage 1's labels, used values and internal edge sums, as dfs_run
     * leaves them for leaf_domains */
    int ok = size == n;
    s.used_values = s.used_sums = 0;
    for (int i = 0; ok && i < s.size; i++) {
        int v = s.ord[i], p = s.par[i];
        long long f = labels[v];
        ok = f >= 0 && f < n && !(s.used_values >> f & 1);
        if (ok) {
            s.lab[v] = (int)f;
            s.used_values |= UINT64_C(1) << f;
            if (p >= 0)   /* an earlier internal node, so labelled already */
                s.used_sums |= UINT64_C(1) << (f + s.lab[p]) % m;
        }
    }
    for (int j = 0; ok && j < k; j++)
        ok = labels[c.leaf[j]] == -1;
    if (!ok) {
        PyErr_SetString(PyExc_ValueError, "labels must hold one label per node: "
                        "distinct values of 0..n-1 on the internal nodes, -1 on each leaf");
        return NULL;
    }
    leaf_domains(&s, &c);
    struct mt g;
    mt_seed(&g, seed);
    int found = leaf_run(&c, budget, &g, args[4] == Py_None ? NULL : args[4]);
    if (found < 0)
        return NULL;
    return found ? assignment(&c, k) : Py_NewRef(Py_None);
}

PyDoc_STRVAR(solve_twostage_doc,
"solve_twostage(parents, runs, stage1_budget, stage2_budget, seed)\n"
"--\n\n"
"The retry loop of treeharmony.twostage.solve_twostage on the tree of 3 to\n"
"64 nodes with these preorder parents (-1, then each node's earlier\n"
"parent), drawing what random.Random(seed) would draw for an int seed,\n"
"0 <= seed < 2**64.  Returns (labels or None, runs, stage-1 failures,\n"
"stage-2 failures); the labels are reduced mod n-1.");

static PyObject *
k_solve_twostage(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (check_arity("solve_twostage", nargs, 5) < 0)
        return NULL;
    uint64_t seed;
    long long runs, budget1, budget2;
    if (read_seed(args[4], &seed) < 0 || read_limit(args[1], &runs) < 0
        || read_limit(args[2], &budget1) < 0 || read_limit(args[3], &budget2) < 0)
        return NULL;
    long long parents[MAX_NODES];
    int n = read_parents(args[0], "solve_twostage", 3, parents);
    if (n < 0)
        return NULL;

    struct dfs s;
    struct leaf_csp c;
    int k = c.k = take_shape(parents, n, &s, c.leaf, c.nb, c.sibs);
    c.m = n - 1;
    struct mt g;
    mt_seed(&g, seed);

    long long run = 0, stage1_failures = 0, stage2_failures = 0;
    int found = 0;
    while (!found && run < runs) {
        run++;
        found = dfs_run(&s, budget1, &g);
        if (!found) {
            stage1_failures++;
            continue;
        }
        leaf_domains(&s, &c);
        found = leaf_run(&c, budget2, &g, NULL);
        if (found < 0)
            return NULL;
        if (!found)
            stage2_failures++;
    }

    if (found)
        for (int d = 0; d < k; d++)
            s.lab[c.leaf[c.chosen[d]]] = c.values[d];
    /* reducing the permutation mod n-1 merges 0 and n-1 on 0 */
    PyObject *labels = found ? labels_tuple(s.lab, n, 1) : Py_NewRef(Py_None);
    if (labels == NULL)
        return NULL;
    return Py_BuildValue("(NLLL)", labels, run, stage1_failures, stage2_failures);
}

/* ------------------------------------------------------------------ */
/* solve_backtracking                                                  */
/* ------------------------------------------------------------------ */

PyDoc_STRVAR(solve_backtracking_doc,
"solve_backtracking(parents, restarts, limit, seed)\n"
"--\n\n"
"The restart loop of treeharmony.backtracking.solve_backtracking on the\n"
"tree of 2 to 64 nodes with these preorder parents, drawing what\n"
"random.Random(seed) would draw for an int seed, 0 <= seed < 2**64.\n"
"Returns (labels or None, backtracks, restarts used).");

static PyObject *
k_solve_backtracking(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (check_arity("solve_backtracking", nargs, 4) < 0)
        return NULL;
    uint64_t seed;
    long long restarts, limit;
    if (read_seed(args[3], &seed) < 0 || read_limit(args[1], &restarts) < 0
        || read_limit(args[2], &limit) < 0)
        return NULL;
    long long parents[MAX_NODES];
    int n = read_parents(args[0], "solve_backtracking", 2, parents);
    if (n < 0)
        return NULL;

    /* nodes 1..n-1 in turn, each under its parent, with the values 0..n-2 */
    struct dfs s;
    for (int v = 1; v < n; v++) {
        s.ord[v - 1] = v;
        s.par[v - 1] = (int)parents[v];
    }
    dfs_setup(&s, n, n - 1, n - 1, 0);
    struct mt g;
    mt_seed(&g, seed);

    long long restart = 0, backtracks = 0;
    int found = 0;
    while (!found && restart < restarts) {
        restart++;
        /* the root label, never revisited: exhausting node 1's candidates
         * ends the run, as other roots are shifts of this one */
        s.lab[0] = pick(s.low, &g);
        found = dfs_run(&s, limit, &g);
        backtracks += s.backtracks;
    }

    PyObject *labels = found ? labels_tuple(s.lab, n, 1) : Py_NewRef(Py_None);
    if (labels == NULL)
        return NULL;
    return Py_BuildValue("(NLL)", labels, backtracks, restart);
}

static PyMethodDef kernel_methods[] = {
    {"stage1", (PyCFunction)(void (*)(void))k_stage1, METH_FASTCALL, stage1_doc},
    {"stage2", (PyCFunction)(void (*)(void))k_stage2, METH_FASTCALL, stage2_doc},
    {"solve_twostage", (PyCFunction)(void (*)(void))k_solve_twostage, METH_FASTCALL,
     solve_twostage_doc},
    {"solve_backtracking", (PyCFunction)(void (*)(void))k_solve_backtracking, METH_FASTCALL,
     solve_backtracking_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "treeharmony._kernel",
    .m_doc = "Compiled two-stage and backtracking solvers of treeharmony, and "
             "their two stages on a tree: stage 1's search, and the leaf CSP "
             "with its search.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    mt_base[0] = 19650218U;
    for (uint32_t i = 1; i < MT_N; i++)
        mt_base[i] = 1812433253U * (mt_base[i - 1] ^ (mt_base[i - 1] >> 30)) + i;
    return PyModule_Create(&kernel_module);
}
