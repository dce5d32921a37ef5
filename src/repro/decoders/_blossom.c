/*
 * Exact maximum-weight matching for the MWPM decoder's large patterns.
 *
 * A line-for-line port of networkx's ``max_weight_matching`` (the
 * ``maxcardinality=True`` path; Galil 1986, after van Rantwijk's
 * mwmatching.py) run on exactly the graph ``matching.py::_nx_match``
 * builds.  Blossom's tie-breaks depend on every iteration order and on
 * the float arithmetic, so both are reproduced here:
 *
 *   - vertices: event i is e_i = 2i, its boundary copy b_i = 2i + 1;
 *     ``gnodes`` keeps networkx's node insertion order (add_edge adds
 *     a missing endpoint, so an unreachable e_j lands late);
 *   - adjacency in edge insertion order: adj[e_i] = e_j (j < i, finite
 *     distance), b_i, e_j (j > i, finite); adj[b_i] = b_j (j < i), e_i,
 *     b_j (j > i);
 *   - dict order: ``blossomparent`` iterates vertices then live
 *     blossoms in creation order, ``blossomdual`` live blossoms in
 *     creation order, ``bestedgeto`` keys in first-insertion order;
 *   - the queue is LIFO and leaves() walks its stack in the same order;
 *   - the result orientation of a matched pair follows ``mate``'s key
 *     insertion order (``matching_dict_to_set``), which decides which
 *     row of the (not necessarily symmetric) parity table is read;
 *   - every float expression keeps Python's operation order; build
 *     with -ffp-contract=off and without -ffast-math.
 *
 * Weights are all <= 0 and floats, so networkx takes ``allinteger``
 * false; ``maxweight`` is still computed the same way for generality.
 * Python's negative list indices map to wrap().
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define NONE (-1)

typedef struct {
    int n;              /* vertices */
    int nid;            /* ids: vertices [0, n), blossoms [n, 2n) */
    double *wt;         /* n * n edge weights */
    int *adj, *deg;     /* n * n neighbour lists, insertion order */
    int *gnodes;        /* vertices in node insertion order */
    int *mate;          /* NONE: single */
    int64_t *mate_seq;  /* first insertion time of mate[v] (dict order) */
    int64_t clock;
    int *label;         /* 0: None; 1 S, 2 T, 5 breadcrumb */
    int *ledge;         /* 2 * nid: labeledge, ledge[2b] NONE: None */
    int *bedge;         /* 2 * nid: bestedge */
    int *inbl;          /* n */
    int *bparent;       /* nid */
    int *bbase;         /* nid */
    double *dual;       /* n: dualvar */
    double *bdual;      /* nid: blossomdual */
    unsigned char *allow; /* n * n */
    int *queue, qlen;
    /* blossoms, indexed by id - n */
    int *childs, *nchilds;  /* n per blossom */
    int *edges;             /* 2n per blossom: (v, w) pairs */
    int *mybest, *nmybest;  /* 2n per blossom; nmybest NONE: None */
    int *order, nlive;      /* live blossoms, creation order */
    int *freeids, nfree;
    unsigned char *alive;
    /* scratch */
    int *stack, *leafbuf, *path, *snap;
    int *bto, *btokeys;     /* bestedgeto: bto[id] index or NONE */
    int *btoedge;
} M;

#define CH(m, b) ((m)->childs + (size_t)((b) - (m)->n) * (m)->n)
#define NCH(m, b) ((m)->nchilds[(b) - (m)->n])
#define ED(m, b) ((m)->edges + (size_t)((b) - (m)->n) * 2 * (m)->n)
#define MB(m, b) ((m)->mybest + (size_t)((b) - (m)->n) * 2 * (m)->n)
#define NMB(m, b) ((m)->nmybest[(b) - (m)->n])

static inline int wrap(int j, int len) { return j < 0 ? j + len : j; }

static inline double slack(const M *m, int v, int w)
{
    return m->dual[v] + m->dual[w] - 2.0 * m->wt[(size_t)v * m->n + w];
}

/* Leaves of blossom b in leaves() order; returns the count. */
static int leaves(M *m, int b, int *out)
{
    int sp = 0, cnt = 0, i;
    for (i = 0; i < NCH(m, b); i++)
        m->stack[sp++] = CH(m, b)[i];
    while (sp) {
        int t = m->stack[--sp];
        if (t >= m->n) {
            for (i = 0; i < NCH(m, t); i++)
                m->stack[sp++] = CH(m, t)[i];
        } else {
            out[cnt++] = t;
        }
    }
    return cnt;
}

static void set_mate(M *m, int v, int w)
{
    if (m->mate[v] == NONE)
        m->mate_seq[v] = m->clock++;
    m->mate[v] = w;
}

static void assign_label(M *m, int w, int t, int v)
{
    int b = m->inbl[w];
    m->label[w] = m->label[b] = t;
    if (v != NONE) {
        m->ledge[2 * w] = m->ledge[2 * b] = v;
        m->ledge[2 * w + 1] = m->ledge[2 * b + 1] = w;
    } else {
        m->ledge[2 * w] = m->ledge[2 * b] = NONE;
    }
    m->bedge[2 * w] = m->bedge[2 * b] = NONE;
    if (t == 1) {
        if (b >= m->n) {
            int cnt = leaves(m, b, m->queue + m->qlen);
            m->qlen += cnt;
        } else {
            m->queue[m->qlen++] = b;
        }
    } else if (t == 2) {
        int base = m->bbase[b];
        assign_label(m, m->mate[base], 1, base);
    }
}

static int scan_blossom(M *m, int v, int w)
{
    int np = 0, base = NONE, i;
    while (v != NONE) {
        int b = m->inbl[v];
        if (m->label[b] & 4) {
            base = m->bbase[b];
            break;
        }
        m->path[np++] = b;
        m->label[b] = 5;
        if (m->ledge[2 * b] == NONE) {
            v = NONE;
        } else {
            v = m->ledge[2 * b];
            b = m->inbl[v];
            v = m->ledge[2 * b];
        }
        if (w != NONE) {
            int t = v;
            v = w;
            w = t;
        }
    }
    for (i = 0; i < np; i++)
        m->label[m->path[i]] = 1;
    return base;
}

static void reverse(int *a, int len, int width)
{
    int i, j, c;
    for (i = 0, j = len - 1; i < j; i++, j--)
        for (c = 0; c < width; c++) {
            int t = a[i * width + c];
            a[i * width + c] = a[j * width + c];
            a[j * width + c] = t;
        }
}

static void bto_offer(M *m, int b, int v, int w, int *nkeys)
{
    int i = v, j = w, bj;
    if (m->inbl[j] == b) {
        i = w;
        j = v;
    }
    bj = m->inbl[j];
    if (bj != b && m->label[bj] == 1) {
        int idx = m->bto[bj];
        if (idx == NONE) {
            idx = m->bto[bj] = (*nkeys)++;
            m->btokeys[idx] = bj;
        } else if (!(slack(m, i, j) < slack(m, m->btoedge[2 * idx],
                                              m->btoedge[2 * idx + 1]))) {
            return;
        }
        m->btoedge[2 * idx] = v;
        m->btoedge[2 * idx + 1] = w;
    }
}

static void add_blossom(M *m, int base, int v, int w)
{
    const int n = m->n;
    int bb = m->inbl[base], bv = m->inbl[v], bw = m->inbl[w];
    int b = m->freeids[--m->nfree];
    int *ch = CH(m, b), *ed = ED(m, b);
    int nc = 0, ne = 0, cnt, i, c, nkeys = 0, best = NONE;
    double bestslack = 0.0;

    m->alive[b] = 1;
    m->order[m->nlive++] = b;
    m->label[b] = 0;
    m->ledge[2 * b] = m->bedge[2 * b] = NONE;
    m->bbase[b] = base;
    m->bparent[b] = NONE;
    m->bparent[bb] = b;
    ed[2 * ne] = v;
    ed[2 * ne + 1] = w;
    ne++;
    while (bv != bb) {
        m->bparent[bv] = b;
        ch[nc++] = bv;
        ed[2 * ne] = m->ledge[2 * bv];
        ed[2 * ne + 1] = m->ledge[2 * bv + 1];
        ne++;
        v = m->ledge[2 * bv];
        bv = m->inbl[v];
    }
    ch[nc++] = bb;
    reverse(ch, nc, 1);
    reverse(ed, ne, 2);
    while (bw != bb) {
        m->bparent[bw] = b;
        ch[nc++] = bw;
        ed[2 * ne] = m->ledge[2 * bw + 1];
        ed[2 * ne + 1] = m->ledge[2 * bw];
        ne++;
        w = m->ledge[2 * bw];
        bw = m->inbl[w];
    }
    NCH(m, b) = nc;
    m->label[b] = 1;
    m->ledge[2 * b] = m->ledge[2 * bb];
    m->ledge[2 * b + 1] = m->ledge[2 * bb + 1];
    m->bdual[b] = 0.0;
    cnt = leaves(m, b, m->leafbuf);
    for (i = 0; i < cnt; i++) {
        int x = m->leafbuf[i];
        if (m->label[m->inbl[x]] == 2)
            m->queue[m->qlen++] = x;
        m->inbl[x] = b;
    }
    /* b.mybestedges from the sub-blossoms' least-slack edges. */
    for (c = 0; c < nc; c++) {
        int s = ch[c];
        if (s >= n) {
            if (NMB(m, s) != NONE) {
                int k, len = NMB(m, s);
                const int *lst = MB(m, s);
                NMB(m, s) = NONE;
                for (k = 0; k < len; k++)
                    bto_offer(m, b, lst[2 * k], lst[2 * k + 1], &nkeys);
            } else {
                int k, d, len = leaves(m, s, m->leafbuf);
                for (k = 0; k < len; k++) {
                    int x = m->leafbuf[k];
                    for (d = 0; d < m->deg[x]; d++)
                        bto_offer(m, b, x, m->adj[(size_t)x * n + d], &nkeys);
                }
            }
        } else {
            int d;
            for (d = 0; d < m->deg[s]; d++)
                bto_offer(m, b, s, m->adj[(size_t)s * n + d], &nkeys);
        }
        m->bedge[2 * s] = NONE;
    }
    for (i = 0; i < nkeys; i++) {
        int ev = m->btoedge[2 * i], ew = m->btoedge[2 * i + 1];
        double ks;
        MB(m, b)[2 * i] = ev;
        MB(m, b)[2 * i + 1] = ew;
        m->bto[m->btokeys[i]] = NONE;
        ks = slack(m, ev, ew);
        if (best == NONE || ks < bestslack) {
            best = i;
            bestslack = ks;
        }
    }
    NMB(m, b) = nkeys;
    m->bedge[2 * b] = NONE;
    if (best != NONE) {
        m->bedge[2 * b] = MB(m, b)[2 * best];
        m->bedge[2 * b + 1] = MB(m, b)[2 * best + 1];
    }
}

static void expand_blossom(M *m, int b, int endstage)
{
    const int n = m->n;
    int i, len = NCH(m, b);
    int *ch = CH(m, b), *ed = ED(m, b);
    for (i = 0; i < len; i++) {
        int s = ch[i];
        m->bparent[s] = NONE;
        if (s >= n) {
            if (endstage && m->bdual[s] == 0.0) {
                expand_blossom(m, s, endstage);
            } else {
                int k, cnt = leaves(m, s, m->leafbuf);
                for (k = 0; k < cnt; k++)
                    m->inbl[m->leafbuf[k]] = s;
            }
        } else {
            m->inbl[s] = s;
        }
    }
    if (!endstage && m->label[b] == 2) {
        int entrychild = m->inbl[m->ledge[2 * b + 1]];
        int j = 0, jstep, v, w, bw;
        while (ch[j] != entrychild)
            j++;
        if (j & 1) {
            j -= len;
            jstep = 1;
        } else {
            jstep = -1;
        }
        v = m->ledge[2 * b];
        w = m->ledge[2 * b + 1];
        while (j != 0) {
            int p, q;
            if (jstep == 1) {
                p = ed[2 * wrap(j, len)];
                q = ed[2 * wrap(j, len) + 1];
            } else {
                q = ed[2 * wrap(j - 1, len)];
                p = ed[2 * wrap(j - 1, len) + 1];
            }
            m->label[w] = 0;
            m->label[q] = 0;
            assign_label(m, w, 2, v);
            m->allow[(size_t)p * n + q] = m->allow[(size_t)q * n + p] = 1;
            j += jstep;
            if (jstep == 1) {
                v = ed[2 * wrap(j, len)];
                w = ed[2 * wrap(j, len) + 1];
            } else {
                w = ed[2 * wrap(j - 1, len)];
                v = ed[2 * wrap(j - 1, len) + 1];
            }
            m->allow[(size_t)v * n + w] = m->allow[(size_t)w * n + v] = 1;
            j += jstep;
        }
        bw = ch[wrap(j, len)];
        m->label[w] = m->label[bw] = 2;
        m->ledge[2 * w] = m->ledge[2 * bw] = v;
        m->ledge[2 * w + 1] = m->ledge[2 * bw + 1] = w;
        m->bedge[2 * bw] = NONE;
        j += jstep;
        while (ch[wrap(j, len)] != entrychild) {
            int bv = ch[wrap(j, len)], x;
            if (m->label[bv] == 1) {
                j += jstep;
                continue;
            }
            if (bv >= n) {
                int k, cnt = leaves(m, bv, m->leafbuf);
                x = NONE;
                for (k = 0; k < cnt; k++) {
                    x = m->leafbuf[k];
                    if (m->label[x])
                        break;
                }
            } else {
                x = bv;
            }
            if (m->label[x]) {
                m->label[x] = 0;
                m->label[m->mate[m->bbase[bv]]] = 0;
                assign_label(m, x, 2, m->ledge[2 * x]);
            }
            j += jstep;
        }
    }
    /* Remove the expanded blossom entirely. */
    m->label[b] = 0;
    m->ledge[2 * b] = NONE;
    m->bedge[2 * b] = NONE;
    m->alive[b] = 0;
    for (i = 0; i < m->nlive; i++)
        if (m->order[i] == b)
            break;
    memmove(m->order + i, m->order + i + 1,
            (size_t)(m->nlive - i - 1) * sizeof(int));
    m->nlive--;
    m->freeids[m->nfree++] = b;
}

static void augment_blossom(M *m, int b, int v)
{
    const int n = m->n;
    int t = v, i, j, jstep, len = NCH(m, b);
    int *ch = CH(m, b), *ed = ED(m, b);
    while (m->bparent[t] != b)
        t = m->bparent[t];
    if (t >= n)
        augment_blossom(m, t, v);
    i = 0;
    while (ch[i] != t)
        i++;
    j = i;
    if (i & 1) {
        j -= len;
        jstep = 1;
    } else {
        jstep = -1;
    }
    while (j != 0) {
        int w, x;
        j += jstep;
        t = ch[wrap(j, len)];
        if (jstep == 1) {
            w = ed[2 * wrap(j, len)];
            x = ed[2 * wrap(j, len) + 1];
        } else {
            x = ed[2 * wrap(j - 1, len)];
            w = ed[2 * wrap(j - 1, len) + 1];
        }
        if (t >= n)
            augment_blossom(m, t, w);
        j += jstep;
        t = ch[wrap(j, len)];
        if (t >= n)
            augment_blossom(m, t, x);
        set_mate(m, w, x);
        set_mate(m, x, w);
    }
    /* Rotate the sub-blossoms to put the new base at the front. */
    if (i > 0) {
        int k;
        for (k = 0; k < i; k++) {
            m->snap[k] = ch[k];
            m->snap[len + 2 * k] = ed[2 * k];
            m->snap[len + 2 * k + 1] = ed[2 * k + 1];
        }
        memmove(ch, ch + i, (size_t)(len - i) * sizeof(int));
        memmove(ed, ed + 2 * i, (size_t)(len - i) * 2 * sizeof(int));
        for (k = 0; k < i; k++) {
            ch[len - i + k] = m->snap[k];
            ed[2 * (len - i + k)] = m->snap[len + 2 * k];
            ed[2 * (len - i + k) + 1] = m->snap[len + 2 * k + 1];
        }
    }
    m->bbase[b] = m->bbase[ch[0]];
}

static void augment_matching(M *m, int v, int w)
{
    int pass;
    for (pass = 0; pass < 2; pass++) {
        int s = pass ? w : v, j = pass ? v : w;
        for (;;) {
            int bs = m->inbl[s], t, bt;
            if (bs >= m->n)
                augment_blossom(m, bs, s);
            set_mate(m, s, j);
            if (m->ledge[2 * bs] == NONE)
                break;
            t = m->ledge[2 * bs];
            bt = m->inbl[t];
            s = m->ledge[2 * bt];
            j = m->ledge[2 * bt + 1];
            if (bt >= m->n)
                augment_blossom(m, bt, j);
            set_mate(m, j, s);
        }
    }
}

static void solve(M *m)
{
    const int n = m->n, nid = m->nid;
    int i;
    for (;;) {
        int augmented = 0;
        for (i = 0; i < nid; i++) {
            m->label[i] = 0;
            m->ledge[2 * i] = NONE;
            m->bedge[2 * i] = NONE;
        }
        for (i = 0; i < m->nlive; i++)
            NMB(m, m->order[i]) = NONE;
        memset(m->allow, 0, (size_t)n * n);
        m->qlen = 0;
        for (i = 0; i < n; i++) {
            int v = m->gnodes[i];
            if (m->mate[v] == NONE && m->label[m->inbl[v]] == 0)
                assign_label(m, v, 1, NONE);
        }
        for (;;) {
            int deltatype = -1, dv = NONE, dw = NONE, dblossom = NONE;
            double delta = 0.0;
            while (m->qlen && !augmented) {
                int v = m->queue[--m->qlen], d;
                for (d = 0; d < m->deg[v]; d++) {
                    int w = m->adj[(size_t)v * n + d];
                    int bv = m->inbl[v], bw = m->inbl[w];
                    double kslack = 0.0;
                    if (bv == bw)
                        continue;
                    if (!m->allow[(size_t)v * n + w]) {
                        kslack = slack(m, v, w);
                        if (kslack <= 0)
                            m->allow[(size_t)v * n + w] =
                                m->allow[(size_t)w * n + v] = 1;
                    }
                    if (m->allow[(size_t)v * n + w]) {
                        if (m->label[bw] == 0) {
                            assign_label(m, w, 2, v);
                        } else if (m->label[bw] == 1) {
                            int base = scan_blossom(m, v, w);
                            if (base != NONE) {
                                add_blossom(m, base, v, w);
                            } else {
                                augment_matching(m, v, w);
                                augmented = 1;
                                break;
                            }
                        } else if (m->label[w] == 0) {
                            m->label[w] = 2;
                            m->ledge[2 * w] = v;
                            m->ledge[2 * w + 1] = w;
                        }
                    } else if (m->label[bw] == 1) {
                        if (m->bedge[2 * bv] == NONE ||
                            kslack < slack(m, m->bedge[2 * bv],
                                           m->bedge[2 * bv + 1])) {
                            m->bedge[2 * bv] = v;
                            m->bedge[2 * bv + 1] = w;
                        }
                    } else if (m->label[w] == 0) {
                        if (m->bedge[2 * w] == NONE ||
                            kslack < slack(m, m->bedge[2 * w],
                                           m->bedge[2 * w + 1])) {
                            m->bedge[2 * w] = v;
                            m->bedge[2 * w + 1] = w;
                        }
                    }
                }
            }
            if (augmented)
                break;

            /* delta2: least slack from an S-vertex to a free vertex. */
            for (i = 0; i < n; i++) {
                int v = m->gnodes[i];
                if (m->label[m->inbl[v]] == 0 && m->bedge[2 * v] != NONE) {
                    double d = slack(m, m->bedge[2 * v], m->bedge[2 * v + 1]);
                    if (deltatype == -1 || d < delta) {
                        delta = d;
                        deltatype = 2;
                        dv = m->bedge[2 * v];
                        dw = m->bedge[2 * v + 1];
                    }
                }
            }
            /* delta3: half the least slack between two S-blossoms. */
            for (i = 0; i < n + m->nlive; i++) {
                int b = i < n ? m->gnodes[i] : m->order[i - n];
                if (m->bparent[b] == NONE && m->label[b] == 1 &&
                    m->bedge[2 * b] != NONE) {
                    double d = slack(m, m->bedge[2 * b],
                                     m->bedge[2 * b + 1]) / 2.0;
                    if (deltatype == -1 || d < delta) {
                        delta = d;
                        deltatype = 3;
                        dv = m->bedge[2 * b];
                        dw = m->bedge[2 * b + 1];
                    }
                }
            }
            /* delta4: least z of a T-blossom. */
            for (i = 0; i < m->nlive; i++) {
                int b = m->order[i];
                if (m->bparent[b] == NONE && m->label[b] == 2 &&
                    (deltatype == -1 || m->bdual[b] < delta)) {
                    delta = m->bdual[b];
                    deltatype = 4;
                    dblossom = b;
                }
            }
            if (deltatype == -1) {
                /* Max-cardinality optimum reached. */
                double mn = m->dual[0];
                for (i = 1; i < n; i++)
                    if (m->dual[i] < mn)
                        mn = m->dual[i];
                deltatype = 1;
                delta = mn > 0 ? mn : 0.0;
            }
            for (i = 0; i < n; i++) {
                int v = m->gnodes[i], l = m->label[m->inbl[v]];
                if (l == 1)
                    m->dual[v] -= delta;
                else if (l == 2)
                    m->dual[v] += delta;
            }
            for (i = 0; i < m->nlive; i++) {
                int b = m->order[i];
                if (m->bparent[b] == NONE) {
                    if (m->label[b] == 1)
                        m->bdual[b] += delta;
                    else if (m->label[b] == 2)
                        m->bdual[b] -= delta;
                }
            }
            if (deltatype == 1)
                break;
            if (deltatype == 2 || deltatype == 3) {
                m->allow[(size_t)dv * n + dw] = m->allow[(size_t)dw * n + dv] = 1;
                m->queue[m->qlen++] = dv;
            } else {
                expand_blossom(m, dblossom, 0);
            }
        }
        if (!augmented)
            break;
        /* End of a stage: expand every S-blossom with zero dual. */
        {
            int cnt = m->nlive;
            memcpy(m->snap, m->order, (size_t)cnt * sizeof(int));
            for (i = 0; i < cnt; i++) {
                int b = m->snap[i];
                if (!m->alive[b])
                    continue;
                if (m->bparent[b] == NONE && m->label[b] == 1 &&
                    m->bdual[b] == 0.0)
                    expand_blossom(m, b, 1);
            }
        }
    }
}

/*
 * Match the k events of one pattern.  ``dist``/``par`` are the graph's
 * row-major (num_nodes, num_nodes + 1) distance and parity tables with
 * row stride ``stride``; column ``bcol`` is the boundary.  ``bias`` is
 * the boundary penalty.  Returns the correction parity (0 or 1), or -1
 * when memory runs out.  When ``pairs`` is not NULL it receives the k
 * matched pairs as ``matching_dict_to_set`` orients them (vertex ids
 * e_i = 2i, b_i = 2i + 1).
 */
int repro_blossom_match(int k, const int64_t *events, const double *dist,
                        const uint8_t *par, int64_t stride, int64_t bcol,
                        double bias, int32_t *pairs)
{
    const int n = 2 * k, nid = 4 * k;
    M mm, *m = &mm;
    size_t nn = (size_t)n * n;
    char *mem, *p;
    size_t bytes;
    unsigned char *seen;
    int i, j, ng = 0, corr = 0, np = 0;
    double maxweight = 0.0;

    if (k <= 0)
        return 0;
    memset(m, 0, sizeof *m);
    m->n = n;
    m->nid = nid;
    bytes = nn * sizeof(double)                      /* wt */
          + nn * sizeof(int) * 2                     /* adj, childs */
          + nn * 2 * sizeof(int) * 2                 /* edges, mybest */
          + (size_t)n * sizeof(int64_t)              /* mate_seq */
          + (size_t)n * sizeof(double)               /* dual */
          + (size_t)nid * sizeof(double)             /* bdual */
          + (size_t)nid * sizeof(int) * 20           /* small arrays */
          + (size_t)n * sizeof(int) * 8
          + nn + (size_t)nid + (size_t)n;            /* allow, alive, seen */
    mem = calloc(1, bytes);
    if (!mem)
        return -1;
    p = mem;
#define TAKE(ptr, cnt, type) \
    do { (ptr) = (type *)p; p += (size_t)(cnt) * sizeof(type); } while (0)
    TAKE(m->wt, nn, double);
    TAKE(m->dual, n, double);
    TAKE(m->bdual, nid, double);
    TAKE(m->mate_seq, n, int64_t);
    TAKE(m->adj, nn, int);
    TAKE(m->childs, nn, int);
    TAKE(m->edges, 2 * nn, int);
    TAKE(m->mybest, 2 * nn, int);
    TAKE(m->deg, n, int);
    TAKE(m->gnodes, n, int);
    TAKE(m->mate, n, int);
    TAKE(m->inbl, n, int);
    TAKE(m->nchilds, n, int);
    TAKE(m->nmybest, n, int);
    TAKE(m->leafbuf, n, int);
    TAKE(m->label, nid, int);
    TAKE(m->ledge, 2 * nid, int);
    TAKE(m->bedge, 2 * nid, int);
    TAKE(m->bparent, nid, int);
    TAKE(m->bbase, nid, int);
    TAKE(m->queue, 2 * nid, int);
    TAKE(m->order, nid, int);
    TAKE(m->freeids, nid, int);
    TAKE(m->stack, nid, int);
    TAKE(m->path, nid, int);
    TAKE(m->snap, 3 * nid, int);
    TAKE(m->bto, nid, int);
    TAKE(m->btokeys, nid, int);
    TAKE(m->btoedge, 2 * nid, int);
    TAKE(m->allow, nn, unsigned char);
    TAKE(m->alive, nid, unsigned char);
    TAKE(seen, n, unsigned char);
#undef TAKE

    /* The graph, in _nx_match's insertion order. */
    for (i = 0; i < k; i++) {
        const double *row = dist + events[i] * stride;
        int e = 2 * i, b = 2 * i + 1;
        if (!seen[e]) { seen[e] = 1; m->gnodes[ng++] = e; }
        if (!seen[b]) { seen[b] = 1; m->gnodes[ng++] = b; }
        m->wt[(size_t)e * n + b] = m->wt[(size_t)b * n + e] = -row[bcol] - bias;
        m->adj[(size_t)e * n + m->deg[e]++] = b;
        m->adj[(size_t)b * n + m->deg[b]++] = e;
        for (j = i + 1; j < k; j++) {
            double d = row[events[j]];
            int ej = 2 * j, bj = 2 * j + 1;
            if (d < INFINITY) {
                if (!seen[ej]) { seen[ej] = 1; m->gnodes[ng++] = ej; }
                m->wt[(size_t)e * n + ej] = m->wt[(size_t)ej * n + e] = -d;
                m->adj[(size_t)e * n + m->deg[e]++] = ej;
                m->adj[(size_t)ej * n + m->deg[ej]++] = e;
            }
            if (!seen[bj]) { seen[bj] = 1; m->gnodes[ng++] = bj; }
            m->wt[(size_t)b * n + bj] = m->wt[(size_t)bj * n + b] = 0.0;
            m->adj[(size_t)b * n + m->deg[b]++] = bj;
            m->adj[(size_t)bj * n + m->deg[bj]++] = b;
        }
    }
    for (i = 0; i < n; i++)
        for (j = 0; j < m->deg[i]; j++) {
            double w = m->wt[(size_t)i * n + m->adj[(size_t)i * n + j]];
            if (w > maxweight)
                maxweight = w;
        }
    for (i = 0; i < n; i++) {
        m->mate[i] = NONE;
        m->inbl[i] = i;
        m->bbase[i] = i;
        m->dual[i] = maxweight;
    }
    for (i = 0; i < nid; i++)
        m->bparent[i] = NONE;
    for (i = 0; i < nid; i++)
        m->bto[i] = NONE;
    /* Free ids pop from the end; any order works, ids are opaque. */
    for (i = nid - 1; i >= n; i--)
        m->freeids[m->nfree++] = i;

    solve(m);

    /* matching_dict_to_set: each pair keyed by its first mate key. */
    for (i = 0; i < n; i++) {
        int w = m->mate[i], u, v;
        if (w == NONE || (m->mate_seq[w] < m->mate_seq[i]))
            continue;
        u = i;
        v = w;
        if (pairs) {
            pairs[2 * np] = u;
            pairs[2 * np + 1] = v;
        }
        np++;
        if ((u & 1) && (v & 1))
            continue;
        if (!(u & 1) && !(v & 1))
            corr ^= par[events[u >> 1] * stride + events[v >> 1]];
        else
            corr ^= par[events[(u & 1 ? v : u) >> 1] * stride + bcol];
    }
    free(mem);
    return corr;
}
