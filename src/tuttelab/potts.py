"""Potts and Tutte polynomials of the multigraph underlying a map.

The Potts polynomial P_G(q, nu) is the sum over q-colourings of the
vertices of nu^(number of monochromatic edges), evaluated here as a
polynomial in q and nu.  Three rules first take the multigraph apart:

    a loop e:             P_G = nu P_{G\\e},
    an isolated vertex x: P_G = q P_{G-x},
    a pendant edge e:     P_G = (q + nu - 1) P_{G/e},

applied until no vertex of degree 0 or 1 is left (Haggard, Pearce and
Royle, "Computing Tutte polynomials", ACM TOMS 37, 2010).  A tree thus
costs one pass over its edges.  What is left, the core, is taken on by
deletion-contraction,

    P_G = P_{G\\e} + (nu - 1) P_{G/e},

whose two minors are reduced by the rules again.  The recursion, the
interpolation route, the Tutte polynomial and P read from it are each
memoised on one key of the labelled multigraph, built by _graph_key
alone: (v, edges), with v the vertex count and edges the sorted edge
pairs, each low end first, flattened and stored as maps._compact stores
darts (bytes below 256 vertices, a tuple from 256 up).  No isomorphism
search is made.  What limits the size of a graph is the cost of
deletion-contraction on its core and the size of the result, which is
dense: the star with 255 leaves has no core, and its
P = q (q + nu - 1)^255 has 32,896 terms.

The Tutte polynomial T_G(mu, nu) is computed by its subset expansion and
tied to P by q = (mu - 1)(nu - 1):

    P_G(q, nu) = (mu - 1)^{c(G)} (nu - 1)^{v(G)} T_G(mu, nu).

potts_subset_oracle reads m.multigraph_edges() and is not memoised, so
one route to P never goes through the key.
"""

from __future__ import annotations

import itertools
import struct
from collections import Counter
from functools import lru_cache

from tuttelab.maps import (_BYTE_DARTS, RootedMap, _cycle_labels,
                           _standard_alpha)
from tuttelab.poly import MultiPoly, lagrange_interpolate

NU = MultiPoly.var("nu")
MU = MultiPoly.var("mu")
NU1 = NU - 1
PENDANT = MultiPoly.var("q") + NU1


# Equal polynomials from different keys share one object, so the memo
# below holds one polynomial per value rather than one per labelled graph.
_distinct: dict = {}


def _powers(base: MultiPoly, n: int) -> list:
    """[base^0, ..., base^n], each by one product from the last."""
    out = [MultiPoly.one()]
    for _ in range(n):
        out.append(out[-1] * base)
    return out


@lru_cache(maxsize=None)
def _potts_of_key(v, edges):
    """P of the multigraph with the key (v, edges) of _graph_key.

    A multigraph with a loop or a vertex of degree 0 or 1 is reduced by
    the three rules of the module docstring: each loop is a factor nu,
    each isolated vertex a factor q and each pendant edge a factor
    q + nu - 1, whose contraction takes its leaf away, until no vertex of
    degree 0 or 1 is left.  The core that is left is relabelled and
    recursed on through _graph_key, so that maps with equal cores share
    its entry.  Deletion-contraction runs only on a core: a multigraph
    with no loop and no vertex of degree below 2."""
    pairs = list(_pairs(edges))
    degree = [0] * v
    for a, b in pairs:
        degree[a] += 1
        degree[b] += 1
    if any(a == b for a, b in pairs) or min(degree, default=0) < 2:
        p = _reduced(v, pairs)
    else:  # merge b into a and close the gap b leaves in the labels
        a, b, rest = edges[0], edges[1], edges[2:]
        label = [*range(b), a, *range(b, v - 1)]
        contracted = _potts_of_key(*_graph_key(
            v - 1, map(label.__getitem__, rest)))
        p = MultiPoly.dot(((_potts_of_key(v, rest), 1), (NU1, contracted)))
    return _distinct.setdefault(p, p)


def _reduced(v, pairs):
    """P of the multigraph on vertices 0..v-1 with the given edges: the
    factors of its loops, isolated vertices and pendant edges, times the
    memo entry of its core."""
    links = [(a, b) for a, b in pairs if a != b]
    at = [[] for _ in range(v)]  # the indices of the links at each vertex
    for i, (a, b) in enumerate(links):
        at[a].append(i)
        at[b].append(i)
    degree = [len(x) for x in at]  # -1 once the vertex is taken out
    kept = [True] * len(links)
    leaves = [x for x in range(v) if degree[x] < 2]
    isolated = pendant = 0
    while leaves:
        x = leaves.pop()
        if degree[x] < 0:
            continue
        if degree[x]:  # contract x's one link into its other end y
            i = next(i for i in at[x] if kept[i])
            kept[i] = False
            pendant += 1
            y = sum(links[i]) - x
            degree[y] -= 1
            if degree[y] < 2:
                leaves.append(y)
        else:
            isolated += 1
        degree[x] = -1
    p = _factor(isolated, len(pairs) - len(links), pendant)
    # label[x] is the number of core vertices below x: x's label in the core
    label = list(itertools.accumulate((d >= 0 for d in degree), initial=0))
    ends = [label[x] for e, k in zip(links, kept) if k for x in e]
    if ends:
        p = p * _potts_of_key(*_graph_key(label[-1], ends))
    return p


@lru_cache(maxsize=None)
def _factor(isolated, loops, pendant):
    """q^isolated nu^loops (q + nu - 1)^pendant; MultiPoly's power takes
    the powers of q + nu - 1 by one product from the last, as _powers."""
    return MultiPoly(("q", "nu"), {(isolated, loops): 1}) * PENDANT ** pendant


def _graph_key(v, ends):
    """The memo key of the multigraph on vertices 0..v-1 whose edges join
    ends[0] to ends[1], ends[2] to ends[3], and so on: v, and the edges
    sorted, each low end first, flattened and stored as maps._compact
    stores darts.  Below 256 vertices an edge (a, b) sorts as the int
    a << 8 | b, whose two big-endian bytes are a and b."""
    if v < _BYTE_DARTS:
        edges = sorted([a << 8 | b if a <= b else b << 8 | a
                        for a, b in _pairs(ends)])
        return v, struct.pack(f">{len(edges)}H", *edges)
    edges = sorted([(a, b) if a <= b else (b, a) for a, b in _pairs(ends)])
    return v, tuple(itertools.chain.from_iterable(edges))


def _pairs(ends):
    """The edges (ends[0], ends[1]), (ends[2], ends[3]), ..."""
    it = iter(ends)
    return zip(it, it)


def _key(m: RootedMap):
    """_graph_key of the multigraph of m.  The vertices are labelled here,
    as in m.vertex_of, which stays unset on m."""
    label = _cycle_labels(m.sigma)
    if m.alpha is _standard_alpha(len(m.alpha)):
        ends = label  # edge i joins darts 2i and 2i + 1
    else:
        ends = [label[x] for d, a in enumerate(m.alpha) if d < a
                for x in (d, a)]
    return _graph_key(m.n_vertices, ends)


def potts(m: RootedMap) -> MultiPoly:
    """Potts polynomial of the underlying multigraph, in (q, nu).

    Always a multiple of q; the atomic map gives q."""
    return _potts_of_key(*_key(m))


def potts_subset_oracle(m: RootedMap) -> MultiPoly:
    """Fortuin-Kasteleyn expansion: sum over edge subsets S of
    q^{c(S)} (nu-1)^{|S|}, with c(S) counting connected components."""
    counts = _subset_counts(m.n_vertices, m.multigraph_edges())
    nu1 = _powers(NU1, max(r for _, r in counts))
    return MultiPoly.dot((MultiPoly(("q",), {(c,): k}), nu1[r])
                         for (c, r), k in counts.items())


def potts_by_interpolation(m: RootedMap) -> MultiPoly:
    """Potts polynomial recovered from integer-q colouring sums.

    Evaluates the colouring oracle at q = 1 .. v+1 plus the forced value 0
    at q = 0 and interpolates; the degree in q is at most v.  Memoised on
    the key of the labelled multigraph."""
    return _interpolated(*_key(m))


@lru_cache(maxsize=None)
def _interpolated(v, edges):
    from tuttelab.generate import graph_colouring_sum
    edges = list(_pairs(edges))
    points = [(0, MultiPoly.zero())]
    points += [(k, graph_colouring_sum(v, edges, k)) for k in range(1, v + 2)]
    return lagrange_interpolate(points)


def _components(v, edges):
    parent = list(range(v))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    comp = v
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            comp -= 1
    return comp


def _subset_counts(v, edges) -> Counter:
    """How many edge subsets S of the multigraph on vertices 0..v-1 with the
    given (vertex, vertex) edges have c(S) components and |S| edges, keyed
    by (c(S), |S|): the subset expansions below need only these counts, so
    each distinct pair costs one polynomial term."""
    return Counter((_components(v, subset), r) for r in range(len(edges) + 1)
                   for subset in itertools.combinations(edges, r))


def tutte(m: RootedMap) -> MultiPoly:
    """Tutte polynomial of the underlying (connected) multigraph in (mu, nu):
    sum over edge subsets of (mu-1)^{c(S)-1} (nu-1)^{|S|+c(S)-v}.
    Memoised on the key of the labelled multigraph."""
    return _tutte_of_key(*_key(m))


@lru_cache(maxsize=None)
def _tutte_of_key(v, edges):
    counts = _subset_counts(v, list(_pairs(edges)))
    mu1 = _powers(MU - 1, max(c for c, _ in counts) - 1)
    nu1 = _powers(NU1, max(r + c for c, r in counts) - v)
    by_c: dict = {}  # one product by each power of (mu-1)
    for (c, r), k in counts.items():
        by_c.setdefault(c, []).append((nu1[r + c - v], k))
    return MultiPoly.dot((mu1[c - 1], MultiPoly.dot(pairs))
                         for c, pairs in by_c.items())


def potts_from_tutte(m: RootedMap) -> MultiPoly:
    """P(q, nu) from the Tutte polynomial: P = (mu-1) (nu-1)^v T(mu, nu)
    with q = (mu-1)(nu-1).  Writing mu = 1+a and nu = 1+b, each monomial
    a^i b^j of T(1+a, 1+b) becomes a^{i+1} b^{j+v} = q^{i+1} (nu-1)^{j-i-1+v},
    where j-i-1+v is the edge count of the spanning subgraphs it stands for.
    Each power of (nu-1) is computed once, by one product from the last.
    Memoised on the key of the labelled multigraph, and read from the
    Tutte memo of that key, as tutte reads it."""
    return _potts_from_tutte_of_key(*_key(m))


@lru_cache(maxsize=None)
def _potts_from_tutte_of_key(v, edges):
    shifted = _tutte_of_key(v, edges).subs({"mu": MU + 1, "nu": NU + 1})
    terms = [(c, i + 1, j - i - 1 + v)
             for i, ci in shifted.by_powers("mu").items()
             for j, c in ci.by_powers("nu").items()]
    nu1 = _powers(NU1, max((k for _, _, k in terms), default=0))
    return MultiPoly.dot((MultiPoly(("q",), {(i,): c.constant_value()}),
                          nu1[k]) for c, i, k in terms)


def duality_check(m: RootedMap) -> bool:
    """Tutte duality T_{G*}(mu, nu) = T_G(nu, mu), and the Potts form

        q^{v-1} P_{G*}(q, nu) = (nu-1)^e P_G(q, 1 + q/(nu-1)),

    where the right side is cleared of (nu-1) denominators term by term
    (the nu-degree of P_G is at most e, so no denominators survive).
    Both identities are verified exactly; returns True on success."""
    d = m.dual()
    t = tutte(m)
    td = tutte(d)
    if td != t.subs({"mu": NU, "nu": MU}):
        return False
    e = m.n_edges
    lhs = MultiPoly.var("q", m.n_vertices - 1) * potts(d)
    rhs = _cleared_nu_dual_sub(potts(m), e)
    return lhs == rhs


def _cleared_nu_dual_sub(p: MultiPoly, e: int) -> MultiPoly:
    """Substitute nu -> 1 + q/(nu-1) into a (q, nu)-polynomial and clear the
    denominators by (nu-1)^e: each (nu-1)^k factor becomes q^k (nu-1)^{e-k}."""
    shifted = p.subs({"nu": NU + 1})  # now nu stands for nu - 1
    nu1 = _powers(NU1, e)
    return MultiPoly.sum(c * MultiPoly.var("q", k) * nu1[e - k]
                         for k, c in shifted.by_powers("nu").items())


def spanning_tree_count(m: RootedMap) -> int:
    """T(1, 1): the number of spanning trees."""
    if m.is_atomic:
        return 1
    val = tutte(m).eval({"mu": 1, "nu": 1})
    return int(val)


def chromatic_poly(m: RootedMap) -> MultiPoly:
    """P(q, 0): the chromatic polynomial, in q."""
    return potts(m).subs({"nu": 0})


def bipolar_count(m: RootedMap) -> int:
    """(-1)^{v} dP/dq (1, 0): the number of bipolar orientations with respect
    to the root edge's endpoints; the atomic map has none."""
    if m.is_atomic:
        return 0
    val = potts(m).diff("q").eval({"q": 1, "nu": 0})
    return int((-1) ** m.n_vertices * val)


def specializations(m: RootedMap) -> dict:
    return {
        "spanning_tree_count": spanning_tree_count(m),
        "chromatic_poly": chromatic_poly(m),
        "bipolar_count": bipolar_count(m),
    }
