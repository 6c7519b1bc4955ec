"""Exhaustive generation of rooted planar maps and brute-force oracles.

One table, FAMILIES, names every family with what its size counts, its
cap and its maps of one size, unsorted.  Three families are built by one
recursion that reverses root-edge deletion: a map with n edges is either a
smaller map of the family with a new root edge inserted into its root
face, or two smaller maps of the family joined by a new isthmus root edge.
Deletion inverts both, so each map arises once.  They differ only in the
insertion indices allowed: all_maps takes all of them, bipartite_maps the
odd ones, near_angulations(n, p) the one that closes an inner p-gon.  Size
n is built from the memoised lists of the sizes up to n - 2 and one
streamed pass over size n - 1, which yields each map's insertion children
and its isthmus joins with the atomic map, on either side; the joins of
two maps with edges read the lists.  So size n - 1 is built once and not
listed for size n: all_maps(6) from an empty memo holds the lists of 0 to
4 edges and of 6.  The other standard sub-families are derived from
these: 4-valent maps map the maps of all_maps and quadrangulations the
4-valent maps; the near-triangulations with at most n edges are those of
near_angulations(e, 3) for e <= n, which the Eulerian and the
non-separable ones filter.

stream(family, n, ...) checks the cap and yields the maps of any family
of the table unsorted, and keeps none of them: a root-edge family's from
its lists up to n - 2 and a stream of size n - 1, the other families'
from streams of a root-edge family and its lists below; a list that a
memo already holds is read instead of built again.  up_to(family, n, ...)
checks the cap and yields (size, map) for every size up to n: a root-edge
family's lists below n - 1, then sizes n - 1 and n from that one pass,
the other families' lists up to n.  Each list function sorts its stream
by canonical code, so output is deterministic, and every list function is
memoised, so a process builds each list once.  A caller that only counts
or sums the top sizes streams them: gen --count-only counts a stream, the
near-triangulations with at most n edges and equations.brute_force_gf
read up_to, so near_triangulations(7) keeps near_angulations(e, 3) up to
5 edges only, and verify reads both its `maps(n) generator` rows and its
MAPS_1CAT equation row off one such sum, so verify builds the 5- and
6-edge maps in one pass and holds neither.

all_maps_oracle is an independent check that never reads the root-edge
recursion.  It enumerates the rotation systems (sigma, alpha) on 2n darts
that are their own breadth-first labelling from dart 0, choosing each
image as the walk reads it: a dart met already or the next new one.  Each
rooted map of any genus arises exactly once that way (2, 10, 74, 706 and
8,162 for n = 1..5), so nothing is deduplicated; the RootedMap
constructor refuses the positive-genus ones, and each map kept must have
the code it was enumerated as.  It is exponential and capped at n = 5.

The brute-force counting oracles (colourings, spanning trees, bipolar
orientations) are the ground truth for the rest of the package.
"""

from __future__ import annotations

import functools
import itertools

from tuttelab.maps import MapError, RootedMap, _cycle_labels
from tuttelab.poly import MultiPoly

LIST_CAP = 7
ORACLE_CAP = 5


class CapExceeded(ValueError):
    pass


def _check_size(n, cap, family, unit):
    """Refuse a size before any generation: n counts the family's unit."""
    if n < 0:
        raise ValueError(f"{family}: the number of {unit} must be nonnegative")
    if n > cap:
        raise CapExceeded(f"{family} cap is {cap} {unit} (asked for {n})")


def _by_code(maps):
    return sorted(maps, key=lambda m: m.code)


# the root-edge families -> the insertion indices allowed into a root face of
# degree d, given d and the family's arguments
_INDICES = {
    "all_maps": lambda d: range(d + 1),
    "bipartite_maps": lambda d: range(1, d + 1, 2),
    "near_angulations": lambda d, p: [d - p + 1] if d >= p - 1 else [],
}


def _root_edge_recursion(family, n, *args, parents=False):
    """The maps of family(n, *args), unsorted, for a root-edge family of
    _INDICES.  Its memoised lists of the sizes below n - 1 are taken first,
    smallest first, so each is built once; then one pass over a stream of
    its maps of size n - 1 yields, for each, its insertion children and its
    isthmus joins with the atomic map on either side (one join when n = 1),
    and the joins of two smaller maps with edges follow.  Size n - 1 is
    read once and kept nowhere.  With parents, each map of size n - 1 is
    yielded too, before the maps built from it."""
    if n == 0:
        yield RootedMap.atomic()
        return
    listed = globals()[family]  # looked up now, so that a patch is read
    indices = _INDICES[family]
    held = [listed(e, *args) for e in range(n - 1)]
    (atom,) = listed(0, *args)
    join = RootedMap.join_by_root_edge
    for m in stream(family, n - 1, *args):
        if parents:
            yield m
        yield from m.insertions(indices(m.root_face_degree, *args))
        yield join(atom, m)
        if n > 1:
            yield join(m, atom)
    for e in range(1, n - 1):
        for m1 in held[e]:
            for m2 in held[n - 1 - e]:
                yield join(m1, m2)


# family -> (what its size n counts, its cap on n, (n, *args) -> its maps,
# unsorted).  The root-edge families are those of _INDICES; the others map
# or filter a stream of all_maps, of four_valent (read from its list when
# one is held) or of near_angulations(e, 3), and the near-triangulations
# with at most n edges are those of up_to("near_angulations", n, 3).
FAMILIES = {
    "all_maps": ("edges", LIST_CAP, lambda n: _root_edge_recursion(
        "all_maps", n)),
    "bipartite_maps": ("edges", LIST_CAP, lambda n: _root_edge_recursion(
        "bipartite_maps", n)),
    "near_angulations": ("edges", LIST_CAP, lambda n, p: _root_edge_recursion(
        "near_angulations", n, p)),
    "quadrangulations": ("faces", LIST_CAP, lambda n: (
        m.dual() for m in stream("four_valent", n))),
    "four_valent": ("vertices", LIST_CAP, lambda n: (
        m.radial() for m in stream("all_maps", n) if not m.is_atomic)),
    "near_triangulations": ("edges", LIST_CAP, lambda n: (
        m for _, m in up_to("near_angulations", n, 3))),
    "eulerian_near_triangulations": ("black faces", LIST_CAP // 3, lambda n: (
        m for m in stream("near_angulations", 3 * n, 3) if m.is_eulerian())),
    "non_separable_near_triangulations": (
        "inner faces", (LIST_CAP - 1) // 2, lambda n: (
            m for m in stream("near_triangulations", 2 * n + 1)
            if m.n_faces == n + 1 and not m.is_separable())),
}


def stream(family: str, n: int, *args):
    """The maps of family(n, *args), unsorted, for any family of FAMILIES.
    The cap is checked here, before any map is built.  A list that a memo
    holds is read as it is; otherwise the maps are built and kept nowhere,
    so a caller that only counts or sums them never holds them.  A
    root-edge family builds them from its memoised lists of the sizes up
    to n - 2 and a stream of size n - 1, which is not held either."""
    unit, cap, maps = FAMILIES[family]
    _check_size(n, cap, family, unit)
    held = _LISTS.get((family, n, *args))
    return iter(held) if held is not None else maps(n, *args)


def up_to(family: str, n: int, *args):
    """(size, map) for every map of family(size, *args) with size <= n, for
    any family of FAMILIES but near_triangulations, whose size n already
    holds every smaller one.  The cap on n is checked here, before any map
    is built.  A root-edge family reads its memoised lists below n - 1 and
    sizes n - 1 and n from one pass of the recursion, each map of size
    n - 1 before the maps built from it, so neither is held; a list of size
    n that a memo holds is read instead, after a stream of size n - 1.
    Every other family reads its memoised lists up to n."""
    unit, cap, _ = FAMILIES[family]
    _check_size(n, cap, family, unit)
    listed = globals()[family]  # looked up now, so that a patch is read
    if family not in _INDICES or n == 0:
        return ((e, m) for e in range(n + 1) for m in listed(e, *args))
    held = _LISTS.get((family, n, *args))
    top = (_root_edge_recursion(family, n, *args, parents=True)
           if held is None
           else itertools.chain(stream(family, n - 1, *args), held))
    return itertools.chain(
        ((e, m) for e in range(n - 1) for m in listed(e, *args)),
        ((m.n_edges, m) for m in top))


# (family, n, *args) -> the sorted list of family(n, *args), for the list
# functions memoised by _kept; stream reads a list from here when it is held
_LISTS = {}


def _kept(fn):
    """Memoise fn, the list function of the family of FAMILIES that it is
    named after, in _LISTS.  fn.cache_clear() drops its lists."""
    family = fn.__name__

    @functools.wraps(fn)
    def listed(n, *args):
        key = (family, n, *args)
        held = _LISTS.get(key)
        if held is None:
            held = _LISTS[key] = fn(n, *args)
        return held

    def cache_clear():
        for key in [key for key in _LISTS if key[0] == family]:
            del _LISTS[key]

    listed.cache_clear = cache_clear
    return listed


@_kept
def all_maps(n: int):
    """All rooted planar maps with n edges, sorted by canonical code."""
    return _by_code(stream("all_maps", n))


@_kept
def near_angulations(n: int, p: int):
    """All maps with n edges whose inner faces all have degree p, sorted by
    canonical code.  Inserting a root edge at index k into a root face of
    degree d closes an inner face of degree d - k + 1, hence k = d - p + 1."""
    return _by_code(stream("near_angulations", n, p))


def _self_labelled_systems(n: int):
    """Every (sigma, alpha) on 2n darts that is its own breadth-first
    labelling from dart 0, sigma before alpha as in the code of a
    RootedMap, as a pair of tuples.

    The walk meets the darts in the order 0, 1, 2, ...: when it reads
    sigma(d) and then alpha(d), each is a dart met already or the next new
    one.  So the search fixes sigma(d), then alpha(d) unless an earlier
    dart fixed it, to each dart met already that keeps the permutation (a
    dart with no sigma-preimage yet, a later dart with no alpha yet) and
    then to the next new dart.  A branch ends early when the walk has read
    every dart it met before meeting all 2n: the system is not connected.
    A rooted map of any genus has exactly one such labelling, so each
    arises once."""
    darts = 2 * n
    sigma, alpha = [-1] * darts, [-1] * darts
    has_preimage = [False] * darts

    def walk(d, met):
        if d == darts:
            yield tuple(sigma), tuple(alpha)
            return
        if d == met:
            return
        for s in range(min(met + 1, darts)):  # met already, or the next
            if has_preimage[s]:
                continue
            sigma[d], has_preimage[s] = s, True
            after_sigma = max(met, s + 1)
            if alpha[d] >= 0:
                yield from walk(d + 1, after_sigma)
            else:
                for a in range(d + 1, min(after_sigma + 1, darts)):
                    if alpha[a] < 0:
                        alpha[d], alpha[a] = a, d
                        yield from walk(d + 1, max(after_sigma, a + 1))
                        alpha[d] = alpha[a] = -1
            has_preimage[s] = False

    return walk(0, 1)


def all_maps_oracle(n: int):
    """Independent enumeration of the rooted planar maps with n edges: the
    rotation systems of _self_labelled_systems(n) that the constructor
    accepts, those of genus 0.  No map is met twice, so none is
    deduplicated; the code of each is checked to be (2n, *sigma, *alpha),
    the labelling it was enumerated as.  The root-edge recursion of
    all_maps is never used."""
    if n > ORACLE_CAP:
        raise CapExceeded(f"oracle cap is {ORACLE_CAP} edges (asked for {n})")
    if n == 0:
        return [RootedMap.atomic()]
    out = []
    for sigma, alpha in _self_labelled_systems(n):
        try:
            m = RootedMap(alpha, sigma, 0)
        except MapError:
            continue
        if tuple(m.code) != (2 * n, *sigma, *alpha):
            raise AssertionError(
                f"oracle: {m!r} is not its own breadth-first labelling")
        out.append(m)
    return _by_code(out)


# -- family generators ---------------------------------------------------------


@_kept
def near_triangulations(max_edges: int):
    """All near-triangulations (finite faces of degree 3) with <= max_edges
    edges.  A code starts with the number of darts, so they come by size."""
    return _by_code(stream("near_triangulations", max_edges))


@_kept
def bipartite_maps(n_edges: int):
    """All bipartite maps with n_edges edges, sorted by canonical code.
    Colours alternate along a face, so inserting at index k joins corners
    of opposite colour exactly when k is odd; an isthmus join of two
    bipartite maps is bipartite."""
    return _by_code(stream("bipartite_maps", n_edges))


@_kept
def eulerian_near_triangulations(n_black_faces: int):
    """Eulerian near-triangulations with n black faces.

    The faces of an Eulerian planar map are properly 2-colourable; colour
    the outer face white.  Every edge then borders exactly one black face,
    a triangle, so such a map has 3n edges.  The white finite faces number
    (3n - outer degree) / 3: the six maps with n = 2 have 2 or 3 finite
    faces.
    """
    return _by_code(stream("eulerian_near_triangulations", n_black_faces))


@_kept
def quadrangulations(n_faces: int):
    """All quadrangulations with n faces: duals of radials of n-edge maps."""
    return _by_code(stream("quadrangulations", n_faces))


@_kept
def four_valent(n_vertices: int):
    """All 4-valent maps with n vertices: radials of n-edge maps."""
    return _by_code(stream("four_valent", n_vertices))


@_kept
def non_separable_near_triangulations(n_inner_faces: int):
    """Non-separable near-triangulations with n finite (triangular) faces.

    Such a map has at most 2n + 1 edges (the outer face is a simple cycle),
    so the search space is finite; for n = 0 it is the link alone, the
    atomic map being separable.  The 9 maps with 3 inner faces are kept
    from one stream of the 2,680 near-triangulations with at most 7 edges.
    """
    return _by_code(stream("non_separable_near_triangulations",
                           n_inner_faces))


# -- brute-force oracles --------------------------------------------------------


def all_spanning_trees(m: RootedMap):
    """Every spanning edge subset that is a tree, as sorted tuples of edge
    indices into m.edges()."""
    if m.is_atomic:
        raise MapError("the atomic map has no spanning tree oracle")
    edges = m.multigraph_edges()
    v = m.n_vertices
    need = v - 1
    out = []
    for subset in itertools.combinations(range(len(edges)), need):
        parent = list(range(v))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ok = True
        for i in subset:
            ra, rb = find(edges[i][0]), find(edges[i][1])
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            out.append(subset)
    return out


def all_bipolar_orientations(m: RootedMap):
    """All acyclic orientations with unique source at the root-edge origin
    and unique sink at its other endpoint.

    An orientation is the tuple of chosen head darts, one per edge of
    m.edges().  A depth-first search orients the edges in that order, head
    0 before head 1, so the orientations come in lexicographic order of
    their choices.  An arc into the source s or out of the sink t fails
    its branch at once; once the last edge at any other vertex is
    oriented, the branch fails unless that vertex has both an in-arc and
    an out-arc.  Each vertex then has the arcs it needs (s and t have at
    least one edge, none a loop), and a complete orientation is kept when
    repeated source removal from s reaches every vertex, so it is acyclic.
    Empty exactly when the map is separable (and always empty for maps
    with a loop, since a loop closes a cycle)."""
    if m.is_atomic:
        raise MapError("the atomic map has no orientations")
    edges = m.edges()
    vo = _cycle_labels(m.sigma)  # not kept on m, which a memo may hold
    vg = [(vo[d], vo[a]) for d, a in edges]
    v = m.n_vertices
    s = vo[m.root]
    t = vo[m.alpha[m.root]]
    if any(a == b for a, b in vg) or s == t:
        return []
    closing = [[] for _ in vg]  # the inner vertices whose last edge is i
    for x, i in {x: i for i, e in enumerate(vg) for x in e}.items():
        if x not in (s, t):
            closing[i].append(x)
    indeg, outdeg = [0] * v, [0] * v
    heads, arcs, out = [], [], []

    def search(i):
        if i == len(vg):
            if _acyclic(v, s, arcs):
                out.append(tuple(e[h] for e, h in zip(edges, heads)))
            return
        u, w = vg[i]
        for h, (a, b) in enumerate(((w, u), (u, w))):  # head dart e[h]
            if b == s or a == t:
                continue
            outdeg[a] += 1
            indeg[b] += 1
            heads.append(h)
            arcs.append((a, b))
            if all(indeg[x] and outdeg[x] for x in closing[i]):
                search(i + 1)
            heads.pop()
            arcs.pop()
            outdeg[a] -= 1
            indeg[b] -= 1

    search(0)
    return out


def _acyclic(v, s, arcs):
    """Whether repeated source removal from s, over the arcs (tail, head)
    on vertices 0..v-1, removes every vertex."""
    indeg = [0] * v
    adj = [[] for _ in range(v)]
    for a, b in arcs:
        indeg[b] += 1
        adj[a].append(b)
    seen = 0
    stack = [s]
    while stack:
        a = stack.pop()
        seen += 1
        for b in adj[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                stack.append(b)
    return seen == v


def graph_colouring_sum(v: int, edges, q: int):
    """Potts partition sum of the multigraph on vertices 0..v-1 with the
    given (vertex, vertex) edges, as a MultiPoly in nu: over all
    q-colourings, nu^(#monochromatic edges).

    Permuting the colours keeps the number of monochromatic edges, so
    vertex 0 takes colour 0 and every count is multiplied by q: q^(v-1)
    colourings are read instead of q^v.  With no vertex the one empty
    colouring counts once.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    first, weight = ((0,), q) if v else ((), 1)
    counts: dict = {}
    for rest in itertools.product(range(q), repeat=v - len(first)):
        col = first + rest
        mono = sum(1 for a, b in edges if col[a] == col[b])
        counts[mono] = counts.get(mono, 0) + weight
    return MultiPoly(("nu",), {(mono,): c for mono, c in counts.items()})
