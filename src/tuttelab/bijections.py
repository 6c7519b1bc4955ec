"""Executable bijections between map families and tree-like objects.

Four constructions, each with exact round-trip guarantees:

* opening / closure: 4-valent maps <-> balanced blossoming trees
  (psi_open, phi_close), the signed refinement onto maps with a marked
  face (phi_bar), and the unbalanced-tree decomposition into triples
  (unbalanced_split / unbalanced_join);
* the distance-labelling bijection: pointed rooted quadrangulations whose
  root edge is oriented away from the point <-> labelled trees
  (cvs_forward, and its inverse by closure, cvs_backward);
* the spanning-tree contour encoding: tree-rooted maps <-> shuffles of
  two Dyck words (mullin_encode, mullin_decode, mullin_decompose);
* degree-2 subdivision: 2-coloured maps with parity-constrained edge
  subdivisions <-> properly bicoloured bipartite maps (ising_subdivide,
  ising_erase) and the resulting two-variable series identity, whose
  left side is the q = 2 Potts brute-force series of
  equations.brute_force_gf.

All walks along face contours use the same corner iterator (the orbit of
phi = sigma o alpha, alpha fixing half-edges), so the "first / next"
conventions of the different constructions cannot drift apart.

The closure of a blossoming tree is cyclic parenthesis matching along its
contour: flowers open and leaves close, so each flower joins the first
free leaf after it (Schaeffer 1997).  A tree with n flowers has n + 2
leaves, and the two left unmatched form the root edge.
"""

from __future__ import annotations

from operator import eq, ne

from tuttelab.maps import MapError, RootedMap, _compact, _components
from tuttelab.trees import (FLOWER, LEAF, BlossomingTree, DyckShuffle,
                            LabelledTree)


class BijectionError(ValueError):
    pass


def corner_walk(sigma, alpha, start):
    """Darts of the face containing `start`, in contour order: the orbit
    of d -> sigma[alpha[d]], where half-edges are alpha fixed points."""
    out = [start]
    d = sigma[alpha[start]]
    while d != start:
        out.append(d)
        d = sigma[alpha[d]]
        if len(out) > len(sigma):
            raise BijectionError("contour walk does not close up")
    return out


# -- opening and closure ------------------------------------------------------


def _closure_match(sigma, alpha, kind, start):
    """Match flowers to leaves along the contour as parentheses: each
    flower opens, and each leaf closes the last flower still open.  Read
    cyclically, the flowers still open at the end of the contour close on
    the first leaves left unmatched.

    Returns (alpha2, unmatched): the pairing with matched half-edges
    joined, and the two leaves left over, in contour order from `start`.
    The matching is independent of the starting corner; this is checked.
    """
    seq = corner_walk(sigma, alpha, start)
    if len(seq) != len(sigma):
        raise BijectionError("half-edge structure is not a tree")
    cur = [d for d in seq if d in kind]

    def match(cyc):
        pairs, open_, free = [], [], []
        for d in cyc:
            if kind[d] == FLOWER:
                open_.append(d)
            elif open_:
                pairs.append((open_.pop(), d))
            else:
                free.append(d)
        if len(free) != len(open_) + 2:
            raise BijectionError("closure does not leave exactly two leaves")
        # every free leaf comes before every flower still open
        pairs.extend(zip(reversed(open_), free))
        return pairs, free[len(open_):]

    pairs, unmatched = match(cur)
    if len(cur) > 2:
        check_pairs, _ = match(cur[1:] + cur[:1])
        if set(map(frozenset, pairs)) != set(map(frozenset, check_pairs)):
            raise BijectionError("closure matching depends on start corner")
    alpha2 = list(alpha)
    for f, l in pairs:
        alpha2[f] = l
        alpha2[l] = f
    return alpha2, unmatched


def psi_open(m: RootedMap) -> BlossomingTree:
    """Open a 4-valent map into a balanced blossoming tree.

    Cut the root edge into two leaves (the first is the tree root), then
    walk the outer-face contour; each time an edge whose other side is a
    different face has just been traversed, cut it: the traversed side
    becomes a flower, the other a leaf.  Stops when one face is left, so
    that only isthmuses (a tree) remain, by the isthmus fact of the maps
    module docstring.
    """
    if m.is_atomic or not m.is_4valent():
        raise BijectionError("input must be a non-atomic 4-valent map")
    n = m.n_darts
    sigma = list(m.sigma)
    alpha = list(m.alpha)
    r = m.root
    a0 = alpha[r]
    alpha[r] = r
    alpha[a0] = a0
    kind = {r: LEAF, a0: LEAF}
    cur = sigma[r]
    outer = set(corner_walk(sigma, alpha, r))
    guard = 0
    while len(outer) < n:
        guard += 1
        if guard > 4 * n * n:
            raise BijectionError("opening walk did not terminate")
        a = alpha[cur]
        nxt = sigma[a]
        if a not in outer:  # a half-edge (a == cur) is on the outer face
            outer.update(corner_walk(sigma, alpha, a))  # the face merged in
            kind[cur] = FLOWER
            kind[a] = LEAF
            alpha[cur] = cur
            alpha[a] = a
        cur = nxt
    return BlossomingTree.from_darts(sigma, alpha, kind, r)


def _close(t: BlossomingTree, sign: str):
    """Match the flowers of t to its leaves, then join the two leaves left
    unmatched into the root edge, rooted at the first of them on the
    contour from the tree root with sign '+', at the second with '-'.
    Returns (map, tree-root dart)."""
    sigma, alpha, kind, root = t.to_darts()
    alpha2, unmatched = _closure_match(sigma, alpha, kind, root)
    rd, other = unmatched if sign == "+" else unmatched[::-1]
    alpha2[rd] = other
    alpha2[other] = rd
    return RootedMap(alpha2, sigma, rd), root


def phi_close(t: BlossomingTree) -> RootedMap:
    """Close a balanced blossoming tree into a 4-valent map (inverse of
    psi_open); raises on unbalanced input (use phi_bar instead)."""
    m, root = _close(t, "+")
    if m.root != root:  # the tree root, if unmatched, is reached first
        raise BijectionError("tree is not balanced")
    if not m.is_4valent():
        raise BijectionError("closure did not produce a 4-valent map")
    return m


def phi_bar(t: BlossomingTree, sign: str):
    """Close any blossoming tree into a rooted 4-valent map with a marked
    face.  The two leaves left unmatched form the root edge; with sign
    '+' the root dart is the unmatched leaf reached first on the contour
    from the tree root (for balanced trees, the tree root itself), with
    '-' the other.  The marked face is the one whose contour contains the
    tree-root half-edge; for a balanced tree with sign '+' this is the
    face on the root-dart side of the root edge.  (Marking the face on
    the opposite side of that half-edge is provably not injective: one
    face of the closed map is never hit.)

    Returns (map, face index), with the map in canonical dart order.
    """
    if sign not in ("+", "-"):
        raise BijectionError("sign must be '+' or '-'")
    m, marked_dart = _close(t, sign)
    label = m.bfs_labels()
    cm = m.relabelled()
    return cm, cm.face_of[label[marked_dart]]


def unbalanced_split(t: BlossomingTree):
    """Split an unbalanced blossoming tree into the ordered triple of
    blossoming trees left by deleting the inner node whose flower matches
    the root leaf; the pieces are taken counterclockwise after that
    flower, each rooted at the leaf created by the cut."""
    sigma, alpha, kind, root = t.to_darts()
    alpha2, unmatched = _closure_match(sigma, alpha, kind, root)
    if root in unmatched:
        raise BijectionError("tree is balanced")
    f = alpha2[root]
    out = []
    d = sigma[f]
    for _ in range(3):
        if kind.get(d) == LEAF:
            out.append(BlossomingTree(LEAF))
        else:
            q = alpha[d]
            alpha_p = list(alpha)
            alpha_p[d] = d
            alpha_p[q] = q
            kind_p = dict(kind)
            kind_p[q] = LEAF
            out.append(BlossomingTree.from_darts(sigma, alpha_p, kind_p, q))
        d = sigma[d]
    return tuple(out)


def unbalanced_join(t1, t2, t3) -> BlossomingTree:
    """Inverse of unbalanced_split: attach the three trees to a new inner
    node counterclockwise after its flower, then root the assembly at the
    leaf that the new flower matches during closure."""
    sigma = [1, 2, 3, 0]
    alpha = [0, 1, 2, 3]
    kind = {0: FLOWER}
    for slot, piece in zip((1, 2, 3), (t1, t2, t3)):
        if piece.top is LEAF:
            kind[slot] = LEAF
            continue
        ps, pa, pk, pr = piece.to_darts()
        off = len(sigma)
        sigma.extend(x + off for x in ps)
        alpha.extend(x + off for x in pa)
        kind.update({d + off: k for d, k in pk.items()})
        del kind[pr + off]
        alpha[slot] = pr + off
        alpha[pr + off] = slot
    alpha2, _ = _closure_match(sigma, alpha, kind, 0)
    r = alpha2[0]
    if kind.get(r) != LEAF:
        raise BijectionError("assembly flower did not match a leaf")
    return BlossomingTree.from_darts(sigma, alpha, kind, r)


# -- quadrangulations and labelled trees --------------------------------------

# The pictorial parts of the labelling bijection are read as follows: the
# "first" l+1 corner of an l,l+1,l+2,l+1 face follows the l corner on the
# contour, the tree root edge starts as cvs_forward says, and children are
# ordered in the rotation sense of the map.  The tests check the reading
# against the closure cvs_backward both ways, up to 5 faces.


def _distances(m: RootedMap, v0: int):
    """Graph distances from vertex v0 in the underlying multigraph."""
    vertices, vertex_of, alpha = m.vertices, m.vertex_of, m.alpha
    dist = [None] * m.n_vertices
    dist[v0] = 0
    queue = [v0]
    for v in queue:  # grows as the walk reaches new vertices
        for d in vertices[v]:
            u = vertex_of[alpha[d]]
            if dist[u] is None:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def cvs_forward(m: RootedMap, v0: int) -> LabelledTree:
    """Distance-labelling bijection: a rooted quadrangulation pointed at
    v0, with root edge oriented away from v0 (origin strictly closer),
    maps to a labelled tree spanning all vertices except v0.

    In each face (corner labels l,l+1,l,l+1 or l,l+1,l+2,l+1 along the
    contour) one edge is drawn between corners; the tree is rooted at the
    edge drawn in the root face, oriented away from the root-edge
    endpoint of the quadrangulation.
    """
    if not m.is_quadrangulation():
        raise BijectionError("input is not a quadrangulation")
    if not 0 <= v0 < m.n_vertices:
        raise BijectionError("pointed vertex out of range")
    dist = _distances(m, v0)
    vertices, vertex_of = m.vertices, m.vertex_of
    u = vertex_of[m.root]
    w_corner = m.alpha[m.root]
    if dist[u] != dist[vertex_of[w_corner]] - 1:
        raise BijectionError(
            "root edge is not oriented away from the pointed vertex")
    root_face = m.face_of[w_corner]
    host = {}
    root_pair = None
    for fi, face in enumerate(m.faces):
        labs = [dist[vertex_of[d]] for d in face]
        l = min(labs)
        i0 = labs.index(l)
        order, olabs = face[i0:] + face[:i0], labs[i0:] + labs[:i0]
        if olabs == [l, l + 1, l, l + 1]:
            c1, c2 = order[1], order[3]
            ftype = 1
        elif olabs == [l, l + 1, l + 2, l + 1]:
            c1, c2 = order[1], order[2]
            ftype = 2
        else:
            raise BijectionError("impossible corner labels in a face")
        if host.get(c1) is not None or host.get(c2) is not None:
            raise BijectionError("corner hosts two tree edges")
        host[c1] = c2
        host[c2] = c1
        if fi == root_face:
            root_pair = (c1, c2, ftype)
    # The tree root edge points away from w_corner, the end of the map's
    # root edge: from w_corner when the drawn edge ends there, and
    # otherwise, only in an l,l+1,l+2,l+1 face, from its l+1 corner c1.
    c1, c2, ftype = root_pair
    if w_corner not in (c1, c2) and ftype == 1:
        raise BijectionError("root corner missing from its face edge")
    c_from = w_corner if w_corner in (c1, c2) else c1

    def node(at_corner, skip):
        """The label of the vertex of at_corner and the corners of its
        children, in rotation order from at_corner; skip=1 leaves out
        at_corner itself, the edge to the parent, which the root does not
        have."""
        v = vertex_of[at_corner]
        ring = [d for d in vertices[v] if d in host]
        i = ring.index(at_corner)
        return dist[v], iter([host[c] for c in ring[i + skip:] + ring[:i]])

    # depth first with an explicit stack of (label, children's corners
    # left, children built); a spanning tree has n_faces + 1 vertices, so
    # a walk that meets more has met a cycle of drawn edges
    stack, met = [(*node(c_from, 0), [])], 1
    while True:
        label, corners, built = stack[-1]
        corner = next(corners, None)
        if corner is not None:
            met += 1
            if met > m.n_faces + 1:
                break
            stack.append((*node(corner, 1), []))
            continue
        stack.pop()
        tree = LabelledTree(label, built)
        if not stack:
            break
        stack[-1][2].append(tree)
    if stack or tree.n_edges != m.n_faces:
        raise BijectionError("drawn edges do not form a spanning tree")
    return tree


def cvs_backward(t: LabelledTree):
    """Inverse of cvs_forward: the closure of the labelled tree (Schaeffer
    1998), built in one walk of its contour.

    The 2n corners of a tree with n edges are its arrivals at a vertex
    along the contour from the root, but the last.  Arc k, darts 2k and
    2k + 1, joins corner k to the next corner, cyclically, whose label is
    one less, or to a new vertex v0 from a label 1; the tree edges are
    dropped.  At each corner c of a tree vertex come the arcs ending at c,
    nearest source first, then arc c; v0 takes its arcs in reverse contour
    order.  The root dart ends the arc from the first corner after the
    first child's whose label is the root's, when the first child's is one
    more, and otherwise the arc from the root's second corner (its first
    if it has one child).

    Returns (map, v0).  The map == the quadrangulation that cvs_forward
    read, but its darts are numbered by the closure, so v0 indexes the
    vertices of the returned map, not of that quadrangulation.
    """
    if not isinstance(t, LabelledTree) or not t.is_valid():
        raise BijectionError("input is not a valid labelled tree")
    if not t.children:
        raise BijectionError("tree is not in the image of cvs_forward")
    corners = []  # (vertex, label); a vertex is numbered by its first one
    stack = [(t, 0, iter(t.children))]  # the contour, walked without recursion
    while stack:
        s, v, rest = stack[-1]
        corners.append((v, s.label))
        child = next(rest, None)
        if child is None:
            stack.pop()
        else:
            stack.append((child, len(corners), iter(child.children)))
    vert, lab = zip(*corners[:-1])  # drop the final return to the root
    n2 = len(lab)
    ends = [[] for _ in range(n2)]  # the arcs ending at each corner
    nearest = {}  # label -> the nearest corner after, cyclically
    # Labels move by at most 1 from corner to corner, so no arc passes over
    # a corner of label 1: scanned back from one, each arc's end is seen
    # before its source, and each corner's arcs are listed nearest first.
    k1 = lab.index(1)
    for i in range(k1, k1 - n2, -1):
        k = i % n2
        if lab[k] > 1:
            ends[nearest[lab[k] - 1]].append(k)
        nearest[lab[k]] = k
    rings = [[] for _ in range(n2)]  # the darts around each tree vertex
    for c, ks in enumerate(ends):
        rings[vert[c]] += [2 * k + 1 for k in ks] + [2 * c]
    rings.append([2 * k + 1 for k in reversed(range(n2)) if lab[k] == 1])
    sigma = [0] * (2 * n2)
    for ring in rings:
        for d, e in zip(ring, ring[1:] + ring[:1]):
            sigma[d] = e
    up = lab[1] == lab[0] + 1
    k = next((k for k in range(1, n2)
              if (lab[k] == lab[0] if up else vert[k] == 0)), 0)
    m = RootedMap([d ^ 1 for d in range(2 * n2)], sigma, 2 * k + 1)
    return m, m.vertex_of[rings[-1][0]]


# -- spanning-tree contour words ----------------------------------------------


def _check_spanning_tree(m: RootedMap, tree, edges):
    tree = sorted(set(tree))
    if any(not 0 <= e < len(edges) for e in tree):
        raise BijectionError("tree edge index out of range")
    vertex_of = m.vertex_of
    ends = [(vertex_of[edges[e][0]], vertex_of[edges[e][1]]) for e in tree]
    # v - 1 edges span a tree exactly when they leave one component
    if len(tree) != m.n_vertices - 1 or _components(m.n_vertices, ends) != 1:
        raise BijectionError("edge subset is not a spanning tree")
    return tuple(tree)


def mullin_encode(m: RootedMap, tree) -> DyckShuffle:
    """Contour word of a tree-rooted map: tour the spanning tree from the
    root dart, writing a/A at the first/second traversal of a tree edge
    (then turning around the edge) and b/B at the first/second crossing
    of a non-tree edge (then turning in place)."""
    edges = m.edges()
    tree = _check_spanning_tree(m, tree, edges)
    if m.is_atomic:
        return DyckShuffle("")
    edge_of = {d: i for i, edge in enumerate(edges) for d in edge}
    in_tree = set(tree)
    sigma, alpha = m.sigma, m.alpha
    word = []
    seen = set()
    d = m.root
    for _ in range(m.n_darts):
        e = edge_of[d]
        if e in in_tree:
            word.append("A" if e in seen else "a")
            seen.add(e)
            d = sigma[alpha[d]]
        else:
            word.append("B" if e in seen else "b")
            seen.add(e)
            d = sigma[d]
    if d != m.root or len(seen) != len(edges):
        raise BijectionError("tree tour is not a single cycle")
    return DyckShuffle("".join(word))


def mullin_decode(w) -> tuple:
    """Inverse of mullin_encode: rebuild (map, spanning tree) from a
    shuffle of two Dyck words, the k-th letter becoming dart k of the
    tour with the root at dart 0."""
    shuffle = w if isinstance(w, DyckShuffle) else DyckShuffle(w)
    word = shuffle.word
    n2 = len(word)
    if n2 == 0:
        return RootedMap.atomic(), ()
    alpha = [None] * n2
    stacks = {"a": [], "b": []}
    for k, ch in enumerate(word):
        if ch in "ab":
            stacks[ch].append(k)
        else:
            p = stacks[ch.lower()].pop()
            alpha[p] = k
            alpha[k] = p
    sigma = [None] * n2
    for k in range(n2):
        nxt = (k + 1) % n2
        if word[k] in "aA":
            sigma[alpha[k]] = nxt
        else:
            sigma[k] = nxt
    try:
        m = RootedMap(alpha, sigma, 0)
    except MapError as err:
        raise BijectionError(f"word does not encode a planar map: {err}")
    tree = tuple(i for i, (d, a) in enumerate(m.edges()) if word[d] in "aA")
    return m, tree


def canonical_edges(m: RootedMap):
    """The edges of m, in the order of m.edges(), each as the sorted pair
    of its darts' canonical labels (m.bfs_labels())."""
    label = m.bfs_labels()
    pairs = [(label[d], label[a]) for d, a in m.edges()]
    return [(x, y) if x < y else (y, x) for x, y in pairs]


def tree_root_key(m: RootedMap, tree, edges=None):
    """Canonical key of a tree-rooted map: the map's code together with
    the tree edges written in canonical dart labels.  `edges`, when given,
    is canonical_edges(m), read once for all the trees of m."""
    if edges is None:
        edges = canonical_edges(m)
    return m.code, tuple(sorted(edges[e] for e in tree))


def mullin_decompose(m: RootedMap, tree):
    """Decouple a tree-rooted map into (dual plane tree, half-edged plane
    tree): the b/B subword of the contour word is the Dyck word of the
    plane tree dual to the non-tree edges, and replacing each b/B by a
    half-edge letter c leaves the tree of the map with 2j half-edges.

    The degree multiset of the half-edged tree (half-edges counting one)
    equals the vertex degree multiset of the map.
    """
    word = mullin_encode(m, tree).word
    dual_word = "".join(ch for ch in word if ch in "bB")
    tprime = word.replace("b", "c").replace("B", "c")
    return dual_word, tprime


def tprime_degrees(tprime: str):
    """Vertex degrees of a half-edged plane tree word over a/A/c, each
    half-edge contributing one to its vertex."""
    deg = [0]
    stack = [0]
    for ch in tprime:
        if ch == "a":
            deg[stack[-1]] += 1
            deg.append(1)
            stack.append(len(deg) - 1)
        elif ch == "A":
            stack.pop()
        elif ch == "c":
            deg[stack[-1]] += 1
        else:
            raise BijectionError(f"bad letter {ch!r} in half-edged tree word")
    if len(stack) != 1:
        raise BijectionError("unbalanced half-edged tree word")
    return sorted(deg)


# -- degree-2 subdivision of coloured maps -------------------------------------


def ising_subdivide(m: RootedMap, colouring, counts):
    """Subdivide edge k of a 2-coloured map with counts[k] square vertices
    of degree 2, alternating colours along the subdivided path; every
    monochromatic edge needs an odd count and every bichromatic edge an
    even one, so the result is properly bicoloured (and bipartite).

    The bicolouring is checked on the darts of the result: each dart must
    have the colour of its sigma-successor (one colour per vertex) and not
    that of its alpha-partner (two colours per edge).

    Returns (map, colouring, squares): vertex colours of the new map and
    the set of its square-vertex indices.
    """
    edges = m.edges()
    colouring = list(colouring)
    counts = list(counts)
    if len(colouring) != m.n_vertices or set(colouring) - {0, 1}:
        raise BijectionError("colouring must give 0/1 per vertex")
    if len(counts) != len(edges):
        raise BijectionError("one subdivision count per edge required")
    sigma = list(m.sigma)
    alpha = list(m.alpha)
    dart_colour = list(map(colouring.__getitem__, m.vertex_of))
    for k, (d1, d2) in enumerate(edges):
        c = counts[k]
        col = dart_colour[d1]
        mono = col == dart_colour[d2]
        if c < 0 or c % 2 != (1 if mono else 0):
            raise BijectionError(
                f"edge {k} needs an {'odd' if mono else 'even'} count")
        if c == 0:
            continue
        prev = d1
        for _ in range(c):
            a, b = len(sigma), len(sigma) + 1
            sigma.extend((b, a))
            alpha.extend((prev, 0))  # alpha[b] is set by the next step
            alpha[prev] = a
            col = 1 - col
            dart_colour.extend((col, col))
            prev = b
        alpha[prev] = d2
        alpha[d2] = prev
    colour_of = dart_colour.__getitem__
    if (any(map(ne, map(colour_of, sigma), dart_colour))
            or any(map(eq, map(colour_of, alpha), dart_colour))):
        raise BijectionError("subdivision is not properly bicoloured")
    # bytes below 256 darts, which the constructor keeps without a type check
    m2 = RootedMap(_compact(alpha, len(alpha)), _compact(sigma, len(sigma)),
                   m.root)
    vertices = m2.vertices
    col2 = [dart_colour[cyc[0]] for cyc in vertices]
    squares = frozenset(i for i, cyc in enumerate(vertices)
                        if cyc[0] >= m.n_darts)
    return m2, col2, squares


def ising_erase(m: RootedMap, squares):
    """Erase a set of degree-2 vertices by splicing their two incident
    edges together; inverse of ising_subdivide."""
    n, vertices, old_sigma, old_alpha = m.n_darts, m.vertices, m.sigma, m.alpha
    on_square = bytearray(n)
    for v in squares:
        cyc = vertices[v]
        if len(cyc) != 2:
            raise BijectionError("square vertices must have degree 2")
        on_square[cyc[0]] = on_square[cyc[1]] = 1
    if on_square[m.root]:
        raise BijectionError("cannot erase the root vertex")
    kept = [d for d in range(n) if not on_square[d]]
    new_id = [0] * n
    for i, d in enumerate(kept):
        new_id[d] = i
    alpha = []
    for d in kept:
        a = old_alpha[d]
        while on_square[a]:
            a = old_alpha[old_sigma[a]]
        alpha.append(new_id[a])
    sigma = [new_id[old_sigma[d]] for d in kept]
    return RootedMap(_compact(alpha, len(kept)), _compact(sigma, len(kept)),
                     new_id[m.root])


def ising_series_identity(order: int = 4):
    """Both sides of the two-variable identity relating 2-coloured maps
    with subdivided edges to bipartite maps,

        M(2, t*v, t/(1 - t^2 v^2), w; x, 1) = B(t, v + w, w; x),

    each generated independently by brute force to the given order in t.
    Left side: the q = 2 Potts brute-force series, brute_force_gf of
    POTTS_MAPS, at y = 1, its [t^e nu^k] term placed at
    v^k t^k (t/(1 - t^2 v^2))^e.  Right side: bipartite maps by edges (t),
    with non-root degree-2 vertices weighted v + w and other non-root
    vertices w; x marks the root vertex degree.

    Returns (lhs, rhs) as series in t.
    """
    from tuttelab.equations import EquationId, brute_force_gf
    from tuttelab.generate import bipartite_maps
    from tuttelab.poly import MultiPoly
    from tuttelab.series import TSeries

    v = MultiPoly.var("v")
    w = MultiPoly.var("w")
    x = MultiPoly.var("x")
    # t/(1 - t^2 v^2) = sum_k t^(2k+1) v^(2k)
    edge_factor = TSeries("t", order, [
        v ** (k - 1) if k % 2 == 1 else MultiPoly.zero()
        for k in range(order + 1)])
    potts = brute_force_gf(EquationId.POTTS_MAPS, order, {"q": 2})
    lhs = TSeries("t", order, [])
    for e in range(order + 1):
        p = potts.coeff(e).subs({"y": 1})  # polynomial in nu, w, x
        pseries = TSeries("t", order, [p.coeff("nu", k) * v ** k
                                       for k in range(order + 1)])
        lhs = lhs + pseries * edge_factor ** e
    rhs = TSeries("t", order, [])
    tpow = TSeries.t("t", order)
    for e in range(order + 1):
        for m in bipartite_maps(e):
            rv = m.vertex_of[m.root] if not m.is_atomic else 0
            weight = x ** m.root_vertex_degree
            for i, cyc in enumerate(m.vertices):
                if i == rv:
                    continue
                weight = weight * ((v + w) if len(cyc) == 2 else w)
            rhs = rhs + tpow ** e * weight
    return lhs.truncate(order), rhs.truncate(order)
