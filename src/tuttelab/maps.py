"""Rooted planar maps as rotation systems.

A map on n_darts darts is a pair of permutations: alpha (a fixed-point-free
involution pairing the two darts of each edge) and sigma (counterclockwise
order of darts around each vertex).  Faces are the orbits of phi = sigma o
alpha.  The atomic map (one vertex, no edge) is the unique map with zero
darts and root None.

An instance stores alpha, root, its number of vertices, its root-face
degree and one buffer, _darts: sigma followed by the canonical code.
sigma and code are read as slices of that buffer, n_darts is len(alpha)
and n_faces is 2 - n_vertices + n_darts // 2, Euler's formula.  The
constructor checks that the darts of a list or tuple are integers, stores
alpha and sigma in the compact form below, and checks on that form that
they are permutations, alpha a fixed-point-free involution and root a
dart.  Then one walk over the darts does the rest, in breadth-first order
from the root: it labels the darts and writes the code, which covers
every dart exactly when the map is connected; it counts the cycles of
sigma and of phi, each at its first dart, whose counts satisfy Euler's
relation exactly when the map has genus 0, so the derived n_faces is the
number of faces walked; and it measures the root face, walked first,
whose degree the generators read from every parent map.  The orbit lists
and labellings (vertices, faces, vertex_of, face_of) are computed on first
use and kept, together in one list in one slot, and the root face is
read off the kept faces.
Instances are immutable.  Each read of sigma or code is a new slice, and
each read of a kept value a function call, so a loop binds them once.

sigma and alpha send each dart d to sigma[d] and alpha[d]; the code is
n_darts followed by the breadth-first labels of sigma, then of alpha, over
the darts in walk order.  Below 256 darts a map stores alpha and the
buffer as bytes, one byte an entry; from 256 darts up, as tuples of ints.
Both index and iterate as ints and compare lexicographically, so readers
need not know which they hold, and codes sort alike either way, by size
first.  Codes compare within one side of 256 darts only: a bytes code
never equals a tuple code, and the two cannot be ordered.  The standard
involution (1, 0, 3, 2, ...) is one tuple per dart count, shared by every
map whose alpha it is.  A map of all_maps(6) holds about 158 traced bytes
on Python 3.11: the instance, with six slots, and its buffer.

Conventions frozen here (and validated in the tests against the catalytic
functional equations):

* the root face is the phi-orbit of alpha(root);
* insert_root_edge(k) draws a new root edge inside the root face, starting
  in the corner just after the root dart, whose other end lands k corners
  further along the face walk (k = 0..root_face_degree); the result has
  root-face degree k + 1.  insertions(ks) gives the results for every k of
  ks from one walk along the root face, and insert_root_edge(k) is its
  one-element case;
* join_by_root_edge(m1, m2) adds an isthmus root edge between the root
  corners of m1 and m2; the result has root-face degree df(m1) + df(m2) + 2.

Every rooted map with at least one edge arises exactly once as an insertion
or a join, and delete_root_edge inverts both.  It reads each piece off by
the constructor's walk, numbered as its code numbers it, rooted at dart 0.

Connectivity is read off the faces, by two facts about a connected plane
map (half-edges, as in the blossoming trees of the bijections, included):

* (isthmus) an edge is an isthmus exactly when the same face lies on both
  of its sides;
* (separable) a map with at least one edge is separable exactly when some
  face visits some vertex at two corners.
"""

from __future__ import annotations

import json
from functools import lru_cache
from operator import eq, ne


class MapError(ValueError):
    pass


# maps with fewer darts store alpha and the buffer of sigma and code as bytes
_BYTE_DARTS = 256


def _compact(values, n):
    """values, ints in 0..n, as a map on n darts stores its darts and code:
    bytes when n < _BYTE_DARTS, so that each value fits a byte, and a tuple
    otherwise.  Given bytes with n < _BYTE_DARTS, returns that object
    itself; given a value that does not fit a byte there, raises
    ValueError."""
    return bytes(values) if n < _BYTE_DARTS else tuple(values)


@lru_cache(maxsize=None)
def _standard_alpha(n_darts):
    """The involution (1, 0, 3, 2, ...) on n_darts darts, shared by maps."""
    return tuple(d ^ 1 for d in range(n_darts))


@lru_cache(maxsize=None)
def _compact_standard(n_darts):
    """_compact of the standard involution on n_darts darts: what a copy of
    it reads as once the constructor has compacted it."""
    return _compact(_standard_alpha(n_darts), n_darts)


@lru_cache(maxsize=None)
def _shift_table(shift):
    """The bytes.translate table that adds shift to every byte below
    _BYTE_DARTS - shift."""
    return bytes(range(shift, _BYTE_DARTS)) + bytes(shift)


@lru_cache(maxsize=None)
def _dart_set(n_darts):
    """The darts 0..n_darts-1, as a frozenset, which a permutation's images
    form exactly when they are n_darts distinct values, each below n_darts
    and none negative."""
    return frozenset(range(n_darts))


_NOT_PERMUTATIONS = "alpha and sigma must be permutations of 0..n_darts-1"


def _orbits(perm):
    """The cycles of perm as tuples, each from its least element, ordered
    by least element."""
    n = len(perm)
    seen = [False] * n
    out = []
    for d in range(n):
        if not seen[d]:
            cyc = []
            e = d
            while not seen[e]:
                seen[e] = True
                cyc.append(e)
                e = perm[e]
            out.append(tuple(cyc))
    return out


def _cycle_labels(perm):
    """element -> index of its cycle in _orbits(perm)."""
    label = [-1] * len(perm)
    count = 0
    for d in range(len(perm)):
        if label[d] < 0:
            e = d
            while label[e] < 0:
                label[e] = count
                e = perm[e]
            count += 1
    return label


def _components(v, edges):
    """The number of connected components of the multigraph on vertices
    0..v-1 with the given (vertex, vertex) edges, by one union-find."""
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


def _walk(alpha, sigma, root):
    """One pass over the darts reachable from root, in the order of the
    breadth-first walk from root (sigma before alpha), which labels each
    dart it reaches by its position in the walk.  Returns the reached darts
    in walk order; the code, stored by _compact: n_darts, then
    label[sigma[d]] and then label[alpha[d]] for each reached dart d in walk
    order; the numbers of cycles of sigma and of phi = sigma o alpha met on
    the way, each counted at its first dart in walk order; and the length
    of the root face, the phi-orbit of alpha(root), walked first."""
    n = len(alpha)
    on_vertex = [False] * n
    on_face = [False] * n
    d = alpha[root]
    root_face_degree = 0
    while not on_face[d]:
        on_face[d] = True
        root_face_degree += 1
        d = sigma[alpha[d]]
    vertices, faces = 0, 1
    label = [-1] * n
    label[root] = 0
    order = [root]
    code = [n]
    alf = []
    for d in order:
        if not on_vertex[d]:
            vertices += 1
            e = d
            while not on_vertex[e]:
                on_vertex[e] = True
                e = sigma[e]
        if not on_face[d]:
            faces += 1
            e = d
            while not on_face[e]:
                on_face[e] = True
                e = sigma[alpha[e]]
        e = sigma[d]
        if label[e] < 0:
            label[e] = len(order)
            order.append(e)
        code.append(label[e])
        e = alpha[d]
        if label[e] < 0:
            label[e] = len(order)
            order.append(e)
        alf.append(label[e])
    code += alf
    return order, _compact(code, n), vertices, faces, root_face_degree


def _phi(m):
    """The face permutation sigma o alpha, as a list."""
    sigma = m.sigma
    return [sigma[a] for a in m.alpha]


# the number of values a map derives on first use and keeps in one list
_N_KEPT = 4


def _kept(i, compute):
    """A property whose value on a map m is compute(m), made on first read
    and kept at index i of the list in m's slot _derived, which the first
    read of any kept value makes."""
    def read(m):
        try:
            kept = m._derived
        except AttributeError:
            kept = m._derived = [None] * _N_KEPT
        value = kept[i]
        if value is None:
            value = kept[i] = compute(m)
        return value
    return property(read)


class RootedMap:
    """A rooted planar map.

    Set by the constructor: alpha, root, n_vertices, root_face_degree and
    the buffer _darts, sigma followed by the canonical code (the
    breadth-first relabelling from the root, so two maps have equal codes
    iff they are equal as rooted maps); sigma and code are slices of it,
    and n_darts, n_edges and n_faces are read off len(alpha) and
    n_vertices.  alpha and sigma may be given as lists, tuples, bytes or
    bytearrays.  The buffer and alpha (unless it is the shared standard
    involution) are bytes below 256 darts and tuples from 256 up; from_code
    takes either.  A bytes alpha given to the constructor is kept as it
    is, so m.dual() shares the alpha of m; sigma is copied into the
    buffer.
    Computed on first use and kept, in one list in the slot _derived:
    vertices (sigma-orbits, tuples of darts), faces (phi-orbits; [()] for
    the atomic map), vertex_of and face_of (dart -> index into vertices
    and faces).  root_face, the phi-orbit of alpha(root), is read off
    them.
    """

    __slots__ = ("alpha", "_darts", "root", "n_vertices", "root_face_degree",
                 "_derived")

    def __init__(self, alpha, sigma, root):
        n = len(alpha)
        if len(sigma) != n or n % 2:
            raise MapError("alpha and sigma must be permutations of an even dart set")
        if n == 0:
            if root is not None:
                raise MapError("atomic map has root None")
            self.alpha, self.root = (), None
            self._darts, self.n_vertices = _compact((0,), 0), 1
            self.root_face_degree = 0
            return
        standard = _standard_alpha(n)
        # bool is an int subclass and 1.0 == 1: both would pass the checks
        # below.  Bytes hold ints only, so for them this check is vacuous.
        # The shared standard tuple holds ints, so it is exempt, but a tuple
        # merely equal to it is not.
        for perm in (sigma,) if alpha is standard else (alpha, sigma):
            if (not isinstance(perm, (bytes, bytearray))
                    and set(map(type, perm)) != {int}):
                raise MapError("darts must be of type int")
        # every check below reads the compact form, which _compact refuses
        # to make of a value that does not fit a byte; a bytes input is kept
        # as it is, not copied
        try:
            sigma = _compact(sigma, n)
            if alpha is not standard:
                alpha = _compact(alpha, n)
        except ValueError:
            raise MapError(_NOT_PERMUTATIONS) from None
        # the standard involution needs no check, and maps share its tuple
        is_standard = alpha is standard or alpha == _compact_standard(n)
        if is_standard:
            alpha = standard
        darts = _dart_set(n)
        if not (is_standard or set(alpha) == darts) or set(sigma) != darts:
            raise MapError(_NOT_PERMUTATIONS)
        if not is_standard and (any(map(eq, alpha, range(n))) or any(
                map(ne, map(alpha.__getitem__, alpha), range(n)))):
            raise MapError("alpha must be a fixed-point-free involution")
        if type(root) is not int or not 0 <= root < n:
            raise MapError("root must be a dart")
        self.alpha, self.root = alpha, root
        (order, code, self.n_vertices, faces,
         self.root_face_degree) = _walk(alpha, sigma, root)
        self._darts = sigma + code
        if len(order) != n:
            raise MapError("rotation system is not connected")
        if self.n_vertices - n // 2 + faces != 2:
            raise MapError("rotation system has positive genus")

    # each read is a new slice of the buffer: a loop binds it once
    @property
    def sigma(self):
        return self._darts[:len(self.alpha)]

    @property
    def code(self):
        return self._darts[len(self.alpha):]

    vertices = _kept(0, lambda m: _orbits(m.sigma))
    faces = _kept(1, lambda m: _orbits(_phi(m)) if m.n_darts else [()])
    vertex_of = _kept(2, lambda m: _cycle_labels(m.sigma))
    face_of = _kept(3, lambda m: _cycle_labels(_phi(m)))

    @property
    def is_atomic(self) -> bool:
        return self.root is None

    # -- orbits and statistics -------------------------------------------

    @property
    def n_darts(self):
        return len(self.alpha)

    @property
    def n_edges(self):
        return len(self.alpha) // 2

    @property
    def n_faces(self):
        # Euler's formula, which the constructor checked against its count
        return 2 - self.n_vertices + len(self.alpha) // 2

    @property
    def root_vertex_degree(self):
        if self.is_atomic:
            return 0
        sigma, root = self.sigma, self.root
        d, k = sigma[root], 1
        while d != root:
            d, k = sigma[d], k + 1
        return k

    @property
    def root_face(self):
        if self.is_atomic:
            return ()
        return self.faces[self.face_of[self.alpha[self.root]]]

    def vertex_degrees(self):
        return sorted(len(c) for c in self.vertices) if not self.is_atomic else [0]

    def edges(self):
        """Edges as pairs (d, alpha(d)) with d < alpha(d)."""
        return [(d, self.alpha[d]) for d in range(self.n_darts) if d < self.alpha[d]]

    def multigraph_edges(self):
        """Edges as (vertex, vertex) pairs of the underlying multigraph."""
        vertex_of = self.vertex_of
        return [(vertex_of[d], vertex_of[a]) for d, a in self.edges()]

    # -- equality / canonical code -----------------------------------------

    def bfs_labels(self) -> dict:
        """dart -> its position in the breadth-first walk from the root
        (sigma before alpha), over the darts the walk reaches; the dict
        iterates in walk order.  Empty for the atomic map."""
        if self.is_atomic:
            return {}
        order = _walk(self.alpha, self.sigma, self.root)[0]
        return {d: i for i, d in enumerate(order)}

    def relabelled(self) -> "RootedMap":
        """The canonical representative: same map, darts in code order."""
        return RootedMap.from_code(self.code)

    def __eq__(self, other):
        if not isinstance(other, RootedMap):
            return NotImplemented
        return self.code == other.code

    def __hash__(self):
        return hash(self.code)

    def __repr__(self):
        if self.is_atomic:
            return "RootedMap.atomic()"
        return (f"RootedMap(alpha={list(self.alpha)}, "
                f"sigma={list(self.sigma)}, root={self.root})")

    @staticmethod
    def atomic() -> "RootedMap":
        return RootedMap((), (), None)

    @staticmethod
    def from_code(code) -> "RootedMap":
        n = code[0]
        if n == 0:
            return RootedMap.atomic()
        sig = code[1:1 + n]
        alf = code[1 + n:1 + 2 * n]
        return RootedMap(alf, sig, 0)

    # -- small standard maps -----------------------------------------------

    @staticmethod
    def loop() -> "RootedMap":
        return RootedMap(alpha=(1, 0), sigma=(1, 0), root=0)

    @staticmethod
    def link() -> "RootedMap":
        return RootedMap(alpha=(1, 0), sigma=(0, 1), root=0)

    # -- JSON wire format ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"n_darts": self.n_darts, "alpha": list(self.alpha),
                "sigma": list(self.sigma), "root": self.root}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @staticmethod
    def from_json_obj(obj) -> "RootedMap":
        try:
            n = obj["n_darts"]
            alpha, sigma, root = obj["alpha"], obj["sigma"], obj["root"]
        except (KeyError, TypeError) as exc:
            raise MapError(f"malformed map object: {exc}") from exc
        if not (isinstance(alpha, list) and isinstance(sigma, list)):
            raise MapError("alpha and sigma must be lists")
        if len(alpha) != n or len(sigma) != n:
            raise MapError("n_darts does not match permutation length")
        return RootedMap(alpha, sigma, root)

    @staticmethod
    def from_json(text: str) -> "RootedMap":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MapError(f"malformed map JSON: {exc}") from exc
        return RootedMap.from_json_obj(obj)

    # -- duality and the radial construction ---------------------------------

    def dual(self) -> "RootedMap":
        """The dual map: sigma* = sigma o alpha, alpha* = alpha, root* = alpha(root).

        Satisfies dual(dual(m)) == m, swaps the vertex and face degree
        multisets, and sends the root face of m to the root vertex of the
        dual (and vice versa).
        """
        if self.is_atomic:
            return self
        return RootedMap(self.alpha, _phi(self), self.alpha[self.root])

    def radial(self) -> "RootedMap":
        """The radial map: 4-valent, one vertex per edge of self.

        Dart 2d of the radial leaves the midpoint of the edge of d towards
        the corner (d, sigma(d)); dart 2d+1 towards the corner
        (sigma^-1(d), d).  The construction is injective on rooted maps and
        radial(atomic) = atomic.
        """
        if self.is_atomic:
            return self
        n = self.n_darts
        old_alpha, old_sigma = self.alpha, self.sigma
        inv = [0] * n  # sigma^-1
        for d, s in enumerate(old_sigma):
            inv[s] = d
        alpha = [0] * (2 * n)
        sigma = [0] * (2 * n)
        for d in range(n):
            # rotation at the midpoint of the edge carrying dart d
            sigma[2 * d] = 2 * d + 1
            sigma[2 * d + 1] = 2 * old_alpha[d]
            # radial edge across the corner (d, sigma(d))
            alpha[2 * d] = 2 * old_sigma[d] + 1
            alpha[2 * d + 1] = 2 * inv[d]
        return RootedMap(alpha, sigma, 2 * self.root + 1)

    # -- root-edge surgery -----------------------------------------------------

    def insert_root_edge(self, k: int) -> "RootedMap":
        """Add a new root edge inside the root face.

        The new edge starts in the corner just after the root dart; its
        other endpoint lands k corners further along the root-face walk,
        k in 0..root_face_degree.  The result has root-face degree k + 1.
        Inverted by delete_root_edge.
        """
        return self.insertions((k,))[0]

    def insertions(self, ks) -> list:
        """[self.insert_root_edge(k) for k in ks], from one walk along the
        root face.

        The new root dart a = n_darts follows the old root r around its
        vertex, and b = alpha(a) is put after a for k = 0, and otherwise
        after alpha(x_k), where x_0 = alpha(r) and x_k = phi(x_(k-1)) walk
        the root face; alpha(x_d) = r for the root-face degree d.  Below
        256 darts each child edits a bytearray copy of the parent's sigma.
        """
        d = self.root_face_degree
        ks = list(ks)
        for k in ks:
            if not 0 <= k <= d:
                raise MapError(f"insertion index {k} out of range 0..{d}")
        n = len(self.alpha)
        a, b = n, n + 1
        if self.alpha is _standard_alpha(n):
            alpha = _standard_alpha(n + 2)
        else:
            alpha = list(self.alpha) + [b, a]
        if not n:
            return [RootedMap(alpha, (1, 0), a) for _ in ks]
        r, sigma, old_alpha = self.root, self.sigma, self.alpha
        after = [a]  # after[k]: the dart that b follows for index k
        p = r
        for _ in range(max(ks, default=0)):
            p = old_alpha[sigma[p]]
            after.append(p)
        base = bytearray(n + 2) if n + 2 < _BYTE_DARTS else [0] * (n + 2)
        base[:n] = sigma
        base[r], base[a] = a, sigma[r]  # a follows r in every child
        children = []
        for k in ks:
            child = base.copy()
            p = after[k]
            child[b], child[p] = child[p], b
            children.append(RootedMap(alpha, child, a))
        return children

    @staticmethod
    def join_by_root_edge(m1: "RootedMap", m2: "RootedMap") -> "RootedMap":
        """Connect two maps by a new isthmus root edge.

        The new edge runs from the root corner of m1 to the root corner of
        m2; the result has root-face degree df(m1) + df(m2) + 2 and its root
        edge is an isthmus.  Inverted by delete_root_edge.  Below 256 darts
        the result's sigma is a bytearray: m1's sigma, then m2's shifted by
        n1 through a translation table.
        """
        s1, s2 = m1.sigma, m2.sigma  # read once each: each read is a slice
        n1, n2 = len(s1), len(s2)
        a, b = n1 + n2, n1 + n2 + 1
        if m1.alpha is _standard_alpha(n1) and m2.alpha is _standard_alpha(n2):
            alpha = _standard_alpha(n1 + n2 + 2)
        else:
            alpha = list(m1.alpha) + [x + n1 for x in m2.alpha] + [b, a]
        if b < _BYTE_DARTS:
            sigma = bytearray(s1)
            sigma += s2.translate(_shift_table(n1))
            sigma += b"\0\0"
        else:
            sigma = list(s1) + [x + n1 for x in s2] + [0, 0]
        if not n1:
            sigma[a] = a
        else:
            sigma[a] = sigma[m1.root]
            sigma[m1.root] = a
        if not n2:
            sigma[b] = b
        else:
            r2 = m2.root + n1
            sigma[b] = sigma[r2]
            sigma[r2] = b
        return RootedMap(alpha, sigma, a)

    def delete_root_edge(self):
        """Remove the root edge; the exact inverse of insertion and joining.

        Returns ("pair", (m1, m2)) when the root edge is an isthmus, with
        join_by_root_edge(m1, m2) == self, and ("single", (m, k)) otherwise,
        with m.insert_root_edge(k) == self.  The isthmus fact of the module
        docstring tells the cases apart, and k = root_face_degree - 1 since
        insertion at k gives root-face degree k + 1.  Each piece is numbered
        as its code numbers it, rooted at dart 0.
        """
        if self.is_atomic:
            raise MapError("cannot delete the root edge of the atomic map")
        alpha, sigma, a = self.alpha, self.sigma, self.root
        b = alpha[a]
        pred_a, pred_b = sigma.index(a), sigma.index(b)
        sig = list(sigma)
        for p in (pred_a, pred_b):  # splice a and b out of their rotations
            while p not in (a, b) and sig[p] in (a, b):
                sig[p] = sigma[sig[p]]
        face_of = self.face_of
        if face_of[a] == face_of[b]:
            # isthmus: two components, rooted at the predecessors of a and b
            m1 = _piece(alpha, sig, pred_a if pred_a != a else None)
            m2 = _piece(alpha, sig, pred_b if pred_b != b else None)
            return "pair", (m1, m2)
        # single map: recover the old root dart from the local pattern
        if pred_a == b:
            r = pred_b if pred_b != a else None
        else:
            r = pred_a
        return "single", (_piece(alpha, sig, r), self.root_face_degree - 1)

    # -- predicates -------------------------------------------------------------

    def is_bipartite(self) -> bool:
        """All faces have even degree (equivalently, vertices 2-colourable)."""
        return all(len(f) % 2 == 0 for f in self.faces)

    def is_eulerian(self) -> bool:
        """All vertices have even degree."""
        if self.is_atomic:
            return True
        return all(len(v) % 2 == 0 for v in self.vertices)

    def is_separable(self) -> bool:
        """Atomic, or obtainable by gluing two non-atomic maps at a vertex.

        Equivalent to the underlying multigraph having more than one block,
        where each loop counts as a block of its own; decided by the
        separable fact of the module docstring.
        """
        vertex_of = self.vertex_of
        return self.is_atomic or any(len({vertex_of[d] for d in f}) < len(f)
                                     for f in self.faces)

    def is_near_triangulation(self) -> bool:
        """All non-root faces have degree 3; the atomic map qualifies."""
        if self.is_atomic:
            return True
        rf = self.face_of[self.alpha[self.root]]
        return all(len(f) == 3 for i, f in enumerate(self.faces) if i != rf)

    def is_near_quadrangulation(self) -> bool:
        """All non-root faces have degree 4; the atomic map qualifies."""
        if self.is_atomic:
            return True
        rf = self.face_of[self.alpha[self.root]]
        return all(len(f) == 4 for i, f in enumerate(self.faces) if i != rf)

    def is_quadrangulation(self) -> bool:
        """All faces, the root face included, have degree 4."""
        return not self.is_atomic and all(len(f) == 4 for f in self.faces)

    def is_4valent(self) -> bool:
        return not self.is_atomic and all(len(v) == 4 for v in self.vertices)


def _piece(alpha, sigma, root) -> RootedMap:
    """The map on the darts that the walk from root reaches, numbered as its
    code numbers them and rooted at dart 0; the atomic map for root None."""
    if root is None:
        return RootedMap.atomic()
    order, code = _walk(alpha, sigma, root)[:2]
    return RootedMap.from_code([len(order), *code[1:]])
