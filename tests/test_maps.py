import pytest
from hypothesis import assume, given, settings, strategies as st

from tuttelab.bijections import mullin_decode
from tuttelab.generate import (LIST_CAP, all_bipolar_orientations, all_maps,
                               four_valent)
from tuttelab.maps import MapError, RootedMap, _orbits, _standard_alpha


@st.composite
def rooted_maps(draw, max_edges=LIST_CAP + 3):
    """The map of a random shuffle of two Dyck words (Mullin's encoding of
    tree-rooted maps), up to max_edges edges."""
    n = draw(st.integers(0, max_edges))
    left = {"a": draw(st.integers(0, n))}
    left["b"] = n - left["a"]
    depth = {"a": 0, "b": 0}
    word = []
    for _ in range(2 * n):
        ch = draw(st.sampled_from(
            [c for c in "ab" if left[c]]
            + [c.upper() for c in "ab" if depth[c]]))
        c = ch.lower()
        if ch == c:
            left[c] -= 1
            depth[c] += 1
        else:
            depth[c] -= 1
        word.append(ch)
    return mullin_decode("".join(word))[0]


@settings(deadline=None)
@given(rooted_maps())
def test_dual_is_an_involution(m):
    assert m.dual().dual() == m


@settings(deadline=None)
@given(rooted_maps())
def test_delete_inverts_insert(m):
    for k in range(m.root_face_degree + 1):
        assert m.insert_root_edge(k).delete_root_edge() == ("single", (m, k))


@settings(deadline=None)
@given(rooted_maps(max_edges=5), rooted_maps(max_edges=5))
def test_delete_inverts_join(m1, m2):
    joined = RootedMap.join_by_root_edge(m1, m2)
    assert joined.delete_root_edge() == ("pair", (m1, m2))


def walked_orbits(perm):
    """The cycles of perm, each from its least element, by least element."""
    seen, out = set(), []
    for d in range(len(perm)):
        if d not in seen:
            cyc = [d]
            while perm[cyc[-1]] != d:
                cyc.append(perm[cyc[-1]])
            seen.update(cyc)
            out.append(tuple(cyc))
    return out


def walked_statistics(m):
    """Every orbit statistic of m, by plain walks over its permutations."""
    if m.is_atomic:
        return {"vertices": [], "faces": [()], "vertex_of": [], "face_of": [],
                "n_vertices": 1, "n_faces": 1, "root_face": (),
                "root_face_degree": 0, "root_vertex_degree": 0}
    vertices = walked_orbits(m.sigma)
    faces = walked_orbits([m.sigma[m.alpha[d]] for d in range(m.n_darts)])
    vertex_of = [next(i for i, v in enumerate(vertices) if d in v)
                 for d in range(m.n_darts)]
    face_of = [next(i for i, f in enumerate(faces) if d in f)
               for d in range(m.n_darts)]
    root_face = faces[face_of[m.alpha[m.root]]]
    return {"vertices": vertices, "faces": faces, "vertex_of": vertex_of,
            "face_of": face_of, "n_vertices": len(vertices),
            "n_faces": len(faces), "root_face": root_face,
            "root_face_degree": len(root_face),
            "root_vertex_degree": len(vertices[vertex_of[m.root]])}


def assert_statistics_match_walks(m):
    expected = walked_statistics(m)
    names = list(expected)
    # two fresh copies, read in opposite orders, so that a statistic
    # computed on first use from a wrong or missing one shows
    for order in (names, names[::-1]):
        fresh = RootedMap(m.alpha, m.sigma, m.root)
        for name in order:
            assert getattr(fresh, name) == expected[name], name
        for name in order:
            assert getattr(fresh, name) == expected[name], name


def test_statistics_match_walks():
    for n in range(6):
        for m in all_maps(n):
            assert_statistics_match_walks(m)


@settings(deadline=None)
@given(rooted_maps())
def test_statistics_match_walks_on_random_maps(m):
    assert_statistics_match_walks(m)


def reference_walk(alpha, sigma, root):
    """code, n_vertices, n_faces and root_face_degree of a connected
    rotation system, each by its own walk: a breadth-first walk from root
    (sigma before alpha) for the code, one sweep over the darts for each
    orbit count, and a walk along the root face, the phi-orbit of
    alpha(root)."""
    label, order = {root: 0}, [root]
    for d in order:
        for e in (sigma[d], alpha[d]):
            if e not in label:
                label[e] = len(order)
                order.append(e)
    code = (len(alpha), *[label[sigma[d]] for d in order],
            *[label[alpha[d]] for d in order])
    phi = [sigma[alpha[d]] for d in range(len(alpha))]
    start, degree = alpha[root], 1
    d = phi[start]
    while d != start:
        d, degree = phi[d], degree + 1
    return {"code": code, "n_vertices": len(walked_orbits(sigma)),
            "n_faces": len(walked_orbits(phi)), "root_face_degree": degree,
            "bfs_labels": label}


@settings(deadline=None)
@given(rooted_maps(), st.sampled_from([list, tuple, bytes, bytearray]))
def test_one_walk_matches_separate_walks(m, kind):
    assume(not m.is_atomic)
    expected = reference_walk(list(m.alpha), list(m.sigma), m.root)
    for built in (m, RootedMap(kind(m.alpha), kind(m.sigma), m.root)):
        assert tuple(built.code) == expected["code"]
        for name in ("n_vertices", "n_faces", "root_face_degree"):
            assert getattr(built, name) == expected[name], name
        labels = built.bfs_labels()
        assert labels == expected["bfs_labels"]
        assert list(labels) == list(expected["bfs_labels"])


# (alpha, sigma, root, message) for each check of the constructor
REJECTED = [
    ((1, 0, 3, 2), (1, 2, 3), 0,
     "alpha and sigma must be permutations of an even dart set"),
    ((1, 0, 2), (1, 2, 0), 0,
     "alpha and sigma must be permutations of an even dart set"),
    ((), (), 0, "atomic map has root None"),
    ((1, 0, 3, 2), (1, 1, 3, 0), 0,
     "alpha and sigma must be permutations of 0..n_darts-1"),
    ((1, 0, 3, 2), (1, 4, 3, 0), 0,
     "alpha and sigma must be permutations of 0..n_darts-1"),
    ((1, 0, 0, 2), (1, 2, 3, 0), 0,
     "alpha and sigma must be permutations of 0..n_darts-1"),
    ((1, 2, 3, 0), (1, 2, 3, 0), 0,
     "alpha must be a fixed-point-free involution"),
    ((0, 1, 3, 2), (1, 2, 3, 0), 0,
     "alpha must be a fixed-point-free involution"),
    ((1, 0, 3, 2), (1, 2, 3, 0), 4, "root must be a dart"),
    ((1, 0, 3, 2), (1, 2, 3, 0), -1, "root must be a dart"),
    ((1, 0, 3, 2), (1, 2, 3, 0), None, "root must be a dart"),
    ((1, 0, 3, 2), (1, 2, 3, 0), True, "root must be a dart"),
    ((1, 0, 3, 2), (1, 2, 3, 0), 0.0, "root must be a dart"),
    ((1, 0, 3, 2), (0, 1, 2, 3), 0, "rotation system is not connected"),
    ((1, 0, 3, 2), (0, 1, 2, 3), 2, "rotation system is not connected"),
    # one vertex, two edges crossing at it: the torus
    ((1, 0, 3, 2), (2, 3, 1, 0), 0, "rotation system has positive genus"),
]


def bad_darts(n, value):
    """(alpha, sigma) on n darts, n even: the standard involution and the
    cycle (0 1 ... n-1), one vertex with n // 2 + 1 faces around it, but
    with value in place of sigma(0) = 1."""
    sigma = [(d + 1) % n for d in range(n)]
    sigma[0] = value
    return list(_standard_alpha(n)), sigma


@pytest.mark.parametrize("kind", [list, tuple, bytes, bytearray])
def test_every_rejection_for_every_container(kind):
    for alpha, sigma, root, message in REJECTED:
        with pytest.raises(MapError) as err:
            RootedMap(kind(alpha), kind(sigma), root)
        assert str(err.value) == message
    # a bool or a float dart, which bytes cannot hold, beside a
    # permutation of each kind
    typed = "darts must be of type int"
    for bad in ([1.0, 0.0, 3, 2], [True, False, 3, 2], (1, 0, 3.0, 2)):
        for alpha, sigma in ((bad, kind((1, 2, 3, 0))),
                             (kind((1, 0, 3, 2)), bad)):
            with pytest.raises(MapError, match=typed):
                RootedMap(alpha, sigma, 0)
    # a repeated or out-of-range dart on either side of 256 darts, where
    # the compact form turns from bytes to a tuple; bytes hold darts up to
    # 255, so 256 of them at most
    for n in (254, 256, 258):
        held = range(256) if kind in (bytes, bytearray) else range(-1, 301)
        if n - 1 not in held:
            continue
        for value in (2, n, -1, 300):
            if value in held:
                alpha, sigma = bad_darts(n, value)
                with pytest.raises(MapError, match="permutations of 0"):
                    RootedMap(kind(alpha), kind(sigma), 0)
        alpha, sigma = bad_darts(n, 1)
        assert RootedMap(kind(alpha), kind(sigma), 0).n_faces == n // 2 + 1


@settings(deadline=None)
@given(st.data())
def test_insertions_are_the_one_element_insertions(data):
    m = data.draw(rooted_maps())
    d = m.root_face_degree
    ks = data.draw(st.lists(st.integers(0, d), max_size=d + 3))
    children = m.insertions(ks)
    assert children == [m.insert_root_edge(k) for k in ks]
    assert [c.root_face_degree for c in children] == [k + 1 for k in ks]
    with pytest.raises(MapError, match="out of range"):
        m.insertions([*ks, d + 1])


def reference_insert(m, k):
    """(alpha, sigma, root) of m.insert_root_edge(k), as lists, by the
    convention of the maps module: the new root dart a follows the old root
    around its vertex, and b = alpha(a) lands k corners further along the
    root-face walk."""
    n = m.n_darts
    a, b = n, n + 1
    alpha = list(m.alpha) + [b, a]
    if m.is_atomic:
        return alpha, [1, 0], a
    sigma = list(m.sigma) + [0, 0]
    r = m.root
    s = sigma[r]
    if k == 0:
        sigma[r], sigma[a], sigma[b] = a, b, s
    elif k == m.root_face_degree:
        sigma[r], sigma[b], sigma[a] = b, a, s
    else:
        x = m.alpha[r]
        for _ in range(k):
            x = m.sigma[m.alpha[x]]
        p = m.alpha[x]
        sigma[r], sigma[a] = a, s
        sigma[b], sigma[p] = sigma[p], b
    return alpha, sigma, a


def reference_join(m1, m2):
    """(alpha, sigma, root) of RootedMap.join_by_root_edge(m1, m2), as
    lists: an isthmus from the root corner of m1 to that of m2."""
    n1, n2 = m1.n_darts, m2.n_darts
    a, b = n1 + n2, n1 + n2 + 1
    alpha = list(m1.alpha) + [x + n1 for x in m2.alpha] + [b, a]
    sigma = list(m1.sigma) + [x + n1 for x in m2.sigma] + [a, b]
    for r, d in ((m1.root, a), (None if m2.is_atomic else m2.root + n1, b)):
        if r is not None:
            sigma[d], sigma[r] = sigma[r], d
    return alpha, sigma, a


def test_surgery_matches_the_reference_across_256_darts():
    # parents of 252, 254 and 256 darts, so children of 254, 256 and 258
    big = bouquet(127)
    grown = bouquet(126).insertions([0, 1])[1].insertions([0, 1, 2])
    parents = [bouquet(126), big, big.insertions([1])[0], *grown]
    for m in parents:
        children = m.insertions(range(m.root_face_degree + 1))
        for k, child in enumerate(children):
            assert tuple(child.code) == reference_walk(
                *reference_insert(m, k))["code"]
    for m1, m2 in ((bouquet(63), bouquet(63)), (bouquet(63), bouquet(64)),
                   (big, RootedMap.atomic()), (RootedMap.atomic(), big),
                   (grown[2], RootedMap.loop()), (big, RootedMap.link())):
        joined = RootedMap.join_by_root_edge(m1, m2)
        assert tuple(joined.code) == reference_walk(
            *reference_join(m1, m2))["code"]
        assert type(joined.sigma) is (bytes if joined.n_darts < 256
                                      else tuple)


def separable_by_cut_vertices(m):
    """More than one block in the underlying multigraph, each loop a block
    of its own: a loop among two or more edges, or a cut vertex."""
    if m.is_atomic:
        return True
    edges = m.multigraph_edges()
    if len(edges) == 1:
        return False
    if any(u == v for u, v in edges):
        return True
    for cut in range(m.n_vertices):
        rest = [v for v in range(m.n_vertices) if v != cut]
        reached = {rest[0]}
        stack = [rest[0]]
        while stack:
            x = stack.pop()
            for u, v in edges:
                for a, b in ((u, v), (v, u)):
                    if a == x and b != cut and b not in reached:
                        reached.add(b)
                        stack.append(b)
        if len(reached) < len(rest):
            return True
    return False


def test_is_separable_matches_cut_vertices():
    for n in range(6):
        for m in all_maps(n):
            assert m.is_separable() == separable_by_cut_vertices(m)
            if 2 <= n <= 4:
                assert bool(all_bipolar_orientations(m)) \
                    == (not m.is_separable())


@settings(deadline=None)
@given(rooted_maps())
def test_is_separable_matches_cut_vertices_on_random_maps(m):
    assert m.is_separable() == separable_by_cut_vertices(m)


@settings(deadline=None)
@given(st.data())
def test_code_is_invariant_under_relabelling(data):
    m = data.draw(rooted_maps())
    perm = data.draw(st.permutations(range(m.n_darts)))
    alpha, sigma = [0] * m.n_darts, [0] * m.n_darts
    for d in range(m.n_darts):
        alpha[perm[d]] = perm[m.alpha[d]]
        sigma[perm[d]] = perm[m.sigma[d]]
    root = None if m.is_atomic else perm[m.root]
    assert RootedMap(alpha, sigma, root).code == m.code


def test_constructors():
    assert RootedMap.atomic().is_atomic
    assert RootedMap.loop().n_vertices == 1
    assert RootedMap.loop().n_faces == 2
    assert RootedMap.link().n_vertices == 2
    assert RootedMap.link().n_faces == 1


def test_validation():
    with pytest.raises(MapError):
        RootedMap([0, 1], [1, 0], 0)  # alpha has fixed points
    for root in (0, 2):
        with pytest.raises(MapError, match="not connected"):
            RootedMap([1, 0, 3, 2], [0, 1, 2, 3], root)
    with pytest.raises(MapError):
        RootedMap([1, 0], [0, 1], 5)  # root out of range
    for alpha, sigma, root in (([1.0, 0.0], [0, 1], 0), ([1, 0], [0, 1], 0.0),
                               ([True, False], [0, 1], 0),
                               ([1, 0], [0, 1], True)):
        with pytest.raises(MapError):
            RootedMap(alpha, sigma, root)
    with pytest.raises(MapError, match="type int"):
        RootedMap.from_json('{"n_darts":2,"alpha":[true,false],'
                            '"sigma":[0,1],"root":true}')
    # the standard alpha skips the permutation and involution checks of
    # alpha, but not the type check (1.0 == 1) nor the checks of sigma
    with pytest.raises(MapError, match="darts must be of type int"):
        RootedMap((1.0, 0.0, 3.0, 2.0), (1, 2, 3, 0), 0)
    with pytest.raises(MapError, match="alpha and sigma must be permutations"):
        RootedMap((1, 0, 3, 2), (1, 1, 3, 0), 0)


@st.composite
def rotation_systems(draw):
    """(alpha, sigma, root) on at most 10 darts.  alpha is the shared
    standard tuple, an equal list, a random matching or any permutation;
    sigma a permutation or any list, now and then one entry short; root any
    of -1..n_darts or None; and now and then one dart is a float or a bool."""
    n = 2 * draw(st.integers(0, 5))
    darts = list(range(n))
    kind = draw(st.sampled_from(["shared", "standard", "matching", "any"]))
    if kind == "shared":
        alpha = _standard_alpha(n)
    elif kind == "standard":
        alpha = [d ^ 1 for d in darts]
    elif kind == "matching":
        p = draw(st.permutations(darts))
        alpha = [0] * n
        for a, b in zip(p[::2], p[1::2]):
            alpha[a], alpha[b] = b, a
    else:
        alpha = draw(st.permutations(darts))
    if draw(st.integers(0, 3)):
        sigma = draw(st.permutations(darts))
    else:
        sigma = draw(st.lists(st.integers(0, max(n - 1, 0)),
                              min_size=n, max_size=n))
    if n and draw(st.integers(0, 7)) == 0:
        sigma = sigma[1:]
    root = draw(st.integers(-1, n)) if draw(st.integers(0, 7)) else None
    retype = draw(st.sampled_from([None] * 6 + [float, bool]))
    if retype and n:
        alpha, sigma = list(alpha), list(sigma)
        where = draw(st.sampled_from(["alpha", "sigma", "root"]))
        if where == "root":
            root = retype(root or 0)
        else:
            darts_of = alpha if where == "alpha" else sigma
            i = draw(st.integers(0, len(darts_of) - 1))
            darts_of[i] = retype(darts_of[i])
    return alpha, sigma, root


def reference_rejection(alpha, sigma, root):
    """The message the constructor must raise on (alpha, sigma, root), or
    None for a map: connectivity by union-find over the darts, genus 0 by
    Euler's relation on the orbit counts of sigma and phi = sigma o alpha."""
    n = len(alpha)
    if len(sigma) != n or n % 2:
        return "alpha and sigma must be permutations of an even dart set"
    if n == 0:
        return None if root is None else "atomic map has root None"
    if any(type(d) is not int for d in [*alpha, *sigma]):
        return "darts must be of type int"
    if sorted(alpha) != list(range(n)) or sorted(sigma) != list(range(n)):
        return "alpha and sigma must be permutations of 0..n_darts-1"
    if any(alpha[alpha[d]] != d or alpha[d] == d for d in range(n)):
        return "alpha must be a fixed-point-free involution"
    if type(root) is not int or not 0 <= root < n:
        return "root must be a dart"
    parent = list(range(n))

    def find(d):
        while parent[d] != d:
            d = parent[d]
        return d

    for d in range(n):
        for e in (sigma[d], alpha[d]):
            parent[find(e)] = find(d)
    if len({find(d) for d in range(n)}) > 1:
        return "rotation system is not connected"
    phi = [sigma[alpha[d]] for d in range(n)]
    if len(_orbits(sigma)) - n // 2 + len(_orbits(phi)) != 2:
        return "rotation system has positive genus"
    return None


@settings(deadline=None, max_examples=400)
@given(rotation_systems())
def test_constructor_matches_reference(system):
    alpha, sigma, root = system
    message = reference_rejection(alpha, sigma, root)
    if message is not None:
        with pytest.raises(MapError) as err:
            RootedMap(alpha, sigma, root)
        assert str(err.value) == message
        return
    m = RootedMap(alpha, sigma, root)
    if m.is_atomic:
        assert (m.n_vertices, m.n_faces) == (1, 1)
    else:
        assert (m.n_vertices, m.n_faces) == (len(m.vertices), len(m.faces))


def test_euler_formula():
    for n in range(5):
        for m in all_maps(n):
            assert m.n_vertices - m.n_edges + m.n_faces == 2


def test_json_roundtrip():
    for m in all_maps(3):
        assert RootedMap.from_json(m.to_json()) == m
    with pytest.raises(MapError):
        RootedMap.from_json("not json")
    with pytest.raises(MapError):
        RootedMap.from_json('{"alpha": [1, 0]}')


def test_code_is_label_invariant():
    m = RootedMap([1, 0, 3, 2], [0, 2, 1, 3], 0)
    perm = [2, 3, 0, 1]
    alpha = [0] * 4
    sigma = [0] * 4
    for d in range(4):
        alpha[perm[d]] = perm[m.alpha[d]]
        sigma[perm[d]] = perm[m.sigma[d]]
    assert RootedMap(alpha, sigma, perm[0]) == m
    assert m.relabelled() == m


def test_dual_involution():
    for m in all_maps(3):
        if m.is_atomic:
            continue
        d = m.dual()
        assert d.n_vertices == m.n_faces and d.n_faces == m.n_vertices
        assert d.dual() == m


def test_dual_shares_a_bytes_alpha():
    # the constructor keeps a bytes alpha or sigma it is given, so a radial
    # map and its dual hold one alpha; the few radial maps whose alpha is
    # the standard involution hold the shared tuple
    radials = [m for n in range(1, 5) for m in four_valent(n)]
    assert any(type(m.alpha) is bytes for m in radials)
    for m in radials:
        d = m.dual()
        assert d.alpha is m.alpha and d.dual().alpha is m.alpha
        assert RootedMap(m.alpha, m.sigma, m.root).sigma is m.sigma


def test_radial_is_4valent():
    for m in all_maps(3):
        if m.is_atomic:
            continue
        r = m.radial()
        assert r.is_4valent()
        assert r.n_vertices == m.n_edges
        assert r.dual().is_quadrangulation()


def test_root_edge_surgery():
    loop = RootedMap.loop()
    m = loop.insert_root_edge(1)
    assert m.n_edges == 2 and m.root_face_degree == 2
    kind, (m1, k) = m.delete_root_edge()
    assert kind == "single" and m1 == loop and m1.insert_root_edge(k) == m
    j = RootedMap.join_by_root_edge(loop, loop)
    assert j.n_edges == 3
    assert j.is_separable()
    kind, (a, b) = j.delete_root_edge()
    assert kind == "pair" and a == loop and b == loop


def test_predicates():
    assert RootedMap.link().is_bipartite()
    assert not RootedMap.loop().is_bipartite()
    assert RootedMap.loop().is_eulerian()
    assert not RootedMap.loop().is_separable()


def bouquet(loops):
    """loops nested loops at one vertex, by repeated insertion at index 0."""
    m = RootedMap.atomic()
    for _ in range(loops):
        m = m.insert_root_edge(0)
    return m


@pytest.mark.parametrize("kind", [list, tuple, bytes, bytearray])
def test_copies_of_the_standard_involution_store_the_shared_tuple(kind):
    # an alpha equal to the standard involution is stored as the one tuple
    # maps share, below 256 darts (where it is compared as bytes) and from
    # 256 up (as a tuple); bytes hold no dart above 255
    for n_darts in (2, 254, 256, 258):
        if kind in (bytes, bytearray) and n_darts > 256:
            continue
        m = bouquet(n_darts // 2)
        copy = RootedMap(kind(m.alpha), list(m.sigma), m.root)
        assert copy.alpha is _standard_alpha(n_darts)
        assert copy == m


def test_storage_on_both_sides_of_256_darts():
    # a map below 256 darts stores sigma, a non-standard alpha and code as
    # bytes, and a larger one as tuples; the surgery below crosses the
    # threshold and must come back across it
    radial = bouquet(63).radial()  # 252 darts, alpha not the standard one
    assert type(radial.alpha) is bytes
    grown = {252: radial}
    for n in (254, 256, 258):
        grown[n] = grown[n - 2].insert_root_edge(1)
    cases = []
    for n in (254, 256, 258):
        cases.append((bouquet(n // 2), ("single", (bouquet(n // 2 - 1), 0))))
        cases.append((grown[n], ("single", (grown[n - 2], 1))))
        left = (n - 2) // 4
        b1, b2 = bouquet(left), bouquet((n - 2) // 2 - left)
        cases.append((RootedMap.join_by_root_edge(b1, b2), ("pair", (b1, b2))))
    for m, deleted in cases:
        stored = bytes if m.n_darts < 256 else tuple
        assert type(m.code) is type(m.sigma) is stored
        # the standard involution stays the one tuple maps share
        standard = list(m.alpha) == [d ^ 1 for d in range(m.n_darts)]
        assert type(m.alpha) is (tuple if standard else stored)
        assert m.code[0] == m.n_darts and len(m.code) == 2 * m.n_darts + 1
        copies = (RootedMap.from_code(m.code), m.relabelled(),
                  RootedMap.from_json(m.to_json()),
                  RootedMap(list(m.alpha), list(m.sigma), m.root))
        for copy in copies:
            assert copy == m and hash(copy) == hash(m)
            assert copy.code == m.code and type(copy.code) is stored
        assert RootedMap.from_code(tuple(m.code)) == m
        assert m.delete_root_edge() == deleted
        assert m != deleted[1][0]
    assert len({m for m, _ in cases}) == len(cases)


def test_standard_alpha_is_never_evicted():
    # maps built before and after many dart counts share one standard tuple
    kept = [RootedMap.link(), bouquet(3)]
    for loops in range(1, 130):
        bouquet(loops)
    for m in kept + [bouquet(1), bouquet(3)]:
        assert m.alpha is _standard_alpha(m.n_darts)
