import hashlib

import pytest

from tuttelab import bijections
from tuttelab import closed_forms as cf
from tuttelab.bijections import (BijectionError, _closure_match,
                                 canonical_edges, corner_walk, cvs_backward,
                                 cvs_forward, ising_erase,
                                 ising_series_identity, ising_subdivide,
                                 mullin_decode, mullin_decompose,
                                 mullin_encode, phi_bar, phi_close, psi_open,
                                 tprime_degrees, tree_root_key,
                                 unbalanced_join, unbalanced_split)
from tuttelab.generate import (all_maps, all_spanning_trees, four_valent,
                               quadrangulations)
from tuttelab.maps import RootedMap
from tuttelab.trees import (FLOWER, LEAF, BlossomingTree, DyckShuffle,
                            LabelledTree)
from tuttelab.verify import roundtrip_cvs


def _greedy_closure_match(sigma, alpha, kind, start):
    """Reference closure: repeatedly join a flower to the leaf right after
    it on the cyclic contour and take both out, until no flower is left;
    returns (alpha2, unmatched leaves in contour order from start)."""
    cyc = [d for d in corner_walk(sigma, alpha, start) if d in kind]
    alpha2 = list(alpha)
    while any(kind[d] == FLOWER for d in cyc):
        i = next(i for i, f in enumerate(cyc) if kind[f] == FLOWER
                 and kind[cyc[(i + 1) % len(cyc)]] == LEAF)
        f, l = cyc[i], cyc[(i + 1) % len(cyc)]
        alpha2[f], alpha2[l] = l, f
        cyc.remove(f)
        cyc.remove(l)
    return alpha2, cyc


def test_closure_match_is_the_greedy_matching():
    for n in range(1, 5):
        for t in BlossomingTree.all_trees(n):
            sigma, alpha, kind, _ = t.to_darts()
            for start in range(len(sigma)):
                assert _closure_match(sigma, alpha, kind, start) \
                    == _greedy_closure_match(sigma, alpha, kind, start)


def test_open_close_identity():
    for n in range(1, 4):
        for m in four_valent(n):
            t = psi_open(m)
            assert t.n_nodes == n
            assert phi_close(t) == m


def test_psi_open_is_pinned():
    trees = "\n".join(psi_open(m).to_string()
                      for n in range(1, 6) for m in four_valent(n))
    assert hashlib.sha256(trees.encode()).hexdigest()[:16] \
        == "31a2d61345cea245"


def test_close_open_identity_on_balanced_trees():
    for n in range(1, 4):
        balanced = 0
        for t in BlossomingTree.all_trees(n):
            try:
                m = phi_close(t)
            except BijectionError:
                continue
            balanced += 1
            back = psi_open(m)
            assert back == t and hash(back) == hash(t)
        assert balanced == cf.balanced_blossoming_count(n)


def test_marked_closure_is_bijective():
    for n in range(1, 3):
        maps = four_valent(n)
        full = {(m.code, f) for m in maps for f in range(m.n_faces)}
        seen = set()
        for t in BlossomingTree.all_trees(n):
            for s in ("+", "-"):
                cm, fi = phi_bar(t, s)
                seen.add((cm.code, fi))
        assert seen == full


def test_marked_closure_balanced_plus_marks_root_face():
    for n in range(1, 3):
        for t in BlossomingTree.all_trees(n):
            try:
                m = phi_close(t)
            except BijectionError:
                continue
            cm, fi = phi_bar(t, "+")
            assert cm == m
            assert fi == cm.face_of[cm.root]


def test_unbalanced_split_join():
    for n in range(1, 4):
        for t in BlossomingTree.all_trees(n):
            try:
                phi_close(t)
                continue
            except BijectionError:
                pass
            pieces = unbalanced_split(t)
            assert sum(p.n_nodes for p in pieces) == n - 1
            assert unbalanced_join(*pieces) == t


def test_cvs_roundtrip():
    for n in range(1, 4):
        cnt = 0
        for q in quadrangulations(n):
            for v0 in range(q.n_vertices):
                try:
                    t = cvs_forward(q, v0)
                except BijectionError:
                    continue
                cnt += 1
                assert t.is_valid()
                assert cvs_backward(t) == (q, v0)
            # pointing at the root vertex gives a well-labelled tree
            assert cvs_forward(q, q.vertex_of[q.root]).is_valid(well=True)
        assert cnt == cf.labelled_tree_count(n)


def _counting_cvs_forward(monkeypatch):
    # a fresh table for cvs_backward, and a list that grows by one at each
    # cvs_forward call
    calls = []

    def counted(q, v0):
        calls.append((q, v0))
        return forward(q, v0)

    forward = bijections.cvs_forward
    monkeypatch.setattr(bijections, "_cvs_tables", {})
    monkeypatch.setattr(bijections, "cvs_forward", counted)
    return calls


def test_cvs_round_trip_is_one_forward_pass(monkeypatch):
    # the round trip runs cvs_forward once on each pointed quadrangulation,
    # and that pass fills the table that cvs_backward reads
    calls = _counting_cvs_forward(monkeypatch)
    for n in range(1, 5):
        assert roundtrip_cvs(n) == (cf.labelled_tree_count(n), None)
        assert len(calls) == (n + 2) * cf.quadrangulation_count(n)
        assert len({(q.code, v0) for q, v0 in calls}) == len(calls)
        del calls[:]
        for t in LabelledTree.all_labelled_trees(n):
            cvs_backward(t)
        assert not calls


def test_cvs_backward_alone_runs_one_pass(monkeypatch):
    calls = _counting_cvs_forward(monkeypatch)
    trees = LabelledTree.all_labelled_trees(3)
    pointings = {(q.code, v0) for q, v0 in map(cvs_backward, trees)}
    assert len(pointings) == len(trees) == cf.labelled_tree_count(3)
    assert len(calls) == 5 * cf.quadrangulation_count(3)


@pytest.mark.parametrize("fault", ["not injective", "invalid tree",
                                   "drops a pointing"])
def test_cvs_round_trip_catches_a_faulty_forward(monkeypatch, fault):
    forward = bijections.cvs_forward

    def faulty(q, v0):
        t = forward(q, v0)
        if fault == "not injective":
            return LabelledTree(1, [LabelledTree(2)] * q.n_faces)
        if fault == "invalid tree":
            return LabelledTree(t.label + 3, t.children)
        if v0 == q.n_vertices - 1:
            raise BijectionError("dropped")
        return t

    monkeypatch.setattr(bijections, "_cvs_tables", {})
    monkeypatch.setattr(bijections, "cvs_forward", faulty)
    assert all(roundtrip_cvs(n)[1] is not None for n in range(1, 5))


def test_labelled_trees_are_the_cvs_images():
    # the enumeration and the bijection agree tree by tree, not only in count
    for n in range(1, 5):
        images = set()
        for q in quadrangulations(n):
            for v0 in range(q.n_vertices):
                try:
                    images.add(cvs_forward(q, v0))
                except BijectionError:
                    pass
        assert set(LabelledTree.all_labelled_trees(n)) == images


def test_shuffles_are_the_mullin_words():
    for n in range(5):
        words = {mullin_encode(m, tr) for m in all_maps(n)
                 for tr in ([()] if m.is_atomic else all_spanning_trees(m))}
        shuffles = set()
        for i in range(n + 1):
            shuffles.update(DyckShuffle.all_shuffles(i, n - i))
        assert shuffles == words


def test_mullin_roundtrip():
    for n in range(4):
        for m in all_maps(n):
            trees = [()] if m.is_atomic else all_spanning_trees(m)
            for tr in trees:
                w = mullin_encode(m, tr)
                m2, tr2 = mullin_decode(w)
                assert tree_root_key(m2, tr2) == tree_root_key(m, tr)
                assert mullin_encode(m2, tr2) == w


def _reference_tree_root_key(m, tree):
    # the key with the labels and edges read again for each tree
    label = m.bfs_labels()
    edges = m.edges()
    return m.code, tuple(sorted(
        tuple(sorted((label[edges[e][0]], label[edges[e][1]])))
        for e in tree))


def test_tree_root_key_with_canonical_edges_read_once():
    # on the generated maps and on their decoded copies, whose darts are
    # numbered along the tour
    for n in range(5):
        for m in all_maps(n):
            edges = canonical_edges(m)
            for tr in [()] if m.is_atomic else all_spanning_trees(m):
                key = _reference_tree_root_key(m, tr)
                assert tree_root_key(m, tr, edges) == key
                assert tree_root_key(m, tr) == key
                m2, tr2 = mullin_decode(mullin_encode(m, tr))
                assert tree_root_key(m2, tr2) == key


def test_mullin_example_word():
    m, tr = mullin_decode(DyckShuffle("bbaaBBAbBA"))
    assert m.n_edges == 5 and len(tr) == 2
    assert m.n_vertices == 3  # tree edges + 1
    assert mullin_encode(m, tr).word == "bbaaBBAbBA"


def test_mullin_decompose_degrees():
    for n in range(1, 4):
        for m in all_maps(n):
            for tr in all_spanning_trees(m):
                _, tprime = mullin_decompose(m, tr)
                assert tprime_degrees(tprime) == m.vertex_degrees()


def test_ising_subdivide_erase():
    import itertools
    for n in range(1, 3):
        for m in all_maps(n):
            vo = m.vertex_of
            edges = m.edges()
            for col in itertools.product((0, 1), repeat=m.n_vertices):
                base = [1 if col[vo[d1]] == col[vo[d2]] else 0
                        for d1, d2 in edges]
                m2, col2, squares = ising_subdivide(m, col, base)
                assert m2.is_bipartite()
                assert ising_erase(m2, squares) == m


def _reference_ising_subdivide(m, colouring, counts):
    """ising_subdivide as it was first written: darts coloured in a dict,
    the bicolouring checked on the vertices of the result."""
    edges = m.edges()
    colouring = list(colouring)
    counts = list(counts)
    if len(colouring) != m.n_vertices or set(colouring) - {0, 1}:
        raise BijectionError("colouring must give 0/1 per vertex")
    if len(counts) != len(edges):
        raise BijectionError("one subdivision count per edge required")
    sigma = list(m.sigma)
    alpha = list(m.alpha)
    dart_colour = {d: colouring[m.vertex_of[d]] for d in range(m.n_darts)}
    for k, (d1, d2) in enumerate(edges):
        c = counts[k]
        mono = colouring[m.vertex_of[d1]] == colouring[m.vertex_of[d2]]
        if c < 0 or c % 2 != (1 if mono else 0):
            raise BijectionError(
                f"edge {k} needs an {'odd' if mono else 'even'} count")
        if c == 0:
            continue
        prev = d1
        col = colouring[m.vertex_of[d1]]
        for _ in range(c):
            a, b = len(sigma), len(sigma) + 1
            sigma.extend((b, a))
            alpha.extend((prev, None))
            alpha[prev] = a
            col = 1 - col
            dart_colour[a] = col
            dart_colour[b] = col
            prev = b
        alpha[prev] = d2
        alpha[d2] = prev
    m2 = RootedMap(alpha, sigma, m.root)
    col2 = [dart_colour[cyc[0]] for cyc in m2.vertices]
    for d in range(m2.n_darts):
        if col2[m2.vertex_of[d]] == col2[m2.vertex_of[m2.alpha[d]]]:
            raise BijectionError("subdivision is not properly bicoloured")
    squares = frozenset(i for i, cyc in enumerate(m2.vertices)
                        if cyc[0] >= m.n_darts)
    return m2, col2, squares


def _reference_ising_erase(m, squares):
    """ising_erase as it was first written, on sets and a dict."""
    squares = set(squares)
    sq_darts = set()
    for v in squares:
        if len(m.vertices[v]) != 2:
            raise BijectionError("square vertices must have degree 2")
        sq_darts.update(m.vertices[v])
    if m.vertex_of[m.root] in squares:
        raise BijectionError("cannot erase the root vertex")
    kept = [d for d in range(m.n_darts) if d not in sq_darts]
    new_id = {d: i for i, d in enumerate(kept)}
    alpha = []
    for d in kept:
        a = m.alpha[d]
        while a in sq_darts:
            a = m.alpha[m.sigma[a]]
        alpha.append(new_id[a])
    sigma = [new_id[m.sigma[d]] for d in kept]
    return RootedMap(alpha, sigma, new_id[m.root])


def _darts(m):
    return m.alpha, m.sigma, m.root


def _assert_subdivides_like_the_reference(m, col, counts):
    m2, col2, squares = ising_subdivide(m, col, counts)
    r2, rcol2, rsquares = _reference_ising_subdivide(m, col, counts)
    assert _darts(m2) == _darts(r2)
    assert col2 == rcol2 and squares == rsquares
    erased = ising_erase(m2, squares)
    assert _darts(erased) == _darts(_reference_ising_erase(r2, rsquares))
    return m2, squares


def test_ising_subdivide_and_erase_match_the_reference():
    # every (map, colouring, counts) triple of the verify row, <= 3 edges
    import itertools
    checked = 0
    for n in range(1, 4):
        for m in all_maps(n):
            vo = m.vertex_of
            edges = m.edges()
            for col in itertools.product((0, 1), repeat=m.n_vertices):
                base = [1 if col[vo[d1]] == col[vo[d2]] else 0
                        for d1, d2 in edges]
                for extra in itertools.product((0, 2), repeat=len(edges)):
                    counts = [b + e for b, e in zip(base, extra)]
                    _assert_subdivides_like_the_reference(m, col, counts)
                    checked += 1
    assert checked == 3004


def test_ising_subdivision_past_256_darts_matches_the_reference():
    # 3 edges and 2 * (99 + 30 + 0) new darts: 264 darts, stored as tuples
    m = next(m for m in all_maps(3) if m.n_vertices == 3)
    edges = m.multigraph_edges()
    col = (0, 1, 1)
    counts = [99 if col[u] == col[v] else 30 for u, v in edges]
    m2, squares = _assert_subdivides_like_the_reference(m, col, counts)
    assert m2.n_darts > 256 and type(m2.sigma) is tuple
    assert ising_erase(m2, squares) == m


def _message(fn, *args):
    with pytest.raises(BijectionError) as caught:
        fn(*args)
    return str(caught.value)


def test_ising_errors_match_the_reference():
    link = RootedMap.link()
    for col, counts in (((0, 2), [1]), ((0,), [1]), ((0, 1, 0), [0]),
                        ((0, 0), [1, 1]), ((0, 0), []), ((0, 0), [2]),
                        ((0, 1), [1]), ((0, 0), [-1]), ((0, 1), [-2])):
        assert (_message(ising_subdivide, link, col, counts)
                == _message(_reference_ising_subdivide, link, col, counts))
    # a square of degree 3, and the root vertex, of degree 2, as a square
    star = next(m for m in all_maps(3) if m.vertex_degrees() == [1, 1, 1, 3])
    centre = next(i for i, cyc in enumerate(star.vertices) if len(cyc) == 3)
    path = next(m for m in all_maps(2)
                if m.n_vertices == 3 and m.root_vertex_degree == 2)
    for m, squares, message in (
            (star, {centre}, "square vertices must have degree 2"),
            (path, {path.vertex_of[path.root]}, "cannot erase the root vertex")):
        assert _message(ising_erase, m, squares) == message
        assert _message(_reference_ising_erase, m, squares) == message


def test_ising_parity_enforced():
    link = RootedMap.link()
    with pytest.raises(BijectionError):
        # a monochromatic edge needs an odd subdivision count
        ising_subdivide(link, (0, 0), [2])


def test_ising_series_identity_small():
    lhs, rhs = ising_series_identity(3)
    assert lhs == rhs
