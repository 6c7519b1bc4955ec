import hashlib

import pytest

from tuttelab import closed_forms as cf
from tuttelab.bijections import (BijectionError, _closure_match,
                                 corner_walk, cvs_backward, cvs_forward,
                                 ising_erase, ising_series_identity,
                                 ising_subdivide, mullin_decode,
                                 mullin_decompose, mullin_encode, phi_bar,
                                 phi_close, psi_open, tprime_degrees,
                                 tree_root_key, unbalanced_join,
                                 unbalanced_split)
from tuttelab.generate import (all_maps, all_spanning_trees, four_valent,
                               quadrangulations)
from tuttelab.trees import (FLOWER, LEAF, BlossomingTree, DyckShuffle,
                            LabelledTree)


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


def test_ising_parity_enforced():
    from tuttelab.maps import RootedMap
    link = RootedMap.link()
    with pytest.raises(BijectionError):
        # a monochromatic edge needs an odd subdivision count
        ising_subdivide(link, (0, 0), [2])


def test_ising_series_identity_small():
    lhs, rhs = ising_series_identity(3)
    assert lhs == rhs
