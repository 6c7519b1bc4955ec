import itertools
import tracemalloc
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import tuttelab.potts as potts_mod

from tuttelab.generate import all_bipolar_orientations, all_maps, four_valent
from tuttelab.maps import RootedMap
from tuttelab.poly import MultiPoly
from tuttelab.potts import (bipolar_count, chromatic_poly, duality_check,
                            potts, potts_by_interpolation, potts_from_tutte,
                            potts_subset_oracle, spanning_tree_count,
                            specializations, tutte)
from test_maps import bouquet, rooted_maps

q = MultiPoly.var("q")
nu = MultiPoly.var("nu")
mu = MultiPoly.var("mu")


def test_small_values():
    assert potts(RootedMap.atomic()) == q
    assert potts(RootedMap.loop()) == q * nu
    assert potts(RootedMap.link()) == q * (q + nu - 1)
    assert tutte(RootedMap.loop()) == nu
    assert tutte(RootedMap.link()) == mu


def test_three_methods_agree():
    for n in range(4):
        for m in all_maps(n):
            p = potts(m)
            assert p == potts_subset_oracle(m)
            assert p == potts_by_interpolation(m)
            assert p == potts_from_tutte(m)


def test_potts_from_tutte_reads_tutte(monkeypatch):
    # the Tutte route must depend on the Tutte memo, not recompute P another
    # way; its own memo is cleared on both sides of the patch
    m = all_maps(2)[0]
    right = tutte(m)
    potts_mod._potts_from_tutte_of_key.cache_clear()
    monkeypatch.setattr(potts_mod, "_tutte_of_key", lambda v, edges: 2 * right)
    try:
        assert potts_from_tutte(m) == 2 * potts(m)
    finally:
        potts_mod._potts_from_tutte_of_key.cache_clear()


def test_potts_key_is_the_labelled_multigraph(monkeypatch):
    # the memo key potts, the interpolation route, tutte and the Tutte route
    # read is the labelled multigraph of multigraph_edges, flattened, also
    # on radial maps, whose alpha is not the standard involution
    for memo in ("_potts_of_key", "_interpolated", "_tutte_of_key",
                 "_potts_from_tutte_of_key"):
        monkeypatch.setattr(potts_mod, memo, lambda v, edges: (v, edges))
    radials = [m for n in range(1, 5) for m in four_valent(n)]
    for m in [m for n in range(6) for m in all_maps(n)] + radials:
        v, edges = _labelled_key(m)
        key = (v, bytes(x for e in edges for x in e))
        assert potts(m) == potts_by_interpolation(m) == tutte(m) \
            == potts_from_tutte(m) == key


def test_potts_memo_is_lean():
    # bytes the memo holds per entry, keys and distinct polynomials included,
    # after potts over all_maps(5) from an empty memo; one pass first, so
    # that the interpreter's free lists are full before memory is counted
    maps = all_maps(5)
    for m in maps:
        potts(m)
    potts_mod._potts_of_key.cache_clear()
    potts_mod._distinct.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for m in maps:
            potts(m)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = potts_mod._potts_of_key.cache_info().currsize
    # measured at 164 (Python 3.11), bound about 20 % above
    assert held / entries < 196
    # the loop, isolated-vertex and pendant-edge rules fill 339 entries;
    # deletion-contraction alone filled 871
    assert entries <= 400


def _star(k):
    star = RootedMap.atomic()
    for _ in range(k):
        star = RootedMap.join_by_root_edge(star, RootedMap.atomic())
    return star


def test_potts_of_a_star_with_255_leaves():
    # 256 vertices: the key takes the tuple branch of maps._compact, and a
    # contraction in the recursion crosses back to bytes at 255 vertices
    star = _star(255)
    v, edges = potts_mod._key(star)
    assert v == star.n_vertices == 256 and type(edges) is tuple
    assert edges == tuple(x for e in _labelled_key(star)[1] for x in e)
    # any k of its edges on its 256 vertices are a forest with
    # P = q^(256 - k) (q + nu - 1)^k
    for k in range(1, 6):
        assert (potts_mod._potts_of_key(v, edges[-2 * k:])
                == q ** (v - k) * (q + nu - 1) ** k)
    # the whole star has P = q (q + nu - 1)^255, 32,896 terms: compared
    # at two rational points, exactly
    p = potts(star)
    assert p.degree("q") == 256
    for x, y in ((Fraction(3, 2), Fraction(-2, 5)),
                 (Fraction(-1, 3), Fraction(5, 7))):
        assert p.eval({"q": x, "nu": y}) == x * (x + y - 1) ** 255


def test_potts_of_a_star_takes_one_memo_entry():
    # the pendant-edge rule takes a star apart in one memo entry, whatever
    # its number of leaves; deletion-contraction alone took about k^2/2
    added = []
    for k in (16, 32, 64):
        before = potts_mod._potts_of_key.cache_info().misses
        assert potts(_star(k)) == q * (q + nu - 1) ** k
        added.append(potts_mod._potts_of_key.cache_info().misses - before)
    assert added == [1, 1, 1]


def test_potts_of_bouquets_across_256_darts():
    # a bouquet of k loops, on either side of 256 darts, is q nu^k
    for k in (127, 128, 129):
        m = bouquet(k)
        assert m.n_darts == 2 * k
        assert potts(m) == q * nu ** k


@settings(deadline=None)
@given(rooted_maps(max_edges=10))
def test_potts_matches_the_subset_expansion(m):
    # trees, pendant chains and loops at sizes the fixed tests never reach
    assert potts(m) == potts_subset_oracle(m)


def _labelled_key(m):
    return m.n_vertices, tuple(sorted(tuple(sorted(e))
                                      for e in m.multigraph_edges()))


def _isomorphism_key(m):
    # brute force: the smallest labelled key over all vertex relabellings
    v, edges = m.n_vertices, m.multigraph_edges()
    return v, min(tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges))
                  for p in itertools.permutations(range(v)))


def test_potts_is_embedding_independent():
    # maps over isomorphic multigraphs share the polynomial, also when the
    # vertices are labelled differently, and equal polynomials share one
    # object, so maps over one labelled multigraph do too
    groups = {}
    for m in all_maps(4):
        groups.setdefault(_isomorphism_key(m), []).append(m)
    relabelled = [g for g in groups.values()
                  if len({_labelled_key(m) for m in g}) > 1]
    assert relabelled
    for g in groups.values():
        assert len({str(potts(m)) for m in g}) == 1
        assert all(potts(m) is potts(g[0]) for m in g)


def _path(n):
    # dart 2i leaves vertex i and dart 2i + 1 enters vertex i + 1
    sigma = list(range(2 * n))
    for i in range(1, n):
        sigma[2 * i - 1], sigma[2 * i] = 2 * i, 2 * i - 1
    return RootedMap([d ^ 1 for d in range(2 * n)], sigma, 0)


def _cycle(n):
    # as the path, with vertex n glued to vertex 0
    sigma = [0] * (2 * n)
    for i in range(n):
        into = (2 * i - 1) % (2 * n)
        sigma[2 * i], sigma[into] = into, 2 * i
    return RootedMap([d ^ 1 for d in range(2 * n)], sigma, 0)


def test_potts_of_large_tree_and_cycle():
    # more vertices than an isomorphism search over all relabellings allows
    n = 10
    tree, cycle = _path(n), _cycle(n)
    assert (tree.n_vertices, cycle.n_vertices) == (n + 1, n)
    assert potts(tree) == q * (q + nu - 1) ** n
    assert potts(cycle) == (q + nu - 1) ** n + (q - 1) * (nu - 1) ** n
    for m in (tree, cycle):
        assert potts(m) == potts_subset_oracle(m)


def test_duality():
    for n in range(4):
        for m in all_maps(n):
            assert duality_check(m)


def test_specializations():
    for n in range(1, 4):
        for m in all_maps(n):
            s = specializations(m)
            assert s["spanning_tree_count"] == spanning_tree_count(m)
            assert s["chromatic_poly"] == chromatic_poly(m)
            if all(u != v for u, v in m.multigraph_edges()):
                assert s["chromatic_poly"].degree("q") == m.n_vertices


def test_bipolar_count_counts_the_orientations():
    assert bipolar_count(RootedMap.atomic()) == 0
    for n in range(1, 5):
        for m in all_maps(n):
            assert bipolar_count(m) == len(all_bipolar_orientations(m))


def test_chromatic_small():
    assert chromatic_poly(RootedMap.loop()).is_zero()
    assert chromatic_poly(RootedMap.link()) == q * (q - 1)
    assert spanning_tree_count(RootedMap.link()) == 1
    assert spanning_tree_count(RootedMap.loop()) == 1


def test_interpolation_is_memoised_on_the_labelled_multigraph():
    # maps rooted differently over one labelled multigraph share a result;
    # loops vs links and different vertex counts each get their own
    maps = all_maps(2)
    groups = {}
    for m in maps:
        groups.setdefault(_labelled_key(m), []).append(m)
    assert {v for v, _ in groups} == {1, 2, 3}
    assert (2, ((0, 0), (0, 1))) in groups and (2, ((0, 1), (0, 1))) in groups
    potts_mod._interpolated.cache_clear()
    for g in groups.values():
        first = potts_by_interpolation(g[0])
        assert first == potts(g[0])
        assert all(potts_by_interpolation(m) is first for m in g[1:])
    assert max(len(g) for g in groups.values()) > 1
    assert potts_mod._interpolated.cache_info().misses == len(groups)


@settings(deadline=None)
@given(st.data())
def test_graph_key_is_the_flattened_sorted_edges(data):
    # bytes below 256 vertices, one byte an end, and a tuple from 256 up
    v = data.draw(st.integers(1, 300))
    ends = data.draw(st.lists(st.integers(0, v - 1), max_size=12))
    ends = ends[:len(ends) // 2 * 2]
    pairs = sorted(tuple(sorted(ends[i:i + 2]))
                   for i in range(0, len(ends), 2))
    flat = [x for pair in pairs for x in pair]
    key = potts_mod._graph_key(v, ends)
    assert key == (v, bytes(flat) if v < 256 else tuple(flat))
