import gc
import hashlib
import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from tuttelab import closed_forms as cf
from tuttelab import generate
from tuttelab.generate import (CapExceeded, all_bipolar_orientations,
                               all_maps, all_maps_oracle, all_spanning_trees,
                               bipartite_maps, eulerian_near_triangulations,
                               four_valent, graph_colouring_sum,
                               near_angulations, near_triangulations,
                               non_separable_near_triangulations,
                               quadrangulations)
from tuttelab.maps import MapError, RootedMap
from tuttelab.poly import MultiPoly
from tuttelab.potts import potts, spanning_tree_count

from test_maps import rooted_maps


def test_counts_match_formula():
    for n in range(5):
        assert len(all_maps(n)) == cf.maps_count(n)


def test_all_maps_distinct_and_sized():
    for n in range(4):
        maps = all_maps(n)
        assert len({m.code for m in maps}) == len(maps)
        assert all(m.n_edges == n for m in maps)


def _fill_free_lists():
    """Fill the interpreter's free lists of tuples (up to 2,000 of each
    length below 20), lists, dicts and floats, by freeing more of each than
    a list holds."""
    held = [tuple(range(size)) for size in range(1, 20) for _ in range(2100)]
    held += [[] for _ in range(100)]
    held += [{} for _ in range(100)]
    held += [float(i) for i in range(200)]
    del held


def test_generated_maps_are_lean():
    assert not hasattr(all_maps(3)[5], "__dict__")
    for listed in (all_maps, four_valent, quadrangulations):
        listed.cache_clear()  # each list below is built while measured
    for n in range(5):
        all_maps(n)
    for m in generate.stream("all_maps", 5):  # fill the potts memo
        potts(m)
    # one pass of each radial family first, so that the small caches of
    # the maps module hold their sizes before memory is counted
    for family in ("four_valent", "quadrangulations"):
        for m in generate.stream(family, 5):
            pass
    # what tracemalloc counts below must not depend on what ran before: a
    # full collection empties the interpreter's free lists, and objects
    # freed onto a list that has room stay counted, so the lists are filled
    # again and no collection runs while memory is counted
    gc.collect()
    gc.disable()
    _fill_free_lists()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        maps = all_maps(5)
        retained = tracemalloc.get_traced_memory()[0] - before
        for m in maps:
            potts(m)
        after_potts = tracemalloc.get_traced_memory()[0] - before
        radial = {}  # family -> bytes per map its list of size 5 holds
        for family in (four_valent, quadrangulations):
            start = tracemalloc.get_traced_memory()[0]
            listed = family(5)
            radial[family] = ((tracemalloc.get_traced_memory()[0] - start)
                              / len(listed))
            del listed
        # serving as the parents of the 6-edge stream leaves nothing on them
        start = tracemalloc.get_traced_memory()[0]
        for m in generate.stream("all_maps", 6):
            pass
        as_parents = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        gc.enable()
    # bytes per map, measured at 218 for all_maps(5), 301 for four_valent(5)
    # and 248 for quadrangulations(5), the duals of that list, which share
    # its alpha (Python 3.11); each bound is 28-31 % above the first two
    assert retained / len(maps) < 280
    assert radial[four_valent] < 395
    assert radial[quadrangulations] < 395
    # potts labels the vertices for itself and leaves nothing on the maps
    assert (after_potts - retained) / len(maps) < 8
    assert as_parents / len(maps) < 8


@pytest.mark.parametrize("family,args", [
    ("all_maps", ()), ("bipartite_maps", ()), ("near_angulations", (3,)),
    ("near_angulations", (4,)), ("quadrangulations", ()), ("four_valent", ()),
    ("near_triangulations", ()), ("eulerian_near_triangulations", ()),
    ("non_separable_near_triangulations", ())])
def test_stream_is_the_list_unsorted(family, args):
    # every family up to its cap, but the radial ones up to 6: a list of
    # their 208,494 maps of size 7 holds 1-1.5 kB a map
    listed = getattr(generate, family)
    top = (6 if family in ("quadrangulations", "four_valent")
           else generate.FAMILIES[family][1])
    for n in range(top + 1):
        codes = sorted(m.code for m in generate.stream(family, n, *args))
        assert codes == [m.code for m in listed(n, *args)]


# sha256 prefixes of repr([tuple(m.code) for m in maps]), in list order: the
# canonical codes the generator writes, which gen prints and every count
# and brute-force sum reads.  tuple() reads a code as its ints, whether the
# map stores it as bytes or as a tuple.
@pytest.mark.parametrize("family,args,digest", [
    (all_maps, (0,), "78fce9491f4b0e3b"),
    (all_maps, (1,), "641630098975874f"),
    (all_maps, (2,), "15102f44510ecb74"),
    (all_maps, (3,), "5d7de870689e38cb"),
    (all_maps, (4,), "9963cdbeae93c997"),
    (all_maps, (5,), "92f574142bc368f7"),
    (all_maps, (6,), "452a923db38771db"),
    (bipartite_maps, (6,), "ef910dfac2999217"),
    (near_angulations, (7, 3), "076d1c5682df042d"),
    (quadrangulations, (5,), "e9a90b16ecd1a12a"),
    (four_valent, (5,), "fe0695d4914c0048"),
    (near_triangulations, (7,), "b62622fff47219d1"),
    (eulerian_near_triangulations, (2,), "bc5fec2e5a59e28e"),
    (non_separable_near_triangulations, (3,), "4f6bdfb611c139fd")])
def test_generated_codes_are_pinned(family, args, digest):
    codes = [tuple(m.code) for m in family(*args)]
    assert hashlib.sha256(repr(codes).encode()).hexdigest()[:16] == digest


def test_cap():
    with pytest.raises(CapExceeded):
        all_maps(8)
    with pytest.raises(CapExceeded):
        near_angulations(8, 3)
    with pytest.raises(KeyError):  # not a family
        generate.stream("widgets", 2)


def test_family_caps_checked_before_generation(monkeypatch):
    def no_generation(*args, **kwargs):
        raise AssertionError("generation started on the capped path")

    for name in ("_root_edge_recursion", "near_angulations", "all_maps"):
        monkeypatch.setattr(generate, name, no_generation)
    monkeypatch.setattr(RootedMap, "__init__", no_generation)
    for family, n, message in (
            (all_maps, 8, "all_maps cap is 7 edges (asked for 8)"),
            (lambda n: generate.stream("all_maps", n), 8,
             "all_maps cap is 7 edges (asked for 8)"),
            (lambda n: generate.stream("near_angulations", n, 3), 8,
             "near_angulations cap is 7 edges (asked for 8)"),
            (lambda n: generate.stream("bipartite_maps", n), 8,
             "bipartite_maps cap is 7 edges (asked for 8)"),
            (lambda n: generate.stream("quadrangulations", n), 8,
             "quadrangulations cap is 7 faces (asked for 8)"),
            (lambda n: generate.stream("four_valent", n), 8,
             "four_valent cap is 7 vertices (asked for 8)"),
            (lambda n: generate.stream("near_triangulations", n), 8,
             "near_triangulations cap is 7 edges (asked for 8)"),
            (lambda n: generate.stream("eulerian_near_triangulations", n), 3,
             "eulerian_near_triangulations cap is 2 black faces (asked for 3)"),
            (lambda n: generate.stream("non_separable_near_triangulations",
                                       n), 4,
             "non_separable_near_triangulations cap is 3 inner faces "
             "(asked for 4)"),
            (near_triangulations, 8,
             "near_triangulations cap is 7 edges (asked for 8)"),
            (non_separable_near_triangulations, 4,
             "non_separable_near_triangulations cap is 3 inner faces "
             "(asked for 4)"),
            (eulerian_near_triangulations, 3,
             "eulerian_near_triangulations cap is 2 black faces (asked for 3)"),
            (bipartite_maps, 8, "bipartite_maps cap is 7 edges (asked for 8)"),
            (quadrangulations, 8,
             "quadrangulations cap is 7 faces (asked for 8)"),
            (four_valent, 8, "four_valent cap is 7 vertices (asked for 8)")):
        with pytest.raises(CapExceeded) as err:
            family(n)
        assert str(err.value) == message


def test_negative_sizes_raise():
    for family in (all_maps, bipartite_maps, near_triangulations,
                   eulerian_near_triangulations,
                   non_separable_near_triangulations, quadrangulations,
                   four_valent, lambda n: near_angulations(n, 3),
                   lambda n: generate.stream("all_maps", n)):
        with pytest.raises(ValueError):
            family(-1)


def test_near_angulations_match_filter():
    # the root-edge recursion against a filter over every map
    for n in range(8):
        maps = all_maps(n)
        assert near_angulations(n, 3) == [m for m in maps
                                          if m.is_near_triangulation()]
        assert near_angulations(n, 4) == [m for m in maps
                                          if m.is_near_quadrangulation()]
        assert bipartite_maps(n) == [m for m in maps if m.is_bipartite()]


def test_near_triangulation_streams_build_each_map_once(monkeypatch):
    # the sizes below the top are read from the memoised lists, so each
    # near-triangulation with at most 7 edges is built once
    built = 0
    recursion = generate._root_edge_recursion

    def counted(family, n, *args, parents=False):
        nonlocal built
        for m in recursion(family, n, *args, parents=parents):
            built += m.n_edges == n  # a parent counts where it is built
            yield m

    monkeypatch.setattr(generate, "_root_edge_recursion", counted)
    for listed in (near_angulations, near_triangulations,
                   non_separable_near_triangulations):
        listed.cache_clear()
    for _ in generate.stream("non_separable_near_triangulations", 3):
        pass
    assert built == 2680
    assert sum(len(near_angulations(e, 3)) for e in range(8)) == 2680


def test_stream_reads_a_held_list(monkeypatch):
    # a list that the memo holds is streamed as it is, with no map built
    held = all_maps(4)

    def no_building(*args, **kwargs):
        raise AssertionError("a held list was built again")

    monkeypatch.setattr(generate, "_root_edge_recursion", no_building)
    monkeypatch.setattr(RootedMap, "__init__", no_building)
    assert list(generate.stream("all_maps", 4)) == held
    assert all(a is b for a, b in zip(generate.stream("all_maps", 4), held))


def _constructions(monkeypatch):
    """A list that grows by one for each RootedMap constructed."""
    built, init = [], RootedMap.__init__

    def counted(self, *args):
        built.append(None)
        init(self, *args)

    monkeypatch.setattr(RootedMap, "__init__", counted)
    return built


def test_all_maps_builds_each_map_once_and_lists_no_parent(monkeypatch):
    # from an empty memo, the 6-edge list is built from the lists of 0 to 4
    # edges and one pass over a stream of the 5-edge maps, which is not held
    all_maps.cache_clear()
    built = _constructions(monkeypatch)
    assert len(all_maps(6)) == 24057
    assert len(built) == sum(cf.maps_count(e) for e in range(7)) == 27417
    assert ("all_maps", 5) not in generate._LISTS
    assert all(("all_maps", e) in generate._LISTS for e in (0, 1, 2, 3, 4, 6))


def test_brute_force_reads_its_two_top_sizes_off_one_pass(monkeypatch):
    from tuttelab.equations import EquationId, brute_force_gf
    all_maps.cache_clear()
    built = _constructions(monkeypatch)
    series = brute_force_gf(EquationId.MAPS_1CAT, 6)
    assert [series.coeff(n).eval({"y": 1}) for n in range(7)] == [
        cf.maps_count(n) for n in range(7)]
    assert len(built) == 27417
    assert not {("all_maps", 5), ("all_maps", 6)} & set(generate._LISTS)


# every family that up_to serves: near_triangulations(n) holds every size
_UP_TO = [("all_maps", ()), ("bipartite_maps", ()), ("near_angulations", (3,)),
          ("near_angulations", (4,)), ("quadrangulations", ()),
          ("four_valent", ()), ("eulerian_near_triangulations", ()),
          ("non_separable_near_triangulations", ())]


@pytest.mark.parametrize("family,args", _UP_TO)
def test_up_to_is_the_lists_tagged_by_size(family, args, monkeypatch):
    # from an empty memo, so that no top size is read from a held list
    monkeypatch.setattr(generate, "_LISTS", {})
    listed = getattr(generate, family)
    for n in range(min(5, generate.FAMILIES[family][1]) + 1):
        got = [(e, m.code) for e, m in generate.up_to(family, n, *args)]
        assert sorted(got) == [(e, m.code) for e in range(n + 1)
                               for m in listed(e, *args)]


@pytest.mark.parametrize("family,args", _UP_TO[:4])
def test_up_to_puts_each_parent_before_its_children(family, args,
                                                    monkeypatch):
    # a map of the top size is an insertion into a parent, a join of a
    # parent with the atomic map, or a join of two maps with edges; the
    # memo is empty, so that no top size is read from a held list
    monkeypatch.setattr(generate, "_LISTS", {})
    for n in range(1, 6):
        met = set()
        for e, m in generate.up_to(family, n, *args):
            if e < n:
                met.add(m.code)
                continue
            kind, (a, b) = m.delete_root_edge()
            parent = (a if kind == "single" or b.is_atomic
                      else b if a.is_atomic else None)
            assert parent is None or parent.code in met


def test_up_to_reads_a_held_top_list(monkeypatch):
    below = [(e, m) for e in range(4) for m in all_maps(e)]
    held = [(4, m) for m in all_maps(4)]

    def no_building(*args, **kwargs):
        raise AssertionError("a held list was built again")

    monkeypatch.setattr(RootedMap, "__init__", no_building)
    assert list(generate.up_to("all_maps", 4)) == below + held


def test_up_to_checks_the_cap_before_any_map_is_built(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on the capped path")

    for name, _ in _UP_TO:
        monkeypatch.setattr(generate, name, no_work)
    for name in ("_root_edge_recursion", "stream"):
        monkeypatch.setattr(generate, name, no_work)
    monkeypatch.setattr(RootedMap, "__init__", no_work)
    for family, args in _UP_TO:
        with pytest.raises(CapExceeded):
            generate.up_to(family, generate.FAMILIES[family][1] + 1, *args)


def test_near_triangulations_hold_no_list_of_size_n_minus_1(monkeypatch):
    # from an empty memo, near_triangulations(7) reads the lists up to 5
    # edges and builds the 6- and 7-edge maps from one pass, each map once
    monkeypatch.setattr(generate, "_LISTS", {})
    built = _constructions(monkeypatch)
    assert len(near_triangulations(7)) == 2680
    assert len(built) == 2680
    assert set(generate._LISTS) == {("near_angulations", e, 3)
                                    for e in range(6)} | {
                                        ("near_triangulations", 7)}


def test_bipartite_maps_build_no_other_maps(monkeypatch):
    def no_all_maps(n, *args, **kwargs):
        raise AssertionError(f"all_maps({n}) called")

    monkeypatch.setattr(generate, "all_maps", no_all_maps)
    bipartite_maps.cache_clear()  # build every size again under the patch
    # 3 * 2^(n-1) * (2n)! / (n! (n+2)!) rooted bipartite maps with n edges
    assert len(bipartite_maps(7)) == 9152


def test_family_invariants():
    for m in bipartite_maps(3):
        assert m.is_bipartite() and m.n_edges == 3
    for n in range(6):
        for m in quadrangulations(n):
            assert m.is_quadrangulation() and m.n_faces == n
    for m in four_valent(2):
        assert m.is_4valent() and m.n_vertices == 2
    for m in near_triangulations(4):
        assert m.is_near_triangulation()
    for m in eulerian_near_triangulations(1):
        assert m.is_eulerian() and m.is_near_triangulation()
        assert m.n_edges == 3


def test_quadrangulation_counts():
    for n in range(1, 5):
        assert len(quadrangulations(n)) == cf.quadrangulation_count(n)


def test_spanning_trees_match_tutte():
    for n in range(1, 4):
        for m in all_maps(n):
            assert len(all_spanning_trees(m)) == spanning_tree_count(m)
    with pytest.raises(MapError):
        all_spanning_trees(RootedMap.atomic())


def test_bipolar_orientations():
    # a loop admits none; the link admits exactly one
    assert all_bipolar_orientations(RootedMap.loop()) == []
    assert len(all_bipolar_orientations(RootedMap.link())) == 1


def _bipolar_by_filter(m):
    """Every one of the 2^e orientations, in itertools.product order, kept
    when its only source is s, its only sink is t and repeated source
    removal reaches every vertex: the reference for the pruned search."""
    edges, vg, v = m.edges(), m.multigraph_edges(), m.n_vertices
    s, t = m.vertex_of[m.root], m.vertex_of[m.alpha[m.root]]
    if any(a == b for a, b in vg) or s == t:
        return []
    out = []
    for heads in itertools.product((0, 1), repeat=len(edges)):
        arcs = [(u, w) if h else (w, u) for (u, w), h in zip(vg, heads)]
        indeg, outdeg = [0] * v, [0] * v
        for u, w in arcs:
            outdeg[u] += 1
            indeg[w] += 1
        if [x for x in range(v) if not indeg[x]] != [s] \
                or [x for x in range(v) if not outdeg[x]] != [t]:
            continue
        removed, stack = 0, [s]
        while stack:
            u = stack.pop()
            removed += 1
            for a, w in arcs:
                if a == u:
                    indeg[w] -= 1
                    if not indeg[w]:
                        stack.append(w)
        if removed == v:
            out.append(tuple(e[h] for e, h in zip(edges, heads)))
    return out


@settings(deadline=None)
@given(rooted_maps(max_edges=7))
def test_pruned_bipolar_search_is_the_filter(m):
    assume(not m.is_atomic)
    assert all_bipolar_orientations(m) == _bipolar_by_filter(m)


def test_pruned_bipolar_search_on_near_triangulations():
    for e in range(1, 7):
        for m in near_angulations(e, 3):
            assert all_bipolar_orientations(m) == _bipolar_by_filter(m)


def test_colouring_sum_matches_potts():
    for n in range(3):
        for m in all_maps(n):
            assert graph_colouring_sum(m.n_vertices, m.multigraph_edges(),
                                       3).eval({"nu": 2}) \
                == potts(m).eval({"q": 3, "nu": 2})


def _colouring_sum_over_all_colourings(v, edges, q, nu):
    # every one of the q^v colourings, the reference for the sum that fixes
    # the colour of vertex 0
    counts = {}
    for col in itertools.product(range(q), repeat=v):
        mono = sum(1 for a, b in edges if col[a] == col[b])
        counts[mono] = counts.get(mono, 0) + 1
    if nu is None:
        return MultiPoly(("nu",), {(k,): c for k, c in counts.items()})
    return sum(c * Fraction(nu) ** k for k, c in counts.items())


def test_colouring_sum_fixes_one_colour():
    graphs = [(0, [])] + [(m.n_vertices, m.multigraph_edges())
                          for n in range(4) for m in all_maps(n)]
    for v, edges in graphs:
        for q in (1, 2, 3):
            fixed = graph_colouring_sum(v, edges, q)
            for nu in (None, Fraction(-2, 3), 0):
                got = fixed if nu is None else fixed.eval({"nu": nu})
                assert got == _colouring_sum_over_all_colourings(v, edges, q,
                                                                 nu)
    assert graph_colouring_sum(0, [], 3) == MultiPoly.one()
    assert graph_colouring_sum(0, [], 3).eval({"nu": 5}) == 1


def test_proper_colourings_of_an_edge():
    m = RootedMap.link()
    # proper colourings of a single edge with q colours: q(q-1)
    q = MultiPoly.var("q")
    assert potts(m).subs({"nu": 0}) == q * (q - 1)
    assert graph_colouring_sum(m.n_vertices, m.multigraph_edges(),
                               3).eval({"nu": 0}) == 6


def _unrestricted_oracle_codes(n):
    # every sigma on 2n darts, alpha = (0 1)(2 3)..., root 0, by code
    alpha = [d ^ 1 for d in range(2 * n)]
    codes = set()
    for sigma in itertools.permutations(range(2 * n)):
        try:
            codes.add(RootedMap(alpha, sigma, 0).code)
        except MapError:
            continue
    return sorted(codes)


def test_oracle_loses_no_map_to_its_restriction():
    # the oracle reads only the rotation systems that are their own
    # breadth-first labelling, not every sigma against a fixed alpha
    for n in range(1, 4):
        assert [m.code for m in all_maps_oracle(n)] \
            == _unrestricted_oracle_codes(n)


def test_oracle_equals_generator():
    for n in range(6):
        assert [m.code for m in all_maps_oracle(n)] \
            == [m.code for m in all_maps(n)]


def _double_factorial(k):
    return 1 if k < 1 else k * _double_factorial(k - 2)


def test_oracle_enumerates_the_rooted_maps_of_all_genera():
    # before the genus filter, one rotation system per rooted map of any
    # genus with n edges: a(n + 1) of OEIS A000698, where a(0) = 1 and
    # a(n) = (2n-1)!! - sum_{k=1}^{n-1} (2k-1)!! a(n-k)
    a = [1]
    for n in range(1, 7):
        a.append(_double_factorial(2 * n - 1)
                 - sum(_double_factorial(2 * k - 1) * a[n - k]
                       for k in range(1, n)))
    assert a[2:] == [2, 10, 74, 706, 8162]
    for n in range(1, 6):
        systems = list(generate._self_labelled_systems(n))
        assert len(systems) == len(set(systems)) == a[n + 1]


def test_oracle_never_reads_the_root_edge_recursion(monkeypatch):
    def no_recursion(*args, **kwargs):
        raise AssertionError("the oracle read the root-edge recursion")

    for name in ("_root_edge_recursion", "stream", "all_maps"):
        monkeypatch.setattr(generate, name, no_recursion)
    assert [len(all_maps_oracle(n)) for n in range(6)] \
        == [cf.maps_count(n) for n in range(6)]


def test_oracle_cap():
    with pytest.raises(CapExceeded) as err:
        all_maps_oracle(6)
    assert str(err.value) == "oracle cap is 5 edges (asked for 6)"
