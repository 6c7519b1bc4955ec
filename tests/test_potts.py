from tuttelab.generate import all_maps
from tuttelab.maps import RootedMap
from tuttelab.poly import MultiPoly
from tuttelab.potts import (chromatic_poly, duality_check, potts,
                            potts_by_interpolation, potts_from_tutte,
                            potts_subset_oracle, spanning_tree_count,
                            specializations, tutte)

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
    # the Tutte route must depend on tutte(), not recompute P another way
    import tuttelab.potts as potts_mod
    m = all_maps(2)[0]
    right = tutte(m)
    monkeypatch.setattr(potts_mod, "tutte", lambda _: 2 * right)
    assert potts_from_tutte(m) == 2 * potts(m)


def test_potts_is_embedding_independent():
    # distinct rooted maps over the same multigraph share the polynomial
    from tuttelab.potts import _canonical_multigraph
    groups = {}
    for m in all_maps(3):
        key = _canonical_multigraph(m.n_vertices, m.multigraph_edges())
        groups.setdefault(key, []).append(m)
    multi = [g for g in groups.values() if len(g) > 1]
    assert multi
    for g in multi:
        assert len({str(potts(m)) for m in g}) == 1


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
            if not m.has_loop():
                assert s["chromatic_poly"].degree("q") == m.n_vertices


def test_chromatic_small():
    assert chromatic_poly(RootedMap.loop()).is_zero()
    assert chromatic_poly(RootedMap.link()) == q * (q - 1)
    assert spanning_tree_count(RootedMap.link()) == 1
    assert spanning_tree_count(RootedMap.loop()) == 1
