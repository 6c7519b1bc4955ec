"""End-to-end acceptance checks, one test per criterion.

Every equality is exact (integers, rationals, polynomials); there are no
tolerances anywhere.
"""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

from tuttelab import closed_forms as cf
from tuttelab.generate import all_maps, all_maps_oracle, four_valent
from tuttelab.potts import (potts, potts_by_interpolation, potts_from_tutte,
                            potts_subset_oracle, spanning_tree_count)
from tuttelab.trees import BlossomingTree


def test_01_map_counts():
    expected = [1, 2, 9, 54, 378, 2916, 24057]
    for n, want in enumerate(expected):
        assert cf.maps_count(n) == want
        assert len(all_maps(n)) == want
        if n <= 5:
            assert len(all_maps_oracle(n)) == want


def test_02_potts_three_ways():
    for n in range(5):
        for m in all_maps(n):
            p = potts(m)
            assert p == potts_subset_oracle(m)
            assert p == potts_by_interpolation(m)
            assert p == potts_from_tutte(m)


def test_03_equation_expansions_match_brute_force():
    from tuttelab import verify
    results = verify.run(["equations"])
    assert len(results) == 13 and verify.all_pass(results)


def test_04_bijections():
    from tuttelab.bijections import phi_bar
    from tuttelab.verify import roundtrip_cvs, roundtrip_mullin, roundtrip_psi

    # opening/closure between 4-valent maps and balanced blossoming trees
    for n in range(1, 5):
        assert roundtrip_psi(n)[1] is None

    # signed closure of all blossoming trees is a bijection onto
    # (4-valent map, marked face) pairs: (n+2) m_n = 2 t_n
    for n in range(1, 5):
        maps = four_valent(n)
        full = {(m.code, f) for m in maps for f in range(m.n_faces)}
        seen = set()
        for t in BlossomingTree.all_trees(n):
            for s in ("+", "-"):
                cm, fi = phi_bar(t, s)
                seen.add((cm.code, fi))
        assert len(seen) == 2 * cf.blossoming_count(n)
        assert seen == full
        assert (n + 2) * cf.maps_count(n) == 2 * cf.blossoming_count(n)

    # pointed quadrangulations vs labelled trees: 3^n C_n = (n+2) q_n / 2
    for n in range(1, 5):
        cnt, bad = roundtrip_cvs(n)
        assert bad is None
        assert cnt == cf.labelled_tree_count(n)
        assert 2 * cf.labelled_tree_count(n) \
            == (n + 2) * cf.quadrangulation_count(n)

    # tree-rooted maps vs shuffles of two Dyck words
    for n in range(5):
        cnt, bad = roundtrip_mullin(n)
        assert bad is None
        assert cnt == sum(cf.shuffle_count(i, n - i) for i in range(n + 1))


def test_05_closed_forms_vs_brute_force():
    from tuttelab.verify import (bipolar_formula_vs_brute_force,
                                 bipolar_tri_formula_vs_brute_force,
                                 tree_rooted_formula_vs_brute_force,
                                 tree_rooted_tri_formula_vs_brute_force)
    assert bipolar_formula_vs_brute_force()
    assert bipolar_tri_formula_vs_brute_force()
    assert tree_rooted_formula_vs_brute_force()
    assert tree_rooted_tri_formula_vs_brute_force()
    for n in range(2):
        got = sum(1 for m in all_maps(3 * n + 2)
                  if m.is_near_triangulation() and m.root_face_degree == 1)
        assert got == cf.nt1_count(n)
    assert cf.spanning_tree_series_coeff(0) == 1
    for n in range(1, 4):
        got = sum(spanning_tree_count(m) for m in all_maps(n))
        assert got == cf.spanning_tree_series_coeff(n)


def test_06_kernel_extractions():
    from tuttelab import verify
    results = verify.run(["kernels"])
    assert len(results) == 15 and verify.all_pass(results)


def test_07_algebraic_theorems():
    from tuttelab import verify
    results = verify.run(["algebraic"])
    assert len(results) == 8 and verify.all_pass(results)


def test_08_differential_systems():
    from tuttelab.desystems import (check_de_maps, check_de_tri,
                                    check_tutte_ode)
    assert check_de_maps(Fraction(2), Fraction(2), Fraction(1), 6)
    assert check_de_maps(Fraction(3), Fraction(2), Fraction(1), 6)
    assert check_de_maps(Fraction(5, 2), Fraction(3), Fraction(1), 6)
    for q in (2, 3):
        assert check_de_tri(Fraction(q), 12)
        assert check_tutte_ode(Fraction(q), 12)


def test_09_bipartite_series_identity():
    from tuttelab.bijections import ising_series_identity
    lhs, rhs = ising_series_identity(4)
    assert lhs == rhs


# sha256 of `verify all --json`: the report must not change when checks move
VERIFY_ALL_SHA256 = (
    "8dc38670699494c93a2fb11cfe5163e0ef7da0cd83cb01722ce2a1434a550eb8")


def test_10_verify_all_deterministic():
    cmd = [sys.executable, "-m", "tuttelab.cli", "verify", "all", "--json"]
    runs = [subprocess.run(cmd, capture_output=True) for _ in range(2)]
    for r in runs:
        assert r.returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert b'"pass": false' not in runs[0].stdout
    assert len(json.loads(runs[0].stdout)) == 118
    assert hashlib.sha256(runs[0].stdout).hexdigest() == VERIFY_ALL_SHA256
