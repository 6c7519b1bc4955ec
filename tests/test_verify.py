import pytest

from tuttelab import verify


def test_suite_catalog():
    assert list(verify.SUITES) == ["counts", "potts", "equations",
                                   "closed_forms", "kernels", "algebraic",
                                   "desystems", "bijections"]


def test_unknown_suite():
    with pytest.raises(KeyError):
        verify.run(["nope"])


def test_counts_suite_passes():
    results = verify.run(["counts"])
    assert verify.all_pass(results)
    assert all(r.suite == "counts" for r in results)


def test_report_formats():
    results = verify.run(["counts"])
    plain = verify.format_report(results, "plain")
    assert plain.endswith(f"{len(results)}/{len(results)} checks passed\n")
    csv_out = verify.format_report(results, "csv")
    assert csv_out.splitlines()[0] == "suite,case,expected,got,pass"
    json_out = verify.format_report(results, "json")
    assert '"pass": true' in json_out and '"pass": false' not in json_out
    with pytest.raises(ValueError):
        verify.format_report(results, "xml")


def test_report_is_deterministic():
    a = verify.format_report(verify.run(["counts"]), "json")
    b = verify.format_report(verify.run(["counts"]), "json")
    assert a == b


def test_failures_are_reported():
    bad = [verify.CaseResult("demo", "broken", 1, 2)]
    assert not verify.all_pass(bad)
    assert "[FAIL] demo: broken (expected 1, got 2)" \
        in verify.format_report(bad, "plain")


def test_verify_all_builds_no_seven_edge_maps(monkeypatch):
    from tuttelab import generate
    unpatched = generate.all_maps

    def below_seven(n, *args, **kwargs):
        if n >= 7:
            raise AssertionError(f"all_maps({n}) called")
        return unpatched(n, *args, **kwargs)

    for module in (generate, verify):
        monkeypatch.setattr(module, "all_maps", below_seven)
    # the formula checks are memoised; run them again under the patch
    for check in (verify.bipolar_formula_vs_brute_force,
                  verify.bipolar_tri_formula_vs_brute_force,
                  verify.tree_rooted_formula_vs_brute_force,
                  verify.tree_rooted_tri_formula_vs_brute_force):
        check.cache_clear()
    results = verify.run()
    assert len(results) == 118 and verify.all_pass(results)
