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


def _run_refusing(monkeypatch, list_from, stream_from):
    """verify.run() with all_maps(n) refused for n >= list_from and
    generate.stream("all_maps", n) for n >= stream_from; returns the
    results and the (family, n) of every stream call."""
    from tuttelab import generate
    lists, streams, calls = generate.all_maps, generate.stream, []

    def all_maps(n, *args, **kwargs):
        if n >= list_from:
            raise AssertionError(f"all_maps({n}) called")
        return lists(n, *args, **kwargs)

    def stream(family, n, *args):
        calls.append((family, n))
        if family == "all_maps" and n >= stream_from:
            raise AssertionError(f"stream('all_maps', {n}) called")
        return streams(family, n, *args)

    for module in (generate, verify):
        monkeypatch.setattr(module, "all_maps", all_maps)
    monkeypatch.setattr(generate, "stream", stream)
    _clear_memoised_checks()
    return verify.run(), calls


def _clear_memoised_checks():
    # the brute-force checks are memoised; run them again under a patch
    for check in (verify.bipolar_formula_vs_brute_force,
                  verify.bipolar_tri_formula_vs_brute_force,
                  verify.tree_rooted_formula_vs_brute_force,
                  verify.tree_rooted_tri_formula_vs_brute_force,
                  verify.maps_brute_force_gf):
        check.cache_clear()


@pytest.fixture(scope="module")
def six_edge_streamed_run():
    # one verify.run() serves the three tests below; it refuses every
    # all_maps list of 6 or more edges and every stream of 7 or more
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _run_refusing(monkeypatch, 6, 7)


def test_verify_all_builds_no_seven_edge_maps(six_edge_streamed_run):
    results, _ = six_edge_streamed_run
    assert len(results) == 118 and verify.all_pass(results)


def test_verify_all_keeps_no_six_edge_list(six_edge_streamed_run):
    # the 6-edge maps are only counted and summed, so they are streamed
    results, _ = six_edge_streamed_run
    assert len(results) == 118 and verify.all_pass(results)


def test_verify_all_streams_the_six_edge_maps_once(six_edge_streamed_run):
    # the counts and equations suites share one brute-force series
    results, calls = six_edge_streamed_run
    assert len(results) == 118 and verify.all_pass(results)
    assert calls.count(("all_maps", 6)) == 1
