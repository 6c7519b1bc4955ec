import json
import os
import subprocess
import sys

import pytest

from tuttelab import verify
from tuttelab.desystems import DESolveError

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"),
    reason="only a forked worker sees suites patched in this process")


def assert_no_child_left():
    # every worker that run forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_suite_catalog():
    assert list(verify.SUITES) == ["counts", "potts", "equations",
                                   "closed_forms", "kernels", "algebraic",
                                   "desystems", "bijections"]


def _fake_suites(monkeypatch):
    """Replace every suite by one that returns a single passing row naming
    it; return the list of suites run in this process, in call order."""
    ran = []

    def fake(name):
        def suite():
            ran.append(name)
            return [verify.CaseResult(name, "fake", 1, 1)]
        return suite

    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, fake(name))
    return ran


def test_unknown_suite(monkeypatch):
    # refused before any suite runs or any worker starts
    ran = _fake_suites(monkeypatch)
    for names in (["nope"], ["counts", "closed_forms", "nope"]):
        with pytest.raises(KeyError):
            verify.run(names)
    assert ran == []
    assert_no_child_left()


def test_all_anywhere_means_every_suite_once(monkeypatch):
    ran = _fake_suites(monkeypatch)
    monkeypatch.setattr(verify, "WORKER_SUITES", frozenset())
    for names in (None, ["all"], ["all", "all"], ["counts", "all"],
                  ["bijections", "all", "potts"]):
        ran.clear()
        assert [r.suite for r in verify.run(names)] == list(verify.SUITES)
        assert ran == list(verify.SUITES)


def test_a_name_given_twice_repeats_its_rows_computed_once(monkeypatch):
    ran = _fake_suites(monkeypatch)
    monkeypatch.setattr(verify, "WORKER_SUITES", frozenset())
    rows = verify.run(["counts", "kernels", "counts"])
    assert [r.suite for r in rows] == ["counts", "kernels", "counts"]
    assert ran == ["counts", "kernels"]


def test_rows_follow_the_names_and_no_worker_outlives_the_run():
    rows = verify.run(["closed_forms", "counts"])
    suites = [r.suite for r in rows]
    assert suites == sorted(suites, key=["closed_forms", "counts"].index)
    assert set(suites) == {"closed_forms", "counts"}
    assert verify.all_pass(rows)
    assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("error", [ValueError("boom"),
                                   DESolveError("inconsistent system", 4)])
def test_worker_exception_reaches_the_caller(monkeypatch, error):
    _fake_suites(monkeypatch)

    def broken():
        raise error

    monkeypatch.setitem(verify.SUITES, "desystems", broken)
    with pytest.raises(type(error)) as caught:
        verify.run(["counts", "desystems"])
    assert str(caught.value) == str(error)
    # chained to the worker's traceback
    assert ", in broken\n" in str(caught.value.__cause__)
    assert_no_child_left()


@needs_fork
def test_local_exception_reaches_the_caller_and_the_worker_is_reaped(
        monkeypatch):
    _fake_suites(monkeypatch)

    def broken():
        raise LookupError("local boom")

    monkeypatch.setitem(verify.SUITES, "counts", broken)
    with pytest.raises(LookupError, match="^local boom$"):
        verify.run(["counts", "desystems"])
    assert_no_child_left()


def _run_script(script, *args):
    """The stdout of the script run with args in a fresh process, which must
    end within a minute."""
    done = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return done.stdout


# verify.run(["counts", "desystems"]) with counts returning no row and the
# worker's desystems suite replaced by the function that argv[1] names, in
# a fresh process, so that a hang fails by timeout.  The script prints what
# run returned or raised, then whether every child was reaped.
_WORKER_SCRIPT = """
import os, sys
from tuttelab import verify

BIG = "".join(map(str, range(200_000)))  # about 1 MiB

class TwoArgumentError(Exception):
    # pickles, but does not unpickle: its args hold only the first argument
    def __init__(self, message, extra):
        super().__init__(message)

def large():
    return [verify.CaseResult("desystems", "large", BIG, BIG)]

def vanish():
    os._exit(3)

def unsendable():
    return [lambda: None]

def unpicklable():
    raise TwoArgumentError("lost", 1)

verify.SUITES["counts"] = list
verify.SUITES["desystems"] = globals()[sys.argv[1]]
try:
    rows = verify.run(["counts", "desystems"])
    print([(r.case, r.expected == r.got == BIG) for r in rows])
except RuntimeError as err:
    print(type(err.__cause__).__name__, err)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("reaped")
"""


@needs_fork
def test_a_worker_row_larger_than_a_pipe_buffer_arrives_intact():
    assert _run_script(_WORKER_SCRIPT, "large").splitlines() == [
        "[('large', True)]", "reaped"]


@needs_fork
@pytest.mark.parametrize("how, status, cause", [
    ("vanish", 3, "EOFError"),
    ("unsendable", 1, "EOFError"),
    ("unpicklable", 0, "TypeError")])
def test_a_worker_without_a_result_is_an_error(how, status, cause):
    assert _run_script(_WORKER_SCRIPT, how).splitlines() == [
        f"{cause} the verify worker process ended without a result"
        f" (exit status {status})", "reaped"]


def test_run_loads_no_process_pool():
    # the worker is a bare fork: a full run imports neither multiprocessing
    # nor concurrent.futures, and forks no thread (Python 3.12+ warns then)
    script = ("import sys, warnings\n"
              "warnings.simplefilter('always')\n"
              "from tuttelab import verify\n"
              "with warnings.catch_warnings(record=True) as seen:\n"
              "    assert verify.all_pass(verify.run())\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] in"
              " ('multiprocessing', 'concurrent')), seen)\n")
    assert _run_script(script) == "[] []\n"


def test_text_written_before_a_split_run_is_written_once():
    # run flushes this process's stdio buffers before it forks, and the
    # worker leaves through os._exit without flushing the copies it inherits
    script = ("import sys\n"
              "from tuttelab import verify\n"
              "sys.stdout.write('x')\n"
              "sys.stderr.write('y')\n"
              "verify.run(['potts', 'closed_forms'])\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "x" and done.stderr == "y"


@needs_fork
def test_the_worker_runs_no_teardown_of_the_calling_process():
    # the worker leaves through os._exit: no finally block and no atexit
    # handler of the calling process runs twice
    script = ("import atexit\n"
              "from tuttelab import verify\n"
              "atexit.register(print, 'atexit')\n"
              "verify.SUITES.update(potts=list, closed_forms=list)\n"
              "try:\n"
              "    verify.run(['potts', 'closed_forms'])\n"
              "finally:\n"
              "    print('finally')\n")
    assert _run_script(script) == "finally\natexit\n"


def test_no_memo_is_filled_on_both_sides():
    # the suites run in the worker fill none of the memos the others read,
    # so each memo is computed once per verify all
    memos = [f for f in vars(verify).values()
             if hasattr(f, "cache_clear") and f.__module__ == verify.__name__]
    local = [name for name in verify.SUITES
             if name not in verify.WORKER_SUITES]
    filled = []
    for side in (sorted(verify.WORKER_SUITES), local):
        for memo in memos:
            memo.cache_clear()
        verify.run(side)
        filled.append({memo.__name__ for memo in memos
                       if memo.cache_info().currsize})
    assert filled[0] and filled[1] and not filled[0] & filled[1]
    assert filled[0] | filled[1] == {memo.__name__ for memo in memos}


# Run the suites named in argv in this fresh process; print the keys of the
# generated lists it built (streamed while no memo held them) and of those
# it holds, and the verify, potts and desystems memos it filled.
_SIDE_SCRIPT = """
import json, sys
from tuttelab import desystems, generate, potts, verify
built = set()
stream = generate.stream

def recorded(family, n, *args):
    if (family, n, *args) not in generate._LISTS:
        built.add((family, n, *args))
    return stream(family, n, *args)

generate.stream = recorded
verify._run_suites(sys.argv[1:])
memos = [f for module in (verify, potts, desystems)
         for f in vars(module).values()
         if hasattr(f, "cache_info") and f.__module__ == module.__name__]
print(json.dumps({"built": sorted(built), "held": sorted(generate._LISTS),
                  "memos": [f.__name__ for f in memos
                            if f.cache_info().currsize]}))
"""


def _side(names):
    """What running the named suites in a fresh process builds, holds and
    memoises: {"built": keys, "held": keys, "memos": names}."""
    done = subprocess.run([sys.executable, "-c", _SIDE_SCRIPT, *names],
                          capture_output=True, text=True, check=True)
    out = json.loads(done.stdout)
    return {what: {tuple(k) for k in out[what]} for what in ("built", "held")
            } | {"memos": set(out["memos"])}


def test_the_two_sides_share_only_the_small_lists():
    # the lists both sides hold: maps and bipartite maps up to 4 edges and
    # near-triangulations up to 6; near_angulations(7, 3) is built on both
    # sides but held by the worker only
    worker = _side(sorted(verify.WORKER_SUITES))
    caller = _side([name for name in verify.SUITES
                    if name not in verify.WORKER_SUITES])
    shared = ({(family, e) for family in ("all_maps", "bipartite_maps")
               for e in range(5)}
              | {("near_angulations", e, 3) for e in range(7)})
    assert worker["held"] & caller["held"] == shared
    assert worker["built"] & caller["built"] == shared | {
        ("near_angulations", 7, 3)}
    assert ("near_angulations", 7, 3) in worker["held"] - caller["held"]


def test_algebraic_may_run_on_either_side():
    # it builds no generated list and fills no verify, potts or desystems
    # memo, so the calling process runs it and builds nothing more
    assert _side(["algebraic"]) == {"built": set(), "held": set(),
                                    "memos": set()}


@needs_fork
def test_the_calling_side_runs_algebraic_first(monkeypatch):
    ran = _fake_suites(monkeypatch)
    rows = verify.run()
    assert [r.suite for r in rows] == list(verify.SUITES)
    assert ran == ["algebraic"] + [name for name in verify.SUITES
                                   if name not in verify.WORKER_SUITES
                                   and name != "algebraic"]


def test_radial_maps_are_built_once(monkeypatch):
    # closed_forms and bijections read the 4-valent maps and the
    # quadrangulations of sizes 1-4 from one memoised list each, and the
    # quadrangulations are the duals of the 4-valent list: 443 radial maps
    # in all
    from tuttelab import generate
    from tuttelab.maps import RootedMap
    for listed in (generate.four_valent, generate.quadrangulations):
        listed.cache_clear()
    calls = 0
    radial = RootedMap.radial

    def counted(m):
        nonlocal calls
        calls += 1
        return radial(m)

    monkeypatch.setattr(RootedMap, "radial", counted)
    assert verify.all_pass(verify.run(["closed_forms", "bijections"]))
    assert calls <= 443


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


def test_verify_all_names_each_case_once(six_edge_streamed_run):
    # a (suite, case) pair names one row, so it can key that row's data
    results, _ = six_edge_streamed_run
    keys = {(r.suite, r.case) for r in results}
    assert len(results) == 118 and len(keys) == 118
