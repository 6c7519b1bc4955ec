import csv
import hashlib
import json
import subprocess
import sys

import pytest

from tuttelab import cli, generate
from tuttelab.generate import all_maps


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_count_only(capsys):
    code, out, _ = run_cli(capsys, "gen", "maps", "--n", "2", "--count-only")
    assert code == 0 and out == "9\n"


@pytest.mark.parametrize("family,listed,count", [
    ("maps", "all_maps", 2916), ("bipartite", "bipartite_maps", 288),
    ("quadrangulations", "quadrangulations", 2916),
    ("four_valent", "four_valent", 2916),
    ("near_triangulations", "near_triangulations", 173),
    ("eulerian_near_triangulations", "eulerian_near_triangulations", 6),
    ("non_separable_near_triangulations",
     "non_separable_near_triangulations", 9)])
def test_gen_count_only_streams(capsys, monkeypatch, family, listed, count):
    # the count of the asked size is read off the stream: the list of that
    # size is never built, and a root-edge family's memoised list is asked
    # only for the smaller sizes its stream is built from
    n = {"eulerian_near_triangulations": 2,
         "non_separable_near_triangulations": 3}.get(family, 5)
    asked = []
    build = getattr(generate, listed)
    if family in ("maps", "bipartite"):
        build.cache_clear()  # stream reads a held list of size n as it is

    def spy(size):
        asked.append(size)
        return build(size)

    monkeypatch.setattr(generate, listed, spy)
    code, out, _ = run_cli(capsys, "gen", family, "--n", str(n), "--count-only")
    assert code == 0 and out == f"{count}\n"
    assert n not in asked
    if family in ("maps", "bipartite"):
        assert asked


# sha256 prefixes of gen's stdout in plain, JSON, CSV and count-only form,
# joined by NUL characters: the bytes a user reads for each family.
@pytest.mark.parametrize("family,n,digest", [
    ("maps", 3, "d8d2e6e21be1a900"),
    ("bipartite", 3, "457a11d57116f990"),
    ("quadrangulations", 3, "82d686302bf40781"),
    ("four_valent", 3, "4c94d776f0a34547"),
    ("near_triangulations", 3, "6fc5ec6ab3ceb6c1"),
    ("eulerian_near_triangulations", 2, "533348dc30bd9d13"),
    ("non_separable_near_triangulations", 3, "2c6b5b6d92657aaf")])
def test_gen_output_is_pinned(capsys, family, n, digest):
    outs = []
    for flags in ((), ("--json",), ("--csv",), ("--count-only",)):
        code, out, _ = run_cli(capsys, "gen", family, "--n", str(n), *flags)
        assert code == 0
        outs.append(out)
    assert hashlib.sha256("\0".join(outs).encode()).hexdigest()[:16] == digest


def test_gen_listing_formats(capsys):
    code, out, _ = run_cli(capsys, "gen", "maps", "--n", "1")
    assert code == 0 and len(out.splitlines()) == 2
    code, out, _ = run_cli(capsys, "gen", "maps", "--n", "1", "--json")
    assert code == 0 and len(json.loads(out)) == 2
    code, out, _ = run_cli(capsys, "gen", "maps", "--n", "1", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "alpha,sigma,root"


def test_gen_unknown_family(capsys):
    code, _, err = run_cli(capsys, "gen", "widgets", "--n", "1")
    assert code == cli.EXIT_UNKNOWN and "unknown family" in err


def test_gen_cap_exceeded(capsys):
    code, _, err = run_cli(capsys, "gen", "maps", "--n", "9", "--count-only")
    assert code == cli.EXIT_CAP and "cap" in err


def test_gen_family_cap_message(capsys):
    code, out, err = run_cli(capsys, "gen", "non_separable_near_triangulations",
                             "--n", "4", "--count-only")
    assert code == cli.EXIT_CAP and out == ""
    assert err == ("generation cap exceeded: non_separable_near_triangulations"
                   " cap is 3 inner faces (asked for 4)\n")


def test_tutte_outputs(tmp_path, capsys):
    mapfile = tmp_path / "m.json"
    mapfile.write_text(all_maps(2)[0].to_json())
    code, out, _ = run_cli(capsys, "tutte", str(mapfile))
    assert code == 0 and out.startswith("tutte: ")
    code, out, _ = run_cli(capsys, "tutte", str(mapfile), "--potts")
    assert code == 0 and out.startswith("potts: ")
    code, out, _ = run_cli(capsys, "tutte", str(mapfile), "--special",
                           "--json")
    assert code == 0
    assert set(json.loads(out)) == {"spanning_tree_count", "chromatic_poly",
                                    "bipolar_count"}


def test_tutte_special_of_the_atomic_map(tmp_path, capsys):
    from tuttelab.maps import RootedMap
    mapfile = tmp_path / "atomic.json"
    mapfile.write_text(RootedMap.atomic().to_json())
    code, out, _ = run_cli(capsys, "tutte", str(mapfile), "--special")
    assert code == 0 and "bipolar_count: 0\n" in out
    code, out, _ = run_cli(capsys, "tutte", str(mapfile), "--special",
                           "--json")
    assert code == 0 and json.loads(out)["bipolar_count"] == "0"


def test_tutte_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(capsys, "tutte", str(bad))
    assert code == cli.EXIT_BAD_FILE and "cannot read" in err
    code, _, err = run_cli(capsys, "tutte", str(tmp_path / "missing.json"))
    assert code == cli.EXIT_BAD_FILE


@pytest.mark.parametrize("darts", ["[1.0, 0.0]", "[true, false]"])
def test_tutte_non_integer_darts(tmp_path, darts):
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"n_darts": 2, "alpha": {darts}, "sigma": [0, 1], '
                   f'"root": 0}}')
    run = subprocess.run([sys.executable, "-m", "tuttelab.cli", "tutte",
                          str(bad)], capture_output=True, text=True)
    assert run.returncode == cli.EXIT_BAD_FILE
    assert "cannot read map file" in run.stderr
    assert "Traceback" not in run.stderr


def test_tutte_cap_checked_before_work(tmp_path, capsys, monkeypatch):
    from tuttelab import potts
    from tuttelab.maps import RootedMap

    def refuse(_):
        raise AssertionError("polynomial work started on the capped path")

    monkeypatch.setattr(potts, "tutte", refuse)
    monkeypatch.setattr(potts, "potts", refuse)
    m = RootedMap.atomic()
    for _ in range(cli.TUTTE_CAP + 1):
        m = m.insert_root_edge(0)
    mapfile = tmp_path / "big.json"
    mapfile.write_text(m.to_json())
    for flags in ((), ("--potts",), ("--special",)):
        code, out, err = run_cli(capsys, "tutte", str(mapfile), *flags)
        assert code == cli.EXIT_CAP and out == ""
        assert err == (f"size cap exceeded: tutte cap is {cli.TUTTE_CAP} "
                       f"edges (asked for {cli.TUTTE_CAP + 1})\n")


def test_bijection_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "bijection", "roundtrip", "psi",
                           "--max-size", "2")
    assert code == 0 and "pass" in out
    code, out, _ = run_cli(capsys, "bijection", "roundtrip", "ising",
                           "--max-size", "100", "--json")
    assert code == 0 and json.loads(out)["pass"] is True
    code, _, err = run_cli(capsys, "bijection", "roundtrip", "ising",
                           "--max-size", "-1")
    assert code == cli.EXIT_UNKNOWN and "nonnegative" in err
    code, _, err = run_cli(capsys, "bijection", "roundtrip", "nope",
                           "--max-size", "1")
    assert code == cli.EXIT_UNKNOWN


def test_bijection_csv_quotes_counterexample(capsys, monkeypatch):
    from tuttelab import verify
    text = 'map {"alpha":[1,0]}, tree ()'
    monkeypatch.setitem(verify.ROUNDTRIPS, "psi", lambda n: (1, text))
    code, out, _ = run_cli(capsys, "bijection", "roundtrip", "psi",
                           "--max-size", "1", "--csv")
    rows = list(csv.reader(out.splitlines()))
    assert code == cli.EXIT_FAIL
    assert rows == [["bijection", "max_size", "pass", "counterexample"],
                    ["psi", "1", "FAIL", text]]


def test_bijection_cap_checked_before_work(capsys, monkeypatch):
    from tuttelab import generate, verify

    def no_generation(*args, **kwargs):
        raise AssertionError("all_maps called on the capped path")

    for module in (generate, verify):
        monkeypatch.setattr(module, "all_maps", no_generation)
    for name in ("psi", "cvs", "mullin"):
        code, _, err = run_cli(capsys, "bijection", "roundtrip", name,
                               "--max-size", str(generate.LIST_CAP + 2))
        assert code == cli.EXIT_CAP and "cap" in err


def test_gen_negative_size(capsys):
    code, _, err = run_cli(capsys, "gen", "maps", "--n", "-1")
    assert code == cli.EXIT_UNKNOWN and "nonnegative" in err


def test_series_expand(capsys):
    code, out, _ = run_cli(capsys, "series", "expand", "--eq", "MAPS_1CAT",
                           "--order", "2")
    assert code == 0
    assert out.splitlines()[0] == "t^0: 1"
    code, out, _ = run_cli(capsys, "series", "expand", "--eq", "POTTS_MAPS",
                           "--order", "1", "--set", "q=2,nu=5/2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["equation"] == "POTTS_MAPS" and data["order"] == 1
    # a decimal string is read as the exact decimal, never as a float
    code, out, _ = run_cli(capsys, "series", "expand", "--eq", "BIPOLAR_MAPS",
                           "--order", "1", "--set", "w=0.1")
    assert code == 0 and out.splitlines()[1] == "t^1: 1/10*x*y^2"


def test_series_unknown_equation(capsys):
    code, _, err = run_cli(capsys, "series", "expand", "--eq", "NOPE",
                           "--order", "2")
    assert code == cli.EXIT_UNKNOWN and "unknown equation" in err


@pytest.mark.parametrize("eq,assignment", [
    ("POTTS_MAPS", "q2"),
    ("POTTS_MAPS", "q=1/0"),
    ("TUTTE_NONSEP_TRI", "q=0"),  # the equation divides by q
    ("POTTS_MAPS", "q="),
    ("POTTS_MAPS", "nu=1/2/3"),
    ("POTTS_MAPS", "q=2,q=3"),
    ("POTTS_MAPS", "q=2,nu=1, q=2"),
])
def test_series_bad_set(capsys, eq, assignment):
    # a refused item, the last one given here, is named in the message
    code, out, err = run_cli(capsys, "series", "expand", "--eq", eq,
                             "--order", "2", "--set", assignment)
    named = ("division by zero" if assignment == "q=0"
             else repr(assignment.split(",")[-1]))
    assert code == cli.EXIT_UNKNOWN and not out and named in err


def test_series_negative_order(capsys):
    code, _, err = run_cli(capsys, "series", "expand", "--eq", "MAPS_1CAT",
                           "--order", "-1")
    assert code == cli.EXIT_UNKNOWN and "nonnegative" in err


def test_series_parameter_not_taken(capsys):
    code, _, err = run_cli(capsys, "series", "expand", "--eq", "MAPS_1CAT",
                           "--order", "2", "--set", "q=2")
    assert code == cli.EXIT_UNKNOWN and "does not take parameters" in err


def test_formula_missing_arguments(capsys):
    code, _, err = run_cli(capsys, "formula", "bipolar")
    assert code == cli.EXIT_FAIL and "bad arguments" in err


def test_formula(capsys):
    code, out, _ = run_cli(capsys, "formula", "tree_rooted", "1", "1")
    assert code == 0 and out == "6\n"
    code, _, err = run_cli(capsys, "formula", "nope", "1")
    assert code == cli.EXIT_UNKNOWN
    code, _, err = run_cli(capsys, "formula", "maps", "1", "2")
    assert code == cli.EXIT_FAIL and "bad arguments" in err


def test_verify_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "counts")
    assert code == 0 and out.endswith("12/12 checks passed\n")
    code, _, err = run_cli(capsys, "verify", "nosuite")
    assert code == cli.EXIT_UNKNOWN and "known suites" in err


def test_verify_all_may_sit_anywhere_in_the_names(capsys, monkeypatch):
    from tuttelab import verify
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, lambda name=name: [
            verify.CaseResult(name, "fake", 1, 1)])
    monkeypatch.setattr(verify, "WORKER_SUITES", frozenset())
    for argv in (["all", "all"], ["counts", "all"]):
        code, out, err = run_cli(capsys, "verify", *argv, "--json")
        assert code == 0 and err == ""
        assert [row["suite"] for row in json.loads(out)] == list(verify.SUITES)


def test_verify_output_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "counts", "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_python_m_tuttelab_is_the_cli():
    runs = [subprocess.run([sys.executable, "-m", module, "verify", "counts",
                            "--json"], capture_output=True)
            for module in ("tuttelab", "tuttelab.cli")]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout != b""
    imported = subprocess.run([sys.executable, "-c", "import tuttelab.__main__"],
                              capture_output=True)
    assert (imported.returncode, imported.stdout, imported.stderr) == (0, b"", b"")


def test_a_reader_that_closes_early_gets_no_traceback():
    # 2,916 maps, far more than a pipe buffer, so the writer meets the
    # closed pipe while it writes
    proc = subprocess.Popen([sys.executable, "-m", "tuttelab", "gen", "maps",
                             "--n", "5"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b'{"n_darts"')
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_json_and_csv_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "counts", "--json", "--csv"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "not allowed with argument" in captured.err


def test_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        cli.main([])


# Every command that renders its own result, as (case id, argv).  A
# "{map}" argument is a map file written by the test: a 3-edge map with
# two vertices, or the atomic map.
_PINNED_MAPS = {
    "map3": '{"n_darts":6,"alpha":[1,0,3,2,5,4],"sigma":[5,0,4,1,2,3],'
            '"root":4}',
    "atomic": '{"n_darts":0,"alpha":[],"sigma":[],"root":null}',
}
_PINNED_COMMANDS = [
    *((f"tutte{flag[1:]}-{name}", ["tutte", name, *filter(None, [flag])])
      for name in _PINNED_MAPS for flag in ("", "--potts", "--special")),
    ("series-symbolic", ["series", "expand", "--eq", "POTTS_MAPS",
                         "--order", "2"]),
    ("series-set", ["series", "expand", "--eq", "POTTS_MAPS", "--order", "2",
                    "--set", "q=2,nu=5/2"]),
    ("bijection-pass", ["bijection", "roundtrip", "psi", "--max-size", "3"]),
    ("bijection-fail", ["bijection", "roundtrip", "psi", "--max-size", "1"]),
    ("formula-1", ["formula", "maps", "3"]),
    ("formula-2", ["formula", "tree_rooted", "1", "2"]),
    ("gen-count", ["gen", "maps", "--n", "3", "--count-only"]),
    ("gen-atomic", ["gen", "maps", "--n", "0"]),
    ("gen-list", ["gen", "bipartite", "--n", "2"]),
]

# sha256 prefixes of each command's exit code, stdout and stderr, joined by
# NUL characters, in plain, JSON and CSV form
_PINNED_DIGESTS = {
    ("tutte-map3", "plain"): "d8c30b7d8a5b1b99",
    ("tutte-map3", "json"): "9f54e46ab098fd3d",
    ("tutte-map3", "csv"): "5675507c31cd1d15",
    ("tutte-potts-map3", "plain"): "6f5274a17d252687",
    ("tutte-potts-map3", "json"): "4572b538a911ab1d",
    ("tutte-potts-map3", "csv"): "f3b2da23fd045137",
    ("tutte-special-map3", "plain"): "3123d6a7daf98d5f",
    ("tutte-special-map3", "json"): "3533d5590e16a80b",
    ("tutte-special-map3", "csv"): "34a4e753b07ce748",
    ("tutte-atomic", "plain"): "684d1a4835101175",
    ("tutte-atomic", "json"): "b610b61511761fc7",
    ("tutte-atomic", "csv"): "6937a047dfa5a5e2",
    ("tutte-potts-atomic", "plain"): "2728457713d2896b",
    ("tutte-potts-atomic", "json"): "cefa685ef2b96f92",
    ("tutte-potts-atomic", "csv"): "33a149d4477bc198",
    ("tutte-special-atomic", "plain"): "cb385d7123c0f5ab",
    ("tutte-special-atomic", "json"): "a62f89ddd7823f8e",
    ("tutte-special-atomic", "csv"): "03b1226012f2d1a2",
    ("series-symbolic", "plain"): "46360b991fa2fcf1",
    ("series-symbolic", "json"): "28a4a8d4ca62a416",
    ("series-symbolic", "csv"): "e8beaaa80c8f832d",
    ("series-set", "plain"): "643a14a044dd52c1",
    ("series-set", "json"): "6f5c83b055ef4883",
    ("series-set", "csv"): "ad663d5ef51ea0b1",
    ("bijection-pass", "plain"): "e922c16b7d7b69c4",
    ("bijection-pass", "json"): "20781713c4fbdea8",
    ("bijection-pass", "csv"): "e3ec047ad11d2529",
    ("bijection-fail", "plain"): "b2ab0d8f0da4177c",
    ("bijection-fail", "json"): "41a90b61009f8ec2",
    ("bijection-fail", "csv"): "ed41fe6b4f8f94f5",
    ("formula-1", "plain"): "f5fd7cc71da00e02",
    ("formula-1", "json"): "83c0f0e9983636e8",
    ("formula-1", "csv"): "c34817b2f92b0dad",
    ("formula-2", "plain"): "0f5e884fbaa30245",
    ("formula-2", "json"): "c8c19cdf4a834022",
    ("formula-2", "csv"): "bfa4be7a169ada80",
    ("gen-count", "plain"): "f5fd7cc71da00e02",
    ("gen-count", "json"): "29acde2c98d19118",
    ("gen-count", "csv"): "20cd4b850367f454",
    ("gen-atomic", "plain"): "32faafccc0349616",
    ("gen-atomic", "json"): "48a0617d3061e022",
    ("gen-atomic", "csv"): "09e9eb0163aa5491",
    ("gen-list", "plain"): "0eb97669430a7087",
    ("gen-list", "json"): "7978e6bdb6baa092",
    ("gen-list", "csv"): "124af10a0acd3454",
}


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("case,argv", _PINNED_COMMANDS,
                         ids=[case for case, _ in _PINNED_COMMANDS])
def test_every_command_output_is_pinned(tmp_path, capsys, monkeypatch,
                                        case, argv, fmt):
    from tuttelab import verify
    if case == "bijection-fail":  # a counterexample a CSV field must quote
        monkeypatch.setitem(verify.ROUNDTRIPS, "psi", lambda n: (
            1, 'map {"alpha":[1,0]}, tree ()'))
    for name, text in _PINNED_MAPS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in _PINNED_MAPS else a for a in argv]
    flags = {"plain": [], "json": ["--json"], "csv": ["--csv"]}[fmt]
    code, out, err = run_cli(capsys, *argv, *flags)
    digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()[:16]
    assert digest == _PINNED_DIGESTS[case, fmt]


def test_atomic_map_csv_has_an_empty_root(capsys):
    # the atomic map has no root dart: its CSV root field is empty
    code, out, _ = run_cli(capsys, "gen", "maps", "--n", "0", "--csv")
    assert code == 0 and out == "alpha,sigma,root\n,,\n"
