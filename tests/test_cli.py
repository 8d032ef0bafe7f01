"""Command-line surface: worked examples, exit codes, formats, cache behavior."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permsieve import cli
from permsieve.cache import VERSION, RecordCache
from permsieve.cli import main, to_json
from permsieve.polynomials import IntPolynomial
from permsieve.scan import DedupClass, PairVerdict, ScanReport, ScanRow, scan


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_signed(cache, key, n, offset, coeffs):
    """Write the body [VERSION, key, n, offset, coeffs] as a record under a valid digest."""
    body = json.dumps([VERSION, key, n, offset, coeffs]).encode()
    cache.directory.mkdir(parents=True, exist_ok=True)
    cache._path(key, n).write_bytes(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)


class TestWorkedExamples:
    def test_map_apply_corteel(self, capsys):
        code, out, _ = run(capsys, "map", "apply", "corteel", "1,7,6,3,8,10,9,12,2,11,4,5")
        assert code == 0
        assert out.strip() == "1,10,12,2,7,6,9,8,5,11,4,3"

    def test_stat_eval_updown(self, capsys):
        code, out, _ = run(capsys, "stat", "eval", "st638", "53142")
        assert code == 0
        assert out.strip() == "4"

    def test_csp_check_crossings(self, capsys):
        code, out, _ = run(capsys, "csp", "check", "st039", "corteel", "--n", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["holds"] is True
        assert doc["table"] == [120, 16]

    def test_stat_eval_by_findstat_id(self, capsys):
        code, out, _ = run(capsys, "stat", "eval", "39", "231")
        assert code == 0 and out.strip() == "1"


class TestExitCodes:
    def test_failing_csp_exits_one(self, capsys):
        code, _, _ = run(capsys, "csp", "check", "st539", "reverse", "--n", "4")
        assert code == 1

    def test_equidist(self, capsys):
        assert run(capsys, "equidist", "st039", "st223", "--n", "5")[0] == 0
        assert run(capsys, "equidist", "st538", "st539", "--n", "4")[0] == 1

    def test_unknown_statistic_exits_two(self, capsys):
        # superscript digits pass str.isdigit() but not int()
        for argv in (("stat", "eval", "st9999", "123"), ("stat", "eval", "\u00b2", "123"),
                     ("csp", "check", "\u00b9", "reverse", "--n", "4")):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert "unknown" in err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_permutation_exits_two(self, capsys):
        # a repeated entry, superscript digits, and entries int() alone would take
        for word in ("2231", "\u00b2\u00b9", "1,0_2", " 2,+1", "2,-1"):
            code, _, err = run(capsys, "stat", "eval", "st018", word)
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_eval_of_gf_only_statistic_exits_two(self, capsys):
        code, out, err = run(capsys, "stat", "eval", "st864", "1,2,3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "st864" in err

    def test_cyclic_shift_length_beyond_the_search_limit(self, capsys):
        """st1076's evaluator is a formula, so a permutation of length 11 needs no search of S_11."""
        assert run(capsys, "stat", "eval", "st1076", "2,1,3,4,5,6,7,8,9,10,11") == (0, "1\n", "")

    def test_a_key_error_inside_a_command_is_not_a_usage_error(self, monkeypatch):
        """Only a PermsieveError or an OSError is reported as exit 2; a bug keeps its traceback."""
        def broken(*args):
            raise KeyError("a bug")

        monkeypatch.setattr(cli, "equidistribution", broken)
        with pytest.raises(KeyError, match="a bug"):
            main(["equidist", "st039", "st223", "--n", "4"])

    def test_usage_error_exits_two(self, capsys):
        code, out, err = run(capsys, "scan", "--format", "yaml")
        assert code == 2
        assert out == ""
        assert err == ("error: argument --format: invalid choice: 'yaml' "
                       "(choose from 'csv', 'json', 'md')\n")

    @pytest.mark.parametrize("argv, message", [
        ([], "error: the following arguments are required: command"),
        (["bogus"], "error: argument command: invalid choice: 'bogus'"),
        (["stat"], "error: the following arguments are required: stat_command"),
        (["stat", "gf", "st018"], "error: the following arguments are required: --n"),
        (["csp", "check", "st018", "reverse"], "error: the following arguments are required: --n"),
        (["verify", "extra"], "error: unrecognized arguments: extra"),
    ], ids=["missing-subcommand", "unknown-subcommand", "missing-stat-subcommand",
            "missing-n", "missing-n-csp", "unrecognized-argument"])
    def test_argparse_error_is_one_line(self, capsys, argv, message):
        """An error argparse detects is reported as every other usage error: one line, exit 2."""
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: permsieve")

    @pytest.mark.parametrize("argv", [
        ["csp", "check", "st018", "rotation", "--n", "-2"],
        ["stat", "gf", "st018", "--n", "0"],
        ["map", "orbits", "reverse", "--n", "-1"],
        ["equidist", "st018", "st021", "--n", "0"],
        ["csp", "check", "st018", "rotation", "--n", "9"],
        ["stat", "gf", "st018", "--n", "9"],
        ["map", "orbits", "reverse", "--n", "9"],
        ["equidist", "st018", "st021", "--n", "9"],
    ], ids=["csp-check", "stat-gf", "map-orbits", "equidist",
            "csp-check-9", "stat-gf-9", "map-orbits-9", "equidist-9"])
    def test_n_below_one_exits_two(self, capsys, argv):
        """Also an n above scan.MAX_SCAN_N, the largest n any command accepts."""
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: argument --n: must be a positive integer") and err.count("\n") == 1

    @pytest.mark.parametrize("flag, target", [
        ("--cache-dir", "file"),
        ("--cache-dir", "file/sub"),
        ("--output", "nodir/x.json"),
        ("--output", "dir"),
    ], ids=["cache-dir-is-a-file", "cache-dir-under-a-file", "output-dir-missing", "output-is-a-directory"])
    def test_bad_path_exits_two(self, capsys, tmp_path, flag, target):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        code, out, err = run(capsys, "scan", "--min-n", "4", "--max-n", "4", "--stats", "st018",
                             "--maps", "reverse", "--cache-dir", str(tmp_path / "c"),
                             flag, str(tmp_path / target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err
        assert list(tmp_path.glob("c/*.rec")) == []

    @pytest.mark.parametrize("argv", [
        ["map", "orbits", "swap_first_third", "--n", "2"],
        ["map", "orbits", "prefix_reverse_3", "--n", "2"],
        ["csp", "check", "st018", "swap_first_third", "--n", "2"],
        ["map", "apply", "swap_first_third", "21"],
    ], ids=["map-orbits", "map-orbits-prefix-reverse", "csp-check", "map-apply"])
    def test_n_below_map_min_n_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "swap_first_third" in err or "prefix_reverse_3" in err
        assert "n >= 3" in err

    @pytest.mark.parametrize("key, n, message", [
        ("st1557", "1", "statistic st1557 is defined for n >= 2, got n=1"),
        ("st1556", "2", "statistic st1556 is defined for n >= 3, got n=2"),
    ], ids=["st1557", "st1556"])
    def test_gf_below_statistic_min_n_exits_two(self, capsys, key, n, message):
        """Below min_n the statistic is refused by name, as a map is, before any definition runs."""
        assert run(capsys, "stat", "gf", key, "--n", n) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("criteria", ["13", "0", "x", "2,x"])
    def test_verify_rejects_unknown_criteria(self, capsys, criteria):
        code, out, err = run(capsys, "verify", "--criteria", criteria)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "1..12" in err


class TestListingAndGf:
    def test_stat_list(self, capsys):
        """Every line is pinned: the eight pattern statistics are named from their patterns."""
        code, out, _ = run(capsys, "stat", "list")
        assert code == 0
        assert "st039 [39]: number of crossings" in out
        assert "st423 [423]: occurrences of 123 or 132" in out
        assert len(out.splitlines()) == 66
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "b10d3750124d9befa2dfc73d3e9ce85efd1cb7cedab59bc7e18190bc9c077351")

    def test_map_list(self, capsys):
        code, out, _ = run(capsys, "map", "list")
        assert code == 0
        assert "corteel [239]" in out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "8a47e6bd1ad80261b370574e80518367a22f7716ada0407862d5710cfe085623")

    def test_stat_gf(self, capsys):
        code, out, _ = run(capsys, "stat", "gf", "st021", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["gf"] == {"offset": 0, "coeffs": [1, 4, 1]}

    def test_map_orbits(self, capsys):
        code, out, _ = run(capsys, "map", "orbits", "corteel", "--n", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["signature"] == "1^8 2^8"
        assert doc["fixed_counts"] == [24, 8]


class TestScanCommand:
    ARGS = ["scan", "--min-n", "4", "--max-n", "4",
            "--stats", "st018,st021,st039", "--maps", "reverse,corteel"]

    def test_json_schema(self, capsys, tmp_path):
        code, out, _ = run(capsys, *self.ARGS, "--cache-dir", str(tmp_path / "c"))
        assert code == 0
        doc = json.loads(out)
        assert {"n_min", "n_max", "summary", "rows", "verdicts", "classes"} <= set(doc)
        for row in doc["rows"]:
            assert {"pair", "n", "holds", "table", "signature", "gf"} == set(row)

    def test_cold_warm_identical(self, capsys, tmp_path):
        cache = str(tmp_path / "c")
        _, cold, _ = run(capsys, *self.ARGS, "--cache-dir", cache)
        # only generating functions are cached: orbit structures are declared
        assert sorted(p.name for p in (tmp_path / "c").iterdir()) == [
            f"gf_{stat}_4.rec" for stat in ("st018", "st021", "st223")]  # st039 borrows st223's
        _, warm, _ = run(capsys, *self.ARGS, "--cache-dir", cache)
        assert cold == warm

    def test_corrupt_cache_recomputed(self, capsys, tmp_path):
        cache_dir = tmp_path / "c"
        _, cold, _ = run(capsys, *self.ARGS, "--cache-dir", str(cache_dir))
        for rec in cache_dir.glob("*.rec"):
            rec.write_bytes(b"garbage")
        _, recomputed, _ = run(capsys, *self.ARGS, "--cache-dir", str(cache_dir))
        assert recomputed == cold

    def test_altered_offset_recomputed(self, capsys, tmp_path):
        """A record whose stored offset is altered fails its checksum, so the rescan gives the cold report."""
        args = ["scan", "--min-n", "4", "--max-n", "4", "--stats", "st018", "--maps", "reverse",
                "--cache-dir", str(tmp_path / "c")]
        _, cold, _ = run(capsys, *args)
        path = RecordCache(tmp_path / "c")._path("gf_st018", 4)
        blob = path.read_bytes()
        assert blob.count(b'"gf_st018", 4, 0, [') == 1  # the body: [version, key, n, offset, values]
        path.write_bytes(blob.replace(b'"gf_st018", 4, 0, [', b'"gf_st018", 4, 1, ['))
        assert run(capsys, *args) == (0, cold, "")

    @pytest.mark.parametrize("record", [
        ("gf_st021", 4, 0, (0, 1)),  # not trimmed
        ("gf_st021", 4, 0, (2, 5)),  # 2 + 5 = 7 permutations, not 4! = 24
        ("gf_st021", 4, 0, (24, 0)),  # sums to 4!, but not trimmed at the top
        ("gf_st021", 4, 0, (25, -1)),  # sums to 4!, but a coefficient counts permutations
    ])
    def test_record_not_describing_s_n_recomputed(self, capsys, tmp_path, record):
        """A record that passes its checksum but is no value on S_n is recomputed and overwritten."""
        _, clean, _ = run(capsys, *self.ARGS, "--cache-dir", str(tmp_path / "clean"))
        cache = RecordCache(tmp_path / "c")
        write_signed(cache, *record)
        code, out, err = run(capsys, *self.ARGS, "--cache-dir", str(tmp_path / "c"))
        assert (code, err) == (0, "")
        assert out == clean
        key, n, *_ = record
        assert cache.load_vector(key, n) == RecordCache(tmp_path / "clean").load_vector(key, n)

    def test_stale_orbit_record_is_never_read(self, capsys, tmp_path, monkeypatch):
        """An orbit record left by an older scan is ignored, even one that is wrong
        but looks like a structure of corteel: 10 fixed points and 7 2-orbits cover 4!."""
        _, clean, _ = run(capsys, *self.ARGS, "--cache-dir", str(tmp_path / "clean"))
        write_signed(RecordCache(tmp_path / "c"), "orbit_corteel", 4, 0, (1, 10, 2, 7))
        keys = []
        load_vector = RecordCache.load_vector
        monkeypatch.setattr(RecordCache, "load_vector",
                            lambda cache, key, n: keys.append(key) or load_vector(cache, key, n))
        assert run(capsys, *self.ARGS, "--cache-dir", str(tmp_path / "c")) == (0, clean, "")
        assert keys and not [key for key in keys if key.startswith("orbit_")]

    def test_names_may_be_spaced(self, capsys, tmp_path):
        """Spaces around the names of --stats and --maps are dropped, as in --criteria and a permutation."""
        cache = str(tmp_path / "c")
        spaced = ["scan", "--min-n", "4", "--max-n", "4",
                  "--stats", "st018, st021 ,st039", "--maps", " reverse, corteel"]
        assert run(capsys, *spaced, "--cache-dir", cache) == run(capsys, *self.ARGS, "--cache-dir", cache)

    def test_csv_and_md_views(self, capsys, tmp_path):
        cache = str(tmp_path / "c")
        _, csv_out, _ = run(capsys, *self.ARGS, "--cache-dir", cache, "--format", "csv")
        _, md_out, _ = run(capsys, *self.ARGS, "--cache-dir", cache, "--format", "md")
        _, json_out, _ = run(capsys, *self.ARGS, "--cache-dir", cache, "--format", "json")
        doc = json.loads(json_out)
        assert len(csv_out.strip().splitlines()) == 1 + len(doc["rows"])
        for row in doc["rows"]:
            assert row["pair"] in csv_out
            assert row["pair"].replace("|", "\\|") in md_out

    def test_report_bytes_pinned(self, capsys, tmp_path):
        """Every byte of every format is pinned by its sha256, the first run cold and the others warm."""
        args = ["scan", "--min-n", "4", "--max-n", "5", "--stats", "st018,st021,st539",
                "--maps", "reverse,rotation,corteel", "--cache-dir", str(tmp_path / "c")]
        digests = {}
        for fmt in ("json", "csv", "md"):
            code, out, err = run(capsys, *args, "--format", fmt)
            assert (code, err) == (0, "")
            digests[fmt] = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digests == {
            "json": "501d4dffd4184346db0bc9061fe90d09ec2f5bda71032f809f700bd7efbff304",
            "csv": "2cfc087553dd4c45b474f1dcd8f2e129396c4fba5ca7499c0679be5b4a2020fc",
            "md": "099c40d808b6937d3b15af3037041e580398d1b45379d01405bbb5a3b68c66b3",
        }

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_each_record_loaded_once(self, capsys, tmp_path, monkeypatch, workers):
        loads = []
        load_vector = RecordCache.load_vector

        def counted(cache, key, n):
            loads.append((key, n))
            return load_vector(cache, key, n)

        monkeypatch.setattr(RecordCache, "load_vector", counted)
        args = [*self.ARGS, "--max-n", "5", "--cache-dir", str(tmp_path / "c"),
                "--workers", workers]
        _, cold, _ = run(capsys, *args)
        cold_loads, loads[:] = list(loads), []
        _, warm, _ = run(capsys, *args)
        records = {(f"gf_{stat}", n) for n in (4, 5) for stat in ("st018", "st021", "st223")}
        assert sorted(cold_loads) == sorted(records)
        assert sorted(loads) == sorted(records)
        assert cold == warm

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_scan_loads_no_pool(self, tmp_path, workers):
        """A fresh interpreter that runs a scan, whatever its worker count, never imports concurrent.futures."""
        src = str(Path(cli.__file__).resolve().parents[1])
        script = ("import sys\n"
                  "from permsieve.cli import main\n"
                  f"code = main(['scan', '--min-n', '4', '--max-n', '4', '--cache-dir', {str(tmp_path)!r},"
                  f" '--output', {str(tmp_path / 'report.json')!r}, '--workers', {workers!r}])\n"
                  "print(code, 'concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "False", "False"]

    def test_argument_order_does_not_change_report(self, capsys, tmp_path):
        args = ["scan", "--min-n", "4", "--max-n", "5", "--cache-dir", str(tmp_path / "c")]
        code, given, _ = run(capsys, *args, "--stats", "st539,st018", "--maps", "rotation,reverse")
        assert code == 0
        assert given == run(capsys, *args, "--stats", "st018,st539", "--maps", "reverse,rotation")[1]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_raising_definition_fails_loudly(self, capsys, tmp_path, faulty_st018, workers):
        out_file = tmp_path / "report.json"
        code, out, err = run(capsys, "scan", "--min-n", "4", "--max-n", "5", "--stats", "st018",
                             "--maps", "reverse", "--workers", workers,
                             "--cache-dir", str(tmp_path / "c"), "--output", str(out_file))
        assert (code, out, err) == (2, "", f"error: {faulty_st018}\n")
        assert not out_file.exists()

    def test_output_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run(capsys, *self.ARGS, "--cache-dir", str(tmp_path / "c"),
                           "--output", str(out_file))
        assert code == 0 and out == ""
        json.loads(out_file.read_text())


@pytest.fixture
def hostile_cwd(tmp_path, monkeypatch):
    """A working directory with a ``permsieve.cfg`` and ``PERMSIEVE_CACHE_DIR`` set; neither is read."""
    (tmp_path / "permsieve.cfg").write_text("cache_dir = elsewhere\nworkers = two\nformat = xml\n")
    monkeypatch.setenv("PERMSIEVE_CACHE_DIR", str(tmp_path / "from_env"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestConfiguration:
    def test_settings_come_from_flags_only(self, capsys, hostile_cwd):
        code, out, _ = run(capsys, "scan", "--min-n", "4", "--max-n", "4",
                           "--stats", "st021", "--maps", "reverse")
        assert code == 0
        assert json.loads(out)["summary"]["pairs"] == 1
        assert list(hostile_cwd.glob("cache/*.rec"))
        assert sorted(p.name for p in hostile_cwd.iterdir()) == ["cache", "permsieve.cfg"]

    def test_scan_determinism_criterion_ignores_the_working_directory(self, capsys, hostile_cwd):
        code, out, _ = run(capsys, "verify", "--criteria", "12")
        assert (code, out.splitlines()[0]) == (
            0, "criterion 12 [PASS] scan determinism (cold/warm cache, worker count)")


class TestScanUsageErrors:
    """Bad scan flags exit 2 with one line."""

    @pytest.mark.parametrize("argv", [
        ["--workers", "-3"],
        ["--workers", "0"],
        ["--min-n", "3", "--max-n", "9"],
        ["--stats", "nope"],
        ["--stats", "\u00b2"],
        ["--stats", ""],
        ["--maps", ""],
    ], ids=["negative-workers", "zero-workers", "range-beyond-max", "unknown-statistic",
            "superscript-statistic", "empty-stats", "empty-maps"])
    def test_exits_two_with_one_line(self, capsys, tmp_path, monkeypatch, argv):
        """And leaves no cache directory behind."""
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "scan", "--min-n", "4", "--max-n", "4",
                             "--stats", "st021", "--maps", "reverse", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "cache").exists()


EDGE_CASES = {
    "empty list": [],
    "empty dict": {},
    "none": None,
    "bools": [True, False],
    "ints and bools": [1, True, 0, False, -3],
    "negative": -7,
    "big ints": [0, -1, 2**70],
    "floats": [0.1, -2.0, 1e-300, float("inf")],
    "strings": ['a "quote"', "back\\slash", "new\nline", "na\u00efve \u2211 \U0001f600"],
    "tuple": (1, 2, 3),
    "nested tuples": ("a", (1,), ()),
    "nested": [[[1, 2], [], [None]], {"b": [{"c": {"d": [False]}}], "a": [[]]}],
    "": "empty key",
    'key "quoted"': True,
}


GF = IntPolynomial((1, 3, 5, 6, 5, 3, 1))
ROW = ScanRow("st018|reverse", 4, True, (24, 0), "2^12", GF)
VERDICT = PairVerdict("st018|reverse", "st018", "reverse", "apparent", (4,))

RECORD_CASES = {
    # a memo keyed by id alone would write the second copy at the first one's indentation
    "one record at two depths": {"gf": GF, "rows": [{"gf": GF}, [[GF]]]},
    "one record twice at one depth": [GF, GF, {"a": GF, "b": GF}],
    "nested records": ScanReport(4, 4, (ROW, ROW), (VERDICT,), (DedupClass(("st018|reverse",), True, ("2^12",)),)),
    "empty lists and dicts": {"a": [], "b": {}, "c": [[], {}, ()], "d": IntPolynomial.zero()},
    "bool inside an int list": [[1, True, 2], [0, False], (3, False)],
    "floats and none": [0.5, None, -1e-10, {"x": None, "y": 2.5, "z": [1.0, GF]}],
}


class TestJsonWriter:
    """Every JSON output is ``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte."""

    def test_edge_cases(self):
        assert to_json(EDGE_CASES) == json.dumps(EDGE_CASES, sort_keys=True, indent=2) + "\n"
        for value in EDGE_CASES.values():
            assert to_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("doc", RECORD_CASES.values(), ids=RECORD_CASES)
    def test_records_rendered_once_per_depth(self, doc):
        """A generating function's text is kept per call under its id and indentation."""
        assert to_json(doc) == json.dumps(doc, sort_keys=True, indent=2, default=vars) + "\n"
        assert to_json([doc, doc]) == json.dumps([doc, doc], sort_keys=True, indent=2, default=vars) + "\n"

    def test_scan_report(self, monkeypatch):
        docs = []
        monkeypatch.setattr(cli, "to_json", lambda doc: docs.append(doc) or to_json(doc))
        text = cli.scan_report_to_json(scan(4, 6))
        assert text == json.dumps(docs[0], sort_keys=True, indent=2, default=vars) + "\n"

    @pytest.mark.parametrize("argv", [
        ["stat", "gf", "st018", "--n", "5"],
        ["map", "orbits", "corteel", "--n", "5"],
        ["csp", "check", "st020", "lehmer_code_rotation", "--n", "8"],  # float_evals are floats
    ], ids=["stat-gf", "map-orbits", "csp-check"])
    def test_single_pair_commands(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
