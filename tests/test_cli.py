"""Command-line surface: worked examples, exit codes, formats, cache behavior."""

import json

import pytest

from permsieve.cache import RecordCache
from permsieve.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, _, err = run(capsys, "stat", "eval", "st9999", "123")
        assert code == 2
        assert "unknown" in err

    def test_bad_permutation_exits_two(self, capsys):
        code, _, err = run(capsys, "stat", "eval", "st018", "2231")
        assert code == 2

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--format", "yaml"])
        assert exc.value.code == 2


class TestListingAndGf:
    def test_stat_list(self, capsys):
        code, out, _ = run(capsys, "stat", "list")
        assert code == 0
        assert "st039 [39]: number of crossings" in out

    def test_map_list(self, capsys):
        code, out, _ = run(capsys, "map", "list")
        assert code == 0
        assert "corteel [239]" in out

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
        assert (tmp_path / "c").exists()
        _, warm, _ = run(capsys, *self.ARGS, "--cache-dir", cache)
        assert cold == warm

    def test_corrupt_cache_recomputed(self, capsys, tmp_path):
        cache_dir = tmp_path / "c"
        _, cold, _ = run(capsys, *self.ARGS, "--cache-dir", str(cache_dir))
        for rec in cache_dir.glob("*.rec"):
            rec.write_bytes(b"garbage")
        _, recomputed, _ = run(capsys, *self.ARGS, "--cache-dir", str(cache_dir))
        assert recomputed == cold

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
        records = {(f"{kind}_{key}", n) for n in (4, 5)
                   for kind, keys in (("gf", ("st018", "st021", "st039")),
                                      ("orbit", ("reverse", "corteel")))
                   for key in keys}
        assert sorted(cold_loads) == sorted(records)
        assert sorted(loads) == sorted(records)
        assert cold == warm

    def test_output_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run(capsys, *self.ARGS, "--cache-dir", str(tmp_path / "c"),
                           "--output", str(out_file))
        assert code == 0 and out == ""
        json.loads(out_file.read_text())


class TestConfiguration:
    def test_env_var_cache_dir(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("PERMSIEVE_CACHE_DIR", str(target))
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "scan", "--min-n", "4", "--max-n", "4",
                         "--stats", "st021", "--maps", "reverse")
        assert code == 0
        assert target.exists() and list(target.glob("*.rec"))

    def test_config_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "from_cfg"
        (tmp_path / "permsieve.cfg").write_text(f"cache_dir = {target}\n# comment\n")
        code, _, _ = run(capsys, "scan", "--min-n", "4", "--max-n", "4",
                         "--stats", "st021", "--maps", "reverse")
        assert code == 0
        assert target.exists()

    def test_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PERMSIEVE_CACHE_DIR", str(tmp_path / "ignored"))
        explicit = tmp_path / "explicit"
        code, _, _ = run(capsys, "scan", "--min-n", "4", "--max-n", "4",
                         "--stats", "st021", "--maps", "reverse",
                         "--cache-dir", str(explicit))
        assert code == 0
        assert explicit.exists() and not (tmp_path / "ignored").exists()
