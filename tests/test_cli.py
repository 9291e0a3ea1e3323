import json
import subprocess
import sys
import time

import pytest

from crlie import cli, crcore, realforms
from crlie.cli import (
    ProblemError,
    emit_report,
    parse_problem,
    run,
)

HOROCYCLIC = {
    "ambient": {"system": "C2"},
    "subalgebra": {"roots": ["2e1", "2e2", "e1+e2"], "toral": "full"},
}

ORBIT_SU13 = {
    "ambient": {"form": "su:1,3"},
    "subalgebra": {"minimal-orbit": True},
    "crosses": [2],
}

EMPTY = {"ambient": {"system": "A2"}, "subalgebra": {"roots": [], "toral": "zero"}}


def violations_of(prob):
    with pytest.raises(ProblemError) as err:
        parse_problem(prob)
    return err.value.violations


class TestParseProblem:
    def test_minimal_valid_file(self):
        prob = parse_problem(
            {
                "ambient": {"form": "compact-sp:2"},
                "subalgebra": {"roots": ["2e1", "2e2", "e1+e2"], "toral": "full"},
            }
        )
        assert prob.ambient_kind == "form"
        assert prob.subalgebra_kind == "roots"
        assert str(prob.form) == "compact-sp:2"
        assert prob.sub_roots == ("2e1", "2e2", "e1+e2")
        assert prob.seed == 0 and prob.format == "json"

    def test_minimal_orbit_file_matches_bundled_fixture(self):
        from importlib import resources

        bundled = json.loads(
            (resources.files("crlie") / "corpus" / "su23-analyze.json").read_text()
        )["problem"]
        prob = parse_problem(
            {
                "ambient": {"form": "su:2,3"},
                "subalgebra": {"minimal-orbit": True},
                "crosses": [1, 3],
            }
        )
        other = parse_problem(bundled)
        assert prob.form == other.form
        assert prob.crosses == other.crosses == (1, 3)
        assert prob.subalgebra_kind == other.subalgebra_kind == "minimal-orbit"

    def test_both_subalgebra_sources_named(self):
        msgs = violations_of(
            {
                "ambient": {"system": "A2"},
                "subalgebra": {"roots": [], "matrices": [[["0"]]]},
            }
        )
        assert any("matrices" in m and "roots" in m for m in msgs)

    def test_all_violations_reported_together(self):
        msgs = violations_of(
            {
                "ambient": {"form": "su:9,9", "system": "A2"},
                "subalgebra": {},
                "bogus": 1,
                "options": {"seed": -3, "volume": 11},
            }
        )
        joined = "\n".join(msgs)
        assert "bogus" in joined
        assert "ambient" in joined
        assert "subalgebra" in joined
        assert "options.seed" in joined
        assert "options.volume" in joined
        assert len(msgs) >= 5

    def test_crosses_need_minimal_orbit(self):
        msgs = violations_of({**HOROCYCLIC, "crosses": [1]})
        assert any(m.startswith("crosses:") for m in msgs)

    def test_minimal_orbit_needs_crosses_and_form(self):
        msgs = violations_of(
            {"ambient": {"system": "A2"}, "subalgebra": {"minimal-orbit": True}}
        )
        joined = "\n".join(msgs)
        assert "crosses: required" in joined
        assert "real-form ambient" in joined

    def test_roots_need_root_data_ambient(self):
        msgs = violations_of(
            {
                "ambient": {"matrices": [[["i", "0"], ["0", "-i"]]]},
                "subalgebra": {"roots": ["e1-e2"]},
            }
        )
        assert any("root-system or real-form ambient" in m for m in msgs)

    def test_bad_system_and_form_tags(self):
        assert any(
            "ambient.system" in m
            for m in violations_of(
                {"ambient": {"system": "E8"}, "subalgebra": {"roots": []}}
            )
        )
        assert any(
            "ambient.form" in m
            for m in violations_of(
                {
                    "ambient": {"form": "sp:1,1"},
                    "subalgebra": {"minimal-orbit": True},
                    "crosses": [1],
                }
            )
        )

    def test_bad_toral(self):
        msgs = violations_of(
            {
                "ambient": {"system": "A2"},
                "subalgebra": {"roots": [], "toral": "everything"},
            }
        )
        assert any("subalgebra.toral" in m for m in msgs)

    def test_toral_rows_accepted(self):
        prob = parse_problem(
            {
                "ambient": {"system": "A2"},
                "subalgebra": {"roots": [], "toral": [["1", "-1", "0"]]},
            }
        )
        assert prob.sub_toral == (("1", "-1", "0"),)

    def test_ragged_matrix_rejected(self):
        msgs = violations_of(
            {
                "ambient": {"matrices": [[["1", "0"], ["0"]]]},
                "subalgebra": {"matrices": [[["1", "0"], ["0", "1"]]]},
            }
        )
        assert any("square" in m for m in msgs)

    def test_json_text_and_path_sources(self, tmp_path):
        text = json.dumps(HOROCYCLIC)
        assert parse_problem(text).sub_roots == ("2e1", "2e2", "e1+e2")
        path = tmp_path / "problem.json"
        path.write_text(text)
        assert parse_problem(str(path)).sub_roots == ("2e1", "2e2", "e1+e2")

    def test_unreadable_sources(self, tmp_path):
        with pytest.raises(ProblemError, match="not valid JSON"):
            parse_problem("{broken")
        with pytest.raises(ProblemError, match="cannot read"):
            parse_problem(str(tmp_path / "missing.json"))
        with pytest.raises(ProblemError, match="JSON object"):
            parse_problem("[1, 2]")

    def test_options_validated(self):
        msgs = violations_of(
            {
                **EMPTY,
                "options": {"seed": True, "rank_cap": 0, "format": "xml"},
            }
        )
        joined = "\n".join(msgs)
        assert "options.seed" in joined
        assert "options.rank_cap" in joined
        assert "options.format" in joined


class TestRun:
    def test_analyze_circle_bundle_dims(self):
        report = run("analyze", parse_problem(ORBIT_SU13))
        assert report["dims"]["cr_dim"] == 3
        assert report["dims"]["cr_codim"] == 1
        payload = emit_report(report, "json")
        assert b'"cr_dim": 3' in payload
        assert b'"cr_codim": 1' in payload

    def test_analyze_empty_subalgebra(self):
        report = run("analyze", parse_problem(EMPTY))
        assert report["dims"]["v"] == 0
        assert report["dims"]["nr"] == 0
        assert report["flags"]["n_reductive"] is True

    def test_regularize_horocyclic_levi_pair(self):
        report = run("regularize", parse_problem(HOROCYCLIC))
        assert report["chain"]["dims"] == [5, 7, 7]
        assert report["parabolic"]["reductive"] == ["-e1+e2", "e1-e2"]
        assert report["ok"] is True

    def test_par_commands_need_regular_backend(self):
        prob = parse_problem(ORBIT_SU13)
        with pytest.raises(ValueError, match="par-max needs"):
            run("par-max", prob)
        with pytest.raises(ValueError, match="par-min needs"):
            run("par-min", prob)

    def test_roots_embed_into_compact_forms(self):
        prob = parse_problem(
            {
                "ambient": {"form": "compact-sp:2"},
                "subalgebra": {"roots": ["2e1", "2e2", "e1+e2"], "toral": "full"},
            }
        )
        report = run("analyze", prob)
        assert report["backend"] == "matrix"
        assert report["dims"]["v"] == 5
        assert report["flags"]["n_reductive"] is True

    def test_matrix_ambient_with_matrix_subalgebra(self):
        units = [
            [["0", "1"], ["0", "0"]],
            [["0", "0"], ["1", "0"]],
            [["1", "0"], ["0", "0"]],
            [["0", "0"], ["0", "1"]],
        ]
        prob = parse_problem(
            {
                "ambient": {"matrices": units},
                "subalgebra": {"matrices": [[["1", "0"], ["0", "-1"]]]},
            }
        )
        report = run("analyze", prob)
        assert report["backend"] == "matrix"
        assert report["dims"] == {
            "ambient": 4,
            "v": 1,
            "nr": 0,
            "levi": 1,
            "cr_dim": 0,
            "cr_codim": 3,
        }

    def test_non_closed_matrix_subalgebra_rejected(self):
        units = [
            [["0", "1"], ["0", "0"]],
            [["0", "0"], ["1", "0"]],
            [["1", "0"], ["0", "0"]],
            [["0", "0"], ["0", "1"]],
        ]
        prob = parse_problem(
            {
                "ambient": {"matrices": units},
                "subalgebra": {"matrices": units[:2]},
            }
        )
        with pytest.raises(ValueError, match="not closed under brackets"):
            run("analyze", prob)

    def test_bad_root_literal_fails_at_resolution(self):
        prob = parse_problem(
            {"ambient": {"system": "A2"}, "subalgebra": {"roots": ["e1+e2"]}}
        )
        with pytest.raises(ValueError, match="not a root"):
            run("analyze", prob)

    def test_seed_is_echoed(self):
        prob = parse_problem({**EMPTY, "options": {"seed": 17}})
        assert run("analyze", prob)["seed"] == 17

    def test_timings_are_opt_in(self):
        prob = parse_problem(EMPTY)
        assert run("analyze", prob)["timings"] is None
        prob = parse_problem({**EMPTY, "options": {"timings": True}})
        timed = run("analyze", prob)["timings"]
        assert set(timed) == {"seconds"}
        assert timed["seconds"] >= 0

    def test_timings_cover_resolve(self, monkeypatch):
        resolve = cli._resolve

        def slow_resolve(problem):
            time.sleep(0.05)
            return resolve(problem)

        monkeypatch.setattr(cli, "_resolve", slow_resolve)
        prob = parse_problem({**EMPTY, "options": {"timings": True}})
        assert run("analyze", prob)["timings"]["seconds"] >= 0.05

    def test_analyze_computes_each_object_once(self, monkeypatch):
        realforms.build_real_form("su:1,3")
        calls = dict.fromkeys(("regularity_type", "theta_sets", "classify_roots"), 0)
        for module in (cli, crcore, realforms):
            for name in calls:
                original = getattr(module, name, None)
                if original is None:
                    continue

                def counted(*args, _name=name, _original=original, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        report = run("analyze", parse_problem(ORBIT_SU13))
        assert report["types"] is not None
        assert calls == {"regularity_type": 1, "theta_sets": 1, "classify_roots": 0}


class TestEmitReport:
    def test_same_report_same_bytes(self):
        report = run("analyze", parse_problem(EMPTY))
        assert emit_report(report, "json") == emit_report(report, "json")
        assert emit_report(report, "text") == emit_report(report, "text")

    def test_json_round_trips(self):
        report = run("regularize", parse_problem(HOROCYCLIC))
        assert json.loads(emit_report(report, "json")) == report

    def test_reruns_are_byte_identical(self):
        first = emit_report(run("analyze", parse_problem(EMPTY)), "json")
        second = emit_report(run("analyze", parse_problem(EMPTY)), "json")
        assert first == second

    def test_text_uses_root_syntax(self):
        report = run("regularize", parse_problem(HOROCYCLIC))
        text = emit_report(report, "text").decode("ascii")
        assert "reductive: [-e1+e2, e1-e2]" in text
        assert "dims: [5, 7, 7]" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report({}, "yaml")


class TestCorpus:
    def test_corpus_all_green(self):
        report = run("corpus", None)
        assert report["ok"] is True
        names = [f["name"] for f in report["fixtures"]]
        assert len(names) == 15
        assert names == sorted(names)
        assert all(f["ok"] and not f["mismatches"] for f in report["fixtures"])

    def test_corpus_parallel(self, monkeypatch):
        cheap = ["zero-subalgebra-analyze.json", "sp2-horocyclic-regularize.json"]
        monkeypatch.setattr(cli, "_fixture_names", lambda: sorted(cheap))
        report = run("corpus", None, jobs=2)
        assert report["ok"] is True
        assert [f["name"] for f in report["fixtures"]] == sorted(cheap)

    def test_expectation_mismatches_have_paths(self):
        actual = {"dims": {"v": 4}, "flags": {"n_reductive": True}}
        msgs = cli._expect_mismatches(
            {"dims": {"v": 5, "nr": 2}, "flags": {"n_reductive": True}}, actual
        )
        assert "dims.nr: missing from report" in msgs
        assert any(m.startswith("dims.v: expected 5") for m in msgs)

    def test_failing_fixture_drives_exit_code(self, monkeypatch, capsysbinary):
        monkeypatch.setattr(
            cli,
            "_run_corpus",
            lambda jobs=1: {
                "command": "corpus",
                "ok": False,
                "fixtures": [
                    {
                        "name": "broken.json",
                        "command": "analyze",
                        "ok": False,
                        "mismatches": ["dims.v: expected 5, got 4"],
                    }
                ],
            },
        )
        assert cli.main(["corpus"]) == 2
        out = capsysbinary.readouterr().out
        assert b"dims.v: expected 5, got 4" in out

    def test_internal_error_fails_only_its_fixture(self, monkeypatch):
        def unstable(v):
            raise RuntimeError("regularization did not stabilize")

        monkeypatch.setattr(cli, "regularize_regular", unstable)
        cheap = ["zero-subalgebra-analyze.json", "sp2-horocyclic-regularize.json"]
        monkeypatch.setattr(cli, "_fixture_names", lambda: sorted(cheap))
        report = run("corpus", None)
        assert report["ok"] is False
        broken, fine = report["fixtures"]
        assert broken["name"] == "sp2-horocyclic-regularize.json"
        assert broken["mismatches"] == [
            "execution failed: regularization did not stabilize"
        ]
        assert fine["ok"] is True


class TestMain:
    def test_analyze_file(self, tmp_path, capsysbinary):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(HOROCYCLIC))
        assert cli.main(["analyze", str(path)]) == 0
        out = capsysbinary.readouterr().out
        report = json.loads(out)
        assert report["dims"]["v"] == 5
        assert report["flags"]["n_reductive"] is True

    def test_schema_violations_exit_one(self, tmp_path, capsysbinary):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"ambient": {}, "subalgebra": {}}))
        assert cli.main(["analyze", str(path)]) == 1
        err = capsysbinary.readouterr().err.decode()
        assert "ambient" in err and "subalgebra" in err

    def test_missing_file_exits_one(self, tmp_path, capsysbinary):
        assert cli.main(["analyze", str(tmp_path / "nope.json")]) == 1
        assert b"cannot read" in capsysbinary.readouterr().err

    def test_internal_error_exits_two(self, tmp_path, monkeypatch, capsysbinary):
        def no_generic(v, seed=0):
            raise RuntimeError("no generic element found for the maximal torus")

        monkeypatch.setattr(cli, "regularity_type", no_generic)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**HOROCYCLIC, "ambient": {"form": "compact-sp:2"}}))
        assert cli.main(["analyze", str(path)]) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err == (
            b"crlie: internal check failed: "
            b"no generic element found for the maximal torus\n"
        )

    def test_usage_errors_exit_one(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate", "x.json"])
        assert err.value.code == 1
        with pytest.raises(SystemExit) as err:
            cli.main(["analyze"])
        assert err.value.code == 1
        with pytest.raises(SystemExit) as err:
            cli.main(["corpus", "extra.json"])
        assert err.value.code == 1

    def test_text_format_flag(self, tmp_path, capsysbinary):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(HOROCYCLIC))
        assert cli.main(["regularize", str(path), "--format", "text"]) == 0
        out = capsysbinary.readouterr().out.decode("ascii")
        assert "reductive: [-e1+e2, e1-e2]" in out

    def test_format_option_in_problem_file(self, tmp_path, capsysbinary):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**EMPTY, "options": {"format": "text"}}))
        assert cli.main(["analyze", str(path)]) == 0
        out = capsysbinary.readouterr().out
        assert out.startswith(b"backend: regular")

    def test_seed_flag_overrides_options(self, tmp_path, capsysbinary):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**EMPTY, "options": {"seed": 3}}))
        assert cli.main(["analyze", str(path), "--seed", "9"]) == 0
        assert json.loads(capsysbinary.readouterr().out)["seed"] == 9

    def test_reruns_byte_identical(self, tmp_path, capsysbinary):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(HOROCYCLIC))
        assert cli.main(["par-min", str(path)]) == 0
        first = capsysbinary.readouterr().out
        assert cli.main(["par-min", str(path)]) == 0
        assert capsysbinary.readouterr().out == first

    def test_matrix_backend_survives_optimized_interpreter(self, tmp_path):
        from importlib import resources

        fixture = json.loads(
            (resources.files("crlie") / "corpus" / "slh2-analyze.json").read_text()
        )
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(fixture["problem"]))
        done = subprocess.run(
            [sys.executable, "-O", "-m", "crlie", "analyze", str(path)],
            capture_output=True,
        )
        assert done.returncode == 0, done.stderr.decode()
        report = json.loads(done.stdout)
        assert report["backend"] == "matrix"
        assert report["dims"] == fixture["expect"]["dims"]

    def test_console_entry_point(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(HOROCYCLIC))
        done = subprocess.run(
            [sys.executable, "-m", "crlie", "par-max", str(path)],
            capture_output=True,
            check=True,
        )
        report = json.loads(done.stdout)
        assert report["par"]["count"] == 1
        assert report["par"]["members"][0]["z_component_dims"] == [3]
        usage = subprocess.run(
            [sys.executable, "-m", "crlie", "par-max"], capture_output=True
        )
        assert usage.returncode == 1
