import json
import subprocess
import sys
import time

import pytest

from crlie import cli, crcore, fibration, matrixlie, realforms
from crlie.cli import (
    ProblemError,
    emit_report,
    parse_problem,
    run,
)
from crlie.rootsys import build_root_system, enumerate_parabolics, format_root

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

    @pytest.mark.parametrize(
        "command, system, roots, count, levis",
        [
            ("par-min", "A4", ["e1-e2"], 60, 1),
            ("par-max", "D4", ["e1+e2"], 15, 15),
            ("par-max", "B3", ["e1-e2", "e3"], 5, 5),
        ],
    )
    def test_par_commands_compute_each_center_once(
        self, monkeypatch, command, system, roots, count, levis
    ):
        # the finder's own _center calls come before the batch; the batch
        # makes one per distinct Levi set of the members
        centers, batches = [], []
        center, batch = fibration._center, cli.z_root_decompositions

        def counted_center(system, rootset):
            centers.append(frozenset(rootset))
            return center(system, rootset)

        def counted_batch(qs):
            batches.append(len(centers))
            return batch(qs)

        monkeypatch.setattr(fibration, "_center", counted_center)
        monkeypatch.setattr(cli, "z_root_decompositions", counted_batch)
        problem = {"ambient": {"system": system}, "subalgebra": {"roots": roots}}
        members = run(command, parse_problem(problem))["par"]["members"]
        assert len(members) == count
        assert len({tuple(m["reductive"]) for m in members}) == levis
        assert len(batches) == 1
        in_batch = centers[batches[0]:]
        assert len(in_batch) == len(set(in_batch)) == levis

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
        calls = dict.fromkeys(
            ("regularity_type", "theta_sets", "classify_roots", "nilradical_nr"), 0
        )
        for module in (cli, crcore, realforms, matrixlie):
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
        # the orbit's own split serves the report: one nilradical, no repeat
        assert calls == {
            "regularity_type": 1,
            "theta_sets": 1,
            "classify_roots": 0,
            "nilradical_nr": 1,
        }

    def test_full_torus_searched_once_per_ambient(self, monkeypatch):
        searches = {}
        original = matrixlie.maximal_torus

        def counted(sub, *args, **kwargs):
            if sub.dim == sub.ambient.dim:
                searches[sub.ambient] = searches.get(sub.ambient, 0) + 1
            return original(sub, *args, **kwargs)

        for module in (crcore, matrixlie):
            monkeypatch.setattr(module, "maximal_torus", counted)
        problems = [
            ORBIT_SU13,
            {**ORBIT_SU13, "crosses": [1, 3]},
            {"ambient": {"form": "compact-sp:2"}, "subalgebra": HOROCYCLIC["subalgebra"]},
        ]
        for problem in problems:
            k = realforms.build_real_form(problem["ambient"]["form"]).k
            monkeypatch.delitem(k.__dict__, "rank", raising=False)
        for seed in (0, 1):
            for problem in problems:
                prob = parse_problem({**problem, "options": {"seed": seed}})
                assert run("analyze", prob)["flags"]["regularity"] is not None
        # one torus for su(1,3)'s k and one for sp(2)'s, each verified
        assert list(searches.values()) == [1, 1]

    @pytest.mark.parametrize(
        "fixture", ["su13-crosses12-lift.json", "su23-regularize.json"]
    )
    def test_one_nilradical_per_subalgebra(self, monkeypatch, fixture):
        spaces = []
        original = matrixlie.nilradical_nr

        def counted(sub):
            spaces.append(sub.space)
            return original(sub)

        monkeypatch.setattr(matrixlie, "nilradical_nr", counted)
        assert cli._run_fixture(fixture)["ok"]
        assert spaces and len(set(spaces)) == len(spaces)

    def test_analyze_searches_the_full_torus_once(self, monkeypatch):
        # N(0) and N(L(0)) are the whole of u(3), whose rank is already known
        full = []
        original = matrixlie.maximal_torus

        def counted(sub, *args, **kwargs):
            full.append(sub.dim == sub.ambient.dim)
            return original(sub, *args, **kwargs)

        for module in (crcore, matrixlie):
            monkeypatch.setattr(module, "maximal_torus", counted)
        # the rank is kept per ambient: start from one that has not built it
        k = realforms.build_real_form("compact-u:3").k
        monkeypatch.delitem(k.__dict__, "rank", raising=False)
        problem = {
            "ambient": {"form": "compact-u:3"},
            "subalgebra": {"roots": [], "toral": "zero"},
        }
        report = run("analyze", parse_problem(problem))
        assert report["flags"]["regularity"] == {
            "kind": "I",
            "ambient_rank": 3,
            "v_normalizer_rank": 3,
            "levi_normalizer_rank": 3,
        }
        assert full.count(True) == 1


class TestParabolicOut:
    @pytest.mark.parametrize("tag", ["A3", "B3", "C3", "D4"])
    def test_mask_rendering_matches_root_sets(self, tag):
        system = build_root_system(tag[0], int(tag[1:]))
        for q in enumerate_parabolics(system):
            assert cli._root_parabolic_out(q) == {
                "dim": q.dim,
                "nilpotent": cli._roots_out(q.q_n),
                "reductive": cli._roots_out(q.q_r),
            }


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

    @staticmethod
    def dumps(value):
        return (json.dumps(value, sort_keys=True, indent=2) + "\n").encode("ascii")

    def test_json_is_json_dumps_on_the_corpus(self):
        # emit_report writes indented JSON itself; every corpus report, and
        # the corpus summary, must come out byte for byte as json.dumps
        reports = [run("corpus", None)]
        names = cli._fixture_names()
        for name in names:
            data = json.loads((cli._corpus() / name).read_text("utf-8"))
            if data["command"] in cli._DISPATCH:
                reports.append(run(data["command"], parse_problem(data["problem"])))
        assert len(reports) == len(names) + 1
        for report in reports:
            assert emit_report(report, "json") == self.dumps(report)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            (),
            {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": []}}},
            [True, False, None],
            {"yes": True, "no": False, "none": None},
            [True, 1, 0, False],
            "snow☃ café \"q\" \\ \n\t\x00\x1f\x7f",
            ["é", "\x01", ""],
            [-1, 0, -7, 2**70, -(2**70)],
            -3,
            [1, "a", None, 2.5, [3, []], {"k": ("x", -1)}],
            {"z": 1, "a": {"y": [1, 2], "b": ["s", "t"]}, "m": [{"b": 1, "a": 2}]},
            [0.1, -0.0, 1e300, float("inf"), float("nan")],
        ],
    )
    def test_json_is_json_dumps_on_edge_values(self, value):
        report = {"value": value, "list": [value], "ok": True}
        assert emit_report(report, "json") == self.dumps(report)
        assert emit_report(value, "json") == self.dumps(value)


class TestCorpus:
    def test_corpus_all_green(self):
        report = run("corpus", None)
        assert report["ok"] is True
        names = [f["name"] for f in report["fixtures"]]
        assert names == cli._fixture_names()
        assert {"compact-u6-analyze.json", "su34-analyze.json"} <= set(names)
        assert names == sorted(names)
        assert all(f["ok"] and not f["mismatches"] for f in report["fixtures"])

    def test_every_command_has_a_fixture_on_each_backend(self):
        covered = set()
        for name in cli._fixture_names():
            data = json.loads((cli._corpus() / name).read_text("utf-8"))
            covered.add((data["command"], data["expect"]["backend"]))
        # par-max and par-min accept the root backend only
        wanted = {(c, b) for c in cli._DISPATCH for b in ("matrix", "regular")}
        wanted -= {("par-max", "matrix"), ("par-min", "matrix")}
        assert wanted <= covered

    def test_corpus_parallel(self, monkeypatch):
        cheap = ["zero-subalgebra-analyze.json", "sp2-horocyclic-regularize.json"]
        monkeypatch.setattr(cli, "_fixture_names", lambda: sorted(cheap))
        report = run("corpus", None, jobs=2)
        assert report["ok"] is True
        assert [f["name"] for f in report["fixtures"]] == sorted(cheap)

    def test_pool_has_at_most_one_worker_per_fixture(self, monkeypatch):
        # the fork start method launches every worker at the first submit,
        # so --jobs beyond the fixture count would fork idle processes
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(
            cli, "_run_fixture", lambda name: {"name": name, "ok": True}
        )
        report = run("corpus", None, jobs=1000)
        count = len(cli._fixture_names())
        assert sizes == [count]
        assert len(report["fixtures"]) == count

    def test_import_leaves_the_process_pool_unloaded(self):
        # only corpus --jobs > 1 uses the pool, which slows every start-up
        script = (
            "import sys\n"
            "import crlie.cli\n"
            "pool = ('multiprocessing', 'concurrent.futures')\n"
            "print([name for name in pool if name in sys.modules])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"

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


class TestResolve:
    """Toral rows given explicitly, and matrices in a real form's k."""

    A2_PAIR = {"ambient": {"system": "A2"}, "subalgebra": {"roots": ["e1-e2", "e2-e1"]}}
    SU12 = {"ambient": {"form": "su:1,2"}}

    @staticmethod
    def main(tmp_path, command, problem):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        return cli.main([command, str(path)])

    def test_explicit_toral_rows(self, tmp_path, capsysbinary):
        problem = {**self.A2_PAIR}
        problem["subalgebra"] = {**problem["subalgebra"], "toral": [["1", "-1", "0"]]}
        assert self.main(tmp_path, "analyze", problem) == 0
        dims = json.loads(capsysbinary.readouterr().out)["dims"]
        assert dims == {
            "v": 3, "ambient": 8, "nr": 0, "levi": 3, "cr_dim": 0, "cr_codim": 5,
        }

    def test_toral_row_of_the_wrong_length(self, tmp_path, capsysbinary):
        problem = {**self.A2_PAIR}
        problem["subalgebra"] = {**problem["subalgebra"], "toral": [["1", "-1"]]}
        assert self.main(tmp_path, "analyze", problem) == 1
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err == (
            b"crlie: toral rows must have 3 coordinates for RootSystem(A2)\n"
        )

    def test_matrices_in_the_compact_part_of_a_form(self, tmp_path, capsysbinary):
        diag = [["1", "0", "0"], ["0", "-2", "0"], ["0", "0", "1"]]
        problem = {**self.SU12, "subalgebra": {"matrices": [diag]}}
        assert self.main(tmp_path, "analyze", problem) == 0
        report = json.loads(capsysbinary.readouterr().out)
        assert report["ok"] is True and report["dims"]["v"] == 1

    def test_matrix_outside_the_compact_part(self, tmp_path, capsysbinary):
        diag = [["i", "0", "0"], ["0", "-i", "0"], ["0", "0", "0"]]
        problem = {**self.SU12, "subalgebra": {"matrices": [diag]}}
        assert self.main(tmp_path, "analyze", problem) == 1
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err == b"crlie: matrix outside the ambient algebra\n"


class TestMain:
    def test_analyze_file(self, tmp_path, capsysbinary):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(HOROCYCLIC))
        assert cli.main(["analyze", str(path)]) == 0
        out = capsysbinary.readouterr().out
        report = json.loads(out)
        assert report["dims"]["v"] == 5
        assert report["flags"]["n_reductive"] is True

    def test_rank_cap_option_is_unknown(self, tmp_path, capsysbinary):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**HOROCYCLIC, "options": {"rank_cap": 7}}))
        assert cli.main(["par-min", str(path)]) == 1
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err == b"crlie: options.rank_cap: unknown option\n"

    def test_rank_cap_flag_is_a_usage_error(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(HOROCYCLIC))
        with pytest.raises(SystemExit) as err:
            cli.main(["par-min", str(path), "--rank-cap", "7"])
        assert err.value.code == 1

    @pytest.mark.parametrize("command", ["par-max", "par-min"])
    def test_par_at_rank_seven(self, tmp_path, capsysbinary, command):
        # v = the 28 positive roots of A7 without toral part: a member of
        # Par(v) contains R+ and its Levi misses R+, so the Borel is the one
        path = tmp_path / "problem.json"
        positive = build_root_system("A", 7).positive_roots
        path.write_text(
            json.dumps(
                {
                    "ambient": {"system": "A7"},
                    "subalgebra": {"roots": [format_root(a) for a in positive]},
                }
            )
        )
        assert cli.main([command, str(path)]) == 0
        par = json.loads(capsysbinary.readouterr().out)["par"]
        assert par["count"] == 1
        assert par["members"][0]["dim"] == 35

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize(
        ("problem", "message"),
        [
            (
                {**EMPTY, "subalgebra": {"roots": ["e\uff11-e\uff12"]}},
                "subalgebra.roots: bad root literal 'e\uff11-e\uff12'",
            ),
            (
                {**EMPTY, "ambient": {"system": "A\uff12"}},
                "ambient.system: expected a tag like 'B3', got 'A\uff12'",
            ),
            (
                {**ORBIT_SU13, "ambient": {"form": "su:\uff11,\uff13"}},
                "ambient.form: non-integer parameter in 'su:\uff11,\uff13'",
            ),
            (
                {**ORBIT_SU13, "ambient": {"form": "su:1,1_0"}},
                "ambient.form: non-integer parameter in 'su:1,1_0'",
            ),
            (
                {**EMPTY, "subalgebra": {"roots": [], "toral": [["\uff11", "-1", "0"]]}},
                "subalgebra.toral: bad entry: bad rational literal '\uff11'",
            ),
            (
                {**EMPTY, "subalgebra": {"roots": [], "toral": [["1/0", "-1", "0"]]}},
                "subalgebra.toral: bad entry: bad rational literal '1/0'",
            ),
            (
                {**EMPTY, "subalgebra": {"roots": [], "toral": [["0", "-1", "3/00"]]}},
                "subalgebra.toral: bad entry: bad rational literal '3/00'",
            ),
            (
                {
                    "ambient": {"matrices": [[["1/0", "0"], ["0", "0"]]]},
                    "subalgebra": {"matrices": [[["1", "0"], ["0", "0"]]]},
                },
                "ambient.matrices[0]: bad entry: bad rational literal '1/0'",
            ),
            (
                {
                    "ambient": {"form": "su:1,1"},
                    "subalgebra": {"matrices": [[["0", "1+2/0i"], ["0", "0"]]]},
                },
                "subalgebra.matrices[0]: bad entry: bad rational literal '+2/0'",
            ),
            (
                {**EMPTY, "ambient": {"system": "A2\u3000"}},
                "ambient.system: expected a tag like 'B3', got 'A2\\u3000'",
            ),
            (
                {**ORBIT_SU13, "ambient": {"form": "su:1,3\u3000"}},
                "ambient.form: non-integer parameter in 'su:1,3\\u3000'",
            ),
            (
                {**EMPTY, "subalgebra": {"roots": [], "toral": [["1\u3000", "-1", "0"]]}},
                "subalgebra.toral: bad entry: bad rational literal '1\\u3000'",
            ),
        ],
        ids=[
            "root",
            "system",
            "form",
            "form-underscore",
            "toral",
            "toral-zero-div",
            "toral-zero-div-padded",
            "matrix-zero-div",
            "matrix-zero-div-imaginary",
            "system-wide-space",
            "form-wide-space",
            "toral-wide-space",
        ],
    )
    def test_bad_literals_are_schema_errors(
        self, tmp_path, capsysbinary, problem, message, fmt
    ):
        # unicode digits once parsed, ran, and crashed the ASCII text report;
        # a zero denominator in a toral row escaped as a traceback, and then
        # was reported as the repr of Fraction's ZeroDivisionError
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert cli.main(["analyze", str(path), "--format", fmt]) == 1
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.decode() == f"crlie: {message}\n"

    def test_schema_violations_exit_one(self, tmp_path, capsysbinary):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"ambient": {}, "subalgebra": {}}))
        assert cli.main(["analyze", str(path)]) == 1
        err = capsysbinary.readouterr().err.decode()
        assert "ambient" in err and "subalgebra" in err

    @pytest.mark.parametrize(
        "system",
        [
            {"family": "B", "rank": 3.7},
            {"family": "C", "rank": True},
            {"family": "B", "rank": "3"},
            {"family": ["B"], "rank": 3},
        ],
        ids=["float-rank", "bool-rank", "string-rank", "list-family"],
    )
    def test_malformed_system_object_exits_one(self, tmp_path, capsysbinary, system):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**EMPTY, "ambient": {"system": system}}))
        assert cli.main(["analyze", str(path)]) == 1
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.decode() == (
            "crlie: ambient.system: expected a string family and an int rank, "
            f"got {system!r}\n"
        )

    def test_missing_file_exits_one(self, tmp_path, capsysbinary):
        assert cli.main(["analyze", str(tmp_path / "nope.json")]) == 1
        assert b"cannot read" in capsysbinary.readouterr().err

    def test_internal_error_exits_two(self, tmp_path, monkeypatch, capsysbinary):
        def no_torus(v):
            raise AssertionError("no sigma-fixed part of Z(t) escapes the torus")

        monkeypatch.setattr(cli, "regularity_type", no_torus)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**HOROCYCLIC, "ambient": {"form": "compact-sp:2"}}))
        assert cli.main(["analyze", str(path)]) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err == (
            b"crlie: internal check failed: "
            b"no sigma-fixed part of Z(t) escapes the torus\n"
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
