"""Command line driver: JSON problem files in, deterministic reports out.

A problem file names an ambient algebra (a real form tag, an explicit matrix
basis, or a bare root system) and a subalgebra (a minimal-orbit directive,
a matrix basis, or a root-set literal), plus options.  Every command emits a
single report with a fixed key set; the JSON rendering sorts keys and the
text rendering is derived from the same dictionary, so reruns are
byte-identical.  Exit codes: 0 success, 1 usage or schema problems, 2 a
mathematical certificate or internal check failed.
"""

import argparse
import json
import re
import sys
import time
from collections import namedtuple
from dataclasses import dataclass
from importlib import resources

from .crcore import (
    ambient_dim_regular,
    cr_dims,
    cr_dims_regular,
    is_n_reductive_regular,
    levi_part,
    levi_part_regular,
    n_reductive_split,
    regularity_type,
    strengthens,
    strengthens_regular,
)
from .exactlin import DenseMatrix, GaussRational, Subspace, canonicalize
from .fibration import (
    classify_map,
    classify_regular,
    lift,
    lift_regular,
    maximal_par,
    minimal_par,
    z_root_decompositions,
)
from .matrixlie import AmbientAlgebra, Subalg, is_subalgebra
from .realforms import RealFormSpec, build_minimal_orbit, build_real_form, embed_regular, type_criteria
from .regularize import regularize, regularize_regular
from .rootsys import RANK_CAP_DEFAULT, RegularSubalgebra, build_root_system, format_root

COMMANDS = ("analyze", "regularize", "par-max", "par-min", "fibration", "lift", "corpus")

_AMBIENT_KEYS = ("form", "matrices", "system")
_SUBALGEBRA_KEYS = ("minimal-orbit", "matrices", "roots")
_OPTION_KEYS = ("seed", "rank_cap", "format", "timings")


class ProblemError(ValueError):
    """Schema validation failure carrying one message per violation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class ProblemFile:
    """A validated problem: parsed sources plus options, with the raw input
    kept for echoing into reports."""

    raw: dict
    ambient_kind: str
    subalgebra_kind: str
    form: RealFormSpec | None = None
    ambient_matrices: tuple = ()
    system: object = None
    sub_matrices: tuple = ()
    sub_roots: tuple = ()
    sub_toral: object = "zero"
    crosses: tuple = ()
    seed: int = 0
    rank_cap: int = RANK_CAP_DEFAULT
    format: str = "json"
    timings: bool = False


@dataclass
class Workspace:
    backend: str
    v: object
    orbit: object = None


# ---------------------------------------------------------------------------
# problem parsing
# ---------------------------------------------------------------------------


def _parse_matrix(obj, path, bad):
    if (
        not isinstance(obj, list)
        or not obj
        or not all(isinstance(row, list) for row in obj)
    ):
        bad(path, "expected a square matrix as a list of rows")
        return None
    if any(len(row) != len(obj) for row in obj):
        bad(path, "matrix must be square")
        return None
    try:
        return DenseMatrix.parse([[str(e) for e in row] for row in obj])
    except (ValueError, ZeroDivisionError) as err:
        bad(path, f"bad entry: {err}")
        return None


def _parse_matrix_list(obj, path, bad):
    if not isinstance(obj, list) or not obj:
        bad(path, "expected a non-empty list of matrices")
        return ()
    out = []
    for i, m in enumerate(obj):
        parsed = _parse_matrix(m, f"{path}[{i}]", bad)
        if parsed is not None:
            out.append(parsed)
    sizes = {m.rows for m in out}
    if len(sizes) > 1:
        bad(path, "matrices have mixed sizes")
        return ()
    return tuple(out)


def _parse_system(obj, bad):
    if isinstance(obj, str):
        m = re.fullmatch(r"\s*([A-Da-d])\s*(\d+)\s*", obj)
        if not m:
            bad("ambient.system", f"expected a tag like 'B3', got {obj!r}")
            return None
        family, rank = m.group(1), int(m.group(2))
    elif isinstance(obj, dict) and set(obj) == {"family", "rank"}:
        family, rank = obj["family"], obj["rank"]
        if not isinstance(family, str) or type(rank) is not int:
            bad(
                "ambient.system",
                f"expected a string family and an int rank, got {obj!r}",
            )
            return None
    else:
        bad("ambient.system", "expected 'B3' or {\"family\": ..., \"rank\": ...}")
        return None
    try:
        return build_root_system(family, rank)
    except ValueError as err:
        bad("ambient.system", str(err))
        return None


def parse_problem(source) -> ProblemFile:
    """Validate a problem given as a dict, JSON text, or a file path.

    All schema violations are collected and raised together, each prefixed
    with the offending field path.
    """
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if text.lstrip().startswith(("{", "[")):
            try:
                data = json.loads(text)
            except json.JSONDecodeError as err:
                raise ProblemError([f"problem text is not valid JSON: {err}"])
        else:
            try:
                with open(text, encoding="utf-8") as handle:
                    data = json.load(handle)
            except OSError as err:
                raise ProblemError([f"cannot read {text}: {err.strerror}"])
            except json.JSONDecodeError as err:
                raise ProblemError([f"{text} is not valid JSON: {err}"])
    if not isinstance(data, dict):
        raise ProblemError(["top level must be a JSON object"])

    violations = []

    def bad(path, message):
        violations.append(f"{path}: {message}")

    for key in sorted(set(data) - {"ambient", "subalgebra", "crosses", "options"}):
        bad(key, "unknown top-level key")

    problem = ProblemFile(raw=data, ambient_kind="", subalgebra_kind="")

    ambient = data.get("ambient")
    if not isinstance(ambient, dict):
        bad("ambient", "required and must be an object")
    else:
        given = [k for k in _AMBIENT_KEYS if k in ambient]
        for key in sorted(set(ambient) - set(_AMBIENT_KEYS)):
            bad(f"ambient.{key}", "unknown key")
        if len(given) != 1:
            bad(
                "ambient",
                "needs exactly one of 'form', 'matrices', 'system'"
                + (f" (got {', '.join(given)})" if given else ""),
            )
        else:
            problem.ambient_kind = given[0]
            if given[0] == "form":
                try:
                    problem.form = RealFormSpec.parse(str(ambient["form"]))
                except ValueError as err:
                    bad("ambient.form", str(err))
            elif given[0] == "matrices":
                problem.ambient_matrices = _parse_matrix_list(
                    ambient["matrices"], "ambient.matrices", bad
                )
            else:
                problem.system = _parse_system(ambient["system"], bad)

    sub = data.get("subalgebra")
    if not isinstance(sub, dict):
        bad("subalgebra", "required and must be an object")
    else:
        given = [k for k in _SUBALGEBRA_KEYS if k in sub]
        for key in sorted(set(sub) - set(_SUBALGEBRA_KEYS) - {"toral"}):
            bad(f"subalgebra.{key}", "unknown key")
        if len(given) != 1:
            bad(
                "subalgebra",
                "needs exactly one of 'minimal-orbit', 'matrices', 'roots'"
                + (f" (got {', '.join(given)})" if given else ""),
            )
        else:
            problem.subalgebra_kind = given[0]
            if given[0] == "minimal-orbit":
                if sub["minimal-orbit"] is not True:
                    bad("subalgebra.minimal-orbit", "must be literally true")
            elif given[0] == "matrices":
                problem.sub_matrices = _parse_matrix_list(
                    sub["matrices"], "subalgebra.matrices", bad
                )
            else:
                roots = sub["roots"]
                if not isinstance(roots, list) or not all(
                    isinstance(t, str) for t in roots
                ):
                    bad("subalgebra.roots", "expected a list of root literals")
                else:
                    problem.sub_roots = tuple(roots)
        if "toral" in sub:
            if problem.subalgebra_kind != "roots":
                bad("subalgebra.toral", "only meaningful with a root-set subalgebra")
            toral = sub["toral"]
            if toral in ("full", "zero"):
                problem.sub_toral = toral
            elif isinstance(toral, list) and all(isinstance(r, list) for r in toral):
                problem.sub_toral = tuple(tuple(str(e) for e in row) for row in toral)
            else:
                bad("subalgebra.toral", "expected 'full', 'zero', or a list of rows")

    crosses = data.get("crosses")
    if crosses is not None:
        if problem.subalgebra_kind and problem.subalgebra_kind != "minimal-orbit":
            bad("crosses", "only meaningful for a minimal-orbit subalgebra")
        if not isinstance(crosses, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) and c >= 1 for c in crosses
        ):
            bad("crosses", "expected a list of simple-root indices (1-based)")
        else:
            problem.crosses = tuple(crosses)

    if problem.subalgebra_kind == "minimal-orbit":
        if problem.ambient_kind and problem.ambient_kind != "form":
            bad("subalgebra.minimal-orbit", "needs a real-form ambient")
        if crosses is None:
            bad("crosses", "required for a minimal-orbit subalgebra")
    if problem.subalgebra_kind == "roots" and problem.ambient_kind == "matrices":
        bad("subalgebra.roots", "needs a root-system or real-form ambient")
    if problem.subalgebra_kind == "matrices" and problem.ambient_kind == "system":
        bad("subalgebra.matrices", "needs a real-form or matrix ambient")

    options = data.get("options", {})
    if not isinstance(options, dict):
        bad("options", "must be an object")
        options = {}
    for key in sorted(set(options) - set(_OPTION_KEYS)):
        bad(f"options.{key}", "unknown option")
    seed = options.get("seed", 0)
    if isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0:
        problem.seed = seed
    else:
        bad("options.seed", "expected a non-negative integer")
    rank_cap = options.get("rank_cap", RANK_CAP_DEFAULT)
    if isinstance(rank_cap, int) and not isinstance(rank_cap, bool) and rank_cap >= 1:
        problem.rank_cap = rank_cap
    else:
        bad("options.rank_cap", "expected a positive integer")
    fmt = options.get("format", "json")
    if fmt in ("json", "text"):
        problem.format = fmt
    else:
        bad("options.format", "expected 'json' or 'text'")
    timings = options.get("timings", False)
    if isinstance(timings, bool):
        problem.timings = timings
    else:
        bad("options.timings", "expected a boolean")

    if violations:
        raise ProblemError(violations)
    return problem


# ---------------------------------------------------------------------------
# resolving a problem into algebra objects
# ---------------------------------------------------------------------------


def _toral_space(problem, system) -> Subspace:
    if problem.sub_toral == "full":
        return system.cartan
    if problem.sub_toral == "zero":
        return Subspace.zero(system.coord_dim)
    rows = [
        tuple(GaussRational.parse(entry) for entry in row)
        for row in problem.sub_toral
    ]
    if any(len(row) != system.coord_dim for row in rows):
        raise ValueError(
            f"toral rows must have {system.coord_dim} coordinates for {system}"
        )
    return canonicalize(rows, system.coord_dim)


def _regular_subalgebra(problem, system) -> RegularSubalgebra:
    roots = frozenset(system.parse_root(t) for t in problem.sub_roots)
    return RegularSubalgebra(system, _toral_space(problem, system), roots)


def _resolve(problem: ProblemFile) -> Workspace:
    if problem.subalgebra_kind == "minimal-orbit":
        orbit = build_minimal_orbit(problem.form, list(problem.crosses))
        return Workspace("matrix", orbit.v, orbit=orbit)
    if problem.subalgebra_kind == "roots":
        if problem.ambient_kind == "system":
            return Workspace("regular", _regular_subalgebra(problem, problem.system))
        form = build_real_form(problem.form)
        v = embed_regular(form, _regular_subalgebra(problem, form.system))
        return Workspace("matrix", v)
    if problem.ambient_kind == "form":
        ambient = build_real_form(problem.form).k
    else:
        size = problem.ambient_matrices[0].rows
        ambient = AmbientAlgebra(size, list(problem.ambient_matrices))
    v = Subalg.from_matrices(ambient, list(problem.sub_matrices))
    if not is_subalgebra(v):
        raise ValueError("subalgebra matrices are not closed under brackets")
    return Workspace("matrix", v)


# ---------------------------------------------------------------------------
# report fragments
# ---------------------------------------------------------------------------


def _roots_out(rootset):
    return [format_root(a) for a in sorted(tuple(a) for a in rootset)]


def _regularity_out(report):
    return {
        "kind": report.kind,
        "ambient_rank": report.ambient_rank,
        "v_normalizer_rank": report.v_normalizer_rank,
        "levi_normalizer_rank": report.levi_normalizer_rank,
    }


def _certificate_out(cert):
    return {
        "ok": cert.ok,
        "self_normalizing": cert.self_normalizing,
        "spans_with_conjugate": cert.spans_with_conjugate,
        "triple_decomposition": cert.triple_decomposition,
    }


def _chain_out(chain):
    return {
        "backend": chain.backend,
        "dims": list(chain.dims),
        "nr_dims": list(chain.nr_dims),
        "certificate": _certificate_out(chain.certificate),
    }


def _root_parabolic_out(q):
    system = q.system
    names = system._formatted_roots
    levi = q._mask & system._neg_mask(q._mask)
    return {
        "dim": q.dim,
        "nilpotent": [names[k] for k in system._mask_indices(q._mask ^ levi)],
        "reductive": [names[k] for k in system._mask_indices(levi)],
    }


def _parabolic_out(chain):
    q = chain.parabolic
    if chain.backend == "regular":
        return _root_parabolic_out(q)
    return {"dim": q.dim, "nr_dim": chain.nr_dims[-1], "levi_dim": levi_part(q).dim}


def _witnesses_out(witnesses):
    out = {}
    for key, record in witnesses.items():
        entry = {"holds": record["holds"]}
        if "system" in record:
            entry["system"] = [format_root(a) for a in record["system"]]
        if "counterexamples" in record:
            entry["counterexamples"] = [
                {
                    "system": [format_root(a) for a in c["system"]],
                    "alpha": format_root(c["alpha"]),
                    "beta": format_root(c["beta"]),
                    "sum": format_root(c["sum"]),
                }
                for c in record["counterexamples"]
            ]
        out[key] = entry
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


_Backend = namedtuple("_Backend", "regularize classify lift strengthens")


def _backend(ws: Workspace) -> _Backend:
    # built per call, so that rebinding a module-level name (a monkeypatch,
    # a tracer) reaches the commands
    if ws.backend == "matrix":
        return _Backend(regularize, classify_map, lift, strengthens)
    return _Backend(regularize_regular, classify_regular, lift_regular, strengthens_regular)


def _cmd_analyze(ws: Workspace, problem: ProblemFile):
    crit = type_criteria(ws.orbit) if ws.orbit is not None else None
    if ws.backend == "matrix":
        n_reductive, nr, levi = n_reductive_split(ws.v)
        cr_dim, cr_codim = cr_dims(ws.v)
        dims = {
            "ambient": ws.v.ambient.dim,
            "v": ws.v.dim,
            "nr": nr.dim,
            "levi": levi.dim,
            "cr_dim": cr_dim,
            "cr_codim": cr_codim,
        }
        # a minimal orbit's criteria already hold its regularity report
        report = crit.regularity if crit else regularity_type(ws.v)
        flags = {"n_reductive": n_reductive, "regularity": _regularity_out(report)}
    else:
        cr_dim, cr_codim = cr_dims_regular(ws.v)
        dims = {
            "ambient": ambient_dim_regular(ws.v),
            "v": ws.v.dim,
            "nr": len(ws.v.nilpotent_roots),
            "levi": levi_part_regular(ws.v).dim,
            "cr_dim": cr_dim,
            "cr_codim": cr_codim,
        }
        flags = {"n_reductive": is_n_reductive_regular(ws.v), "regularity": None}
    body = {"dims": dims, "flags": flags}
    if crit is not None:
        sets = ws.orbit.sets
        body["sets"] = {
            "crosses": list(sets.crosses),
            "flag": _roots_out(sets.flag_roots),
            "flag_nilpotent": _roots_out(sets.flag_nilpotent),
            "flag_reductive": _roots_out(sets.flag_reductive),
            "projectable": _roots_out(sets.projectable),
            "theta_core": _roots_out(sets.theta_core),
            "theta_core_nilpotent": _roots_out(sets.theta_core_nilpotent),
            "theta_core_reductive": _roots_out(sets.theta_core_reductive),
        }
        body["types"] = {
            "type_I": crit.type_I,
            "type_II": crit.type_II,
            "systems": [[format_root(a) for a in sys_] for sys_ in crit.systems],
            "witnesses": _witnesses_out(crit.witnesses),
        }
    return body


def _cmd_regularize(ws: Workspace, problem: ProblemFile):
    chain = _backend(ws).regularize(ws.v)
    return {
        "chain": _chain_out(chain),
        "parabolic": _parabolic_out(chain),
        "ok": chain.certificate.ok,
    }


def _cmd_par(ws: Workspace, problem: ProblemFile, maximal: bool):
    name = "par-max" if maximal else "par-min"
    if ws.backend != "regular":
        raise ValueError(f"{name} needs a root-system problem")
    finder = maximal_par if maximal else minimal_par
    members = finder(ws.v, rank_cap=problem.rank_cap)
    rendered = []
    for q, z in zip(members, z_root_decompositions(members)):
        entry = _root_parabolic_out(q)
        entry["z_component_dims"] = z.positive_dims
        rendered.append(entry)
    return {"par": {"count": len(rendered), "members": rendered}}


def _cmd_fibration(ws: Workspace, problem: ProblemFile):
    backend = _backend(ws)
    chain = backend.regularize(ws.v)
    classification = backend.classify(ws.v, chain.result)
    return {
        "chain": _chain_out(chain),
        "classification": {
            "target": _parabolic_out(chain),
            "flags": classification.flags(),
        },
        "ok": chain.certificate.ok,
    }


def _cmd_lift(ws: Workspace, problem: ProblemFile):
    backend = _backend(ws)
    chain = backend.regularize(ws.v)
    lifted = backend.lift(ws.v, chain.parabolic)
    classification = backend.classify(lifted, chain.result)
    return {
        "dims": {"v": ws.v.dim, "lift": lifted.dim, "target": chain.result.dim},
        "chain": _chain_out(chain),
        "classification": {
            "target": _parabolic_out(chain),
            "strengthens": backend.strengthens(ws.v, lifted),
            "flags": classification.flags(),
        },
        "ok": chain.certificate.ok,
    }


_DISPATCH = {
    "analyze": _cmd_analyze,
    "regularize": _cmd_regularize,
    "par-max": lambda ws, problem: _cmd_par(ws, problem, True),
    "par-min": lambda ws, problem: _cmd_par(ws, problem, False),
    "fibration": _cmd_fibration,
    "lift": _cmd_lift,
}

_REPORT_KEYS = (
    "dims",
    "flags",
    "sets",
    "types",
    "chain",
    "parabolic",
    "par",
    "classification",
    "timings",
)


def run(command: str, problem: ProblemFile | None, jobs: int = 1) -> dict:
    """Execute one command and return the report dictionary."""
    if command == "corpus":
        return _run_corpus(jobs)
    if command not in _DISPATCH:
        raise ValueError(f"unknown command {command!r}")
    started = time.perf_counter()
    workspace = _resolve(problem)
    body = _DISPATCH[command](workspace, problem)
    elapsed = time.perf_counter() - started
    report = {
        "command": command,
        "seed": problem.seed,
        "backend": workspace.backend,
        "input": problem.raw,
        "ok": True,
    }
    report.update({key: None for key in _REPORT_KEYS})
    report.update(body)
    if problem.timings:
        report["timings"] = {"seconds": round(elapsed, 6)}
    return report


# ---------------------------------------------------------------------------
# the golden corpus
# ---------------------------------------------------------------------------


def _fixture_names():
    folder = resources.files("crlie") / "corpus"
    return sorted(p.name for p in folder.iterdir() if p.name.endswith(".json"))


def _expect_mismatches(expected, actual, path=""):
    """Compare an expectation fragment against a report: every expected key
    must be present and equal; lists compare exactly."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path or '.'}: expected an object, got {type(actual).__name__}"]
        out = []
        for key in sorted(expected):
            sub = f"{path}.{key}" if path else key
            if key not in actual:
                out.append(f"{sub}: missing from report")
            else:
                out.extend(_expect_mismatches(expected[key], actual[key], sub))
        return out
    if expected != actual:
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []


def _run_fixture(name: str) -> dict:
    folder = resources.files("crlie") / "corpus"
    data = json.loads((folder / name).read_text("utf-8"))
    command = data["command"]
    if command not in _DISPATCH:
        return {
            "name": name,
            "command": command,
            "ok": False,
            "mismatches": [f"command: {command!r} is not runnable in a fixture"],
        }
    try:
        problem = parse_problem(data["problem"])
        report = run(command, problem)
    except (ProblemError, ValueError, AssertionError, RuntimeError) as err:
        return {
            "name": name,
            "command": command,
            "ok": False,
            "mismatches": [f"execution failed: {err}"],
        }
    mismatches = _expect_mismatches(data.get("expect", {}), report)
    if not report.get("ok", True):
        mismatches.append("ok: command reported a failed certificate")
    return {
        "name": name,
        "command": command,
        "ok": not mismatches,
        "mismatches": mismatches,
    }


def _run_corpus(jobs: int = 1) -> dict:
    names = _fixture_names()
    if jobs > 1:
        # imported here: only the pool path needs it, and it slows start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
            results = list(pool.map(_run_fixture, names))
    else:
        results = [_run_fixture(name) for name in names]
    results.sort(key=lambda r: r["name"])
    report = {
        "command": "corpus",
        "seed": 0,
        "backend": None,
        "input": None,
        "ok": all(r["ok"] for r in results),
        "fixtures": results,
    }
    report.update({key: None for key in _REPORT_KEYS})
    return report


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _scalar_text(value):
    if value is None:
        return "-"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _is_scalar(value):
    return not isinstance(value, (dict, list))


def _render_text(value, indent, lines):
    pad = "  " * indent
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if _is_scalar(item):
                lines.append(f"{pad}{key}: {_scalar_text(item)}")
            elif isinstance(item, list) and all(_is_scalar(x) for x in item):
                lines.append(f"{pad}{key}: [{', '.join(_scalar_text(x) for x in item)}]")
            else:
                lines.append(f"{pad}{key}:")
                _render_text(item, indent + 1, lines)
    elif isinstance(value, list):
        for item in value:
            if _is_scalar(item):
                lines.append(f"{pad}- {_scalar_text(item)}")
            else:
                lines.append(f"{pad}-")
                _render_text(item, indent + 1, lines)
    else:
        lines.append(f"{pad}{_scalar_text(value)}")


def emit_report(report: dict, format: str = "json") -> bytes:
    """Serialize a report deterministically; the text form is computed from
    the same dictionary the JSON form serializes."""
    if format == "json":
        return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("ascii")
    if format == "text":
        lines = []
        _render_text(report, 0, lines)
        return ("\n".join(lines) + "\n").encode("ascii")
    raise ValueError(f"unknown report format {format!r}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="crlie",
        description="Exact computations with CR algebras of compact Lie groups.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument(
        "problem",
        nargs="?",
        help="problem file (JSON); every command except corpus needs one",
    )
    parser.add_argument("--format", choices=("json", "text"), default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--rank-cap", type=int, default=None)
    parser.add_argument(
        "--jobs", type=int, default=1, help="parallel corpus fixtures"
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    fmt = args.format or "json"
    try:
        if args.command == "corpus":
            if args.problem is not None:
                parser.error("corpus does not take a problem file")
            report = run("corpus", None, jobs=args.jobs)
        else:
            if args.problem is None:
                parser.error(f"{args.command} needs a problem file")
            problem = parse_problem(args.problem)
            if args.seed is not None:
                if args.seed < 0:
                    parser.error("--seed must be non-negative")
                problem.seed = args.seed
            if args.rank_cap is not None:
                if args.rank_cap < 1:
                    parser.error("--rank-cap must be at least 1")
                problem.rank_cap = args.rank_cap
            if args.format is None:
                fmt = problem.format
            report = run(args.command, problem)
    except ProblemError as err:
        for violation in err.violations:
            print(f"crlie: {violation}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"crlie: {err}", file=sys.stderr)
        return 1
    except (AssertionError, RuntimeError) as err:
        print(f"crlie: internal check failed: {err}", file=sys.stderr)
        return 2
    sys.stdout.buffer.write(emit_report(report, fmt))
    sys.stdout.buffer.flush()
    return 0 if report.get("ok", True) else 2


if __name__ == "__main__":
    sys.exit(main())
