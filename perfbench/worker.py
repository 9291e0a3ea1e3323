"""One pass over a workload's problem list, in a fresh interpreter.

Set-up imports crlie from ``src/``, generates the problem list from the seed
and validates every problem with ``cli.parse_problem``.  The timed loop then
solves the problems one after another on the path the ``crlie`` command
takes: ``cli.parse_problem`` on the problem's JSON text, ``cli.run`` and
``cli.emit_report``.  The last line of standard output is one JSON object
with the timings, the sha256 and the fingerprint of every report and any
failures.

    python3 perfbench/worker.py --workload orbit-sweep --seed 0
    python3 perfbench/worker.py --workload root-par --seed 3 --setup-only
    python3 perfbench/worker.py --workload root-par --seed 3 --spans out.tsv.gz
"""

import argparse
import hashlib
import json
import re
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from crlie import cli  # noqa: E402
from crlie.crcore import ambient_dim_regular, cr_dims_regular, nr_regular  # noqa: E402
from crlie.realforms import build_real_form  # noqa: E402
from crlie.regularize import regularize_regular  # noqa: E402

import workloads  # noqa: E402

ROOT_LITERAL = re.compile(r"[+-]?\d*e\d+([+-]\d*e\d+)*")
SEED_KEYS = ("input", "seed", "timings")
# numbers listed in the order of the positive z-roots, which a Weyl
# conjugate of the input reorders
ROOT_ORDERED = ("z_component_dims",)


def _sorted(items):
    return sorted(items, key=lambda v: json.dumps(v, sort_keys=True))


def _shape(value):
    """The part of a report value that a Weyl conjugate of the input keeps:
    root literals are masked, and lists of anything but numbers are
    compared as multisets.  Numbers, flags, kinds and list lengths stay."""
    if isinstance(value, dict):
        return {
            k: _sorted(v) if k in ROOT_ORDERED else _shape(v)
            for k, v in value.items()
            if k not in SEED_KEYS
        }
    if isinstance(value, list):
        items = [_shape(v) for v in value]
        if all(isinstance(v, (int, float)) for v in value):
            return items
        return _sorted(items)
    if isinstance(value, str) and ROOT_LITERAL.fullmatch(value):
        return "root"
    return value


def fingerprint(report):
    """sha256 of the report's seed-independent shape.  Every seed of a slot
    gives the same fingerprint, so it is checked on every seed."""
    text = json.dumps(_shape(json.loads(json.dumps(report))), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cross_check(problem, report):
    """Compare a matrix-backend report on embedded root data with the root
    backend on the same data.  Dimensions agree up to the central line of
    compact-u, which the root datum cannot see (the rule of acceptance
    test 7d).  ``problem`` is the parsed problem file.  Returns a list of
    mismatch messages."""
    form = build_real_form(problem.form)
    v = cli._regular_subalgebra(problem, form.system)
    delta = form.k.dim - ambient_dim_regular(v)
    bad = []
    dims = report.get("dims") or {}
    if "v" in dims and dims["v"] != v.dim:
        bad.append(f"dim v {dims['v']} != {v.dim}")
    if "nr" in dims and dims["nr"] != len(nr_regular(v)):
        bad.append(f"dim nr {dims['nr']} != {len(nr_regular(v))}")
    if "cr_dim" in dims:
        cr_dim, cr_codim = cr_dims_regular(v)
        if (dims["cr_dim"], dims["cr_codim"]) != (cr_dim, cr_codim + delta):
            bad.append(
                f"cr dims {(dims['cr_dim'], dims['cr_codim'])} != "
                f"{(cr_dim, cr_codim)} + central {delta}"
            )
    chain = report.get("chain")
    if chain is not None:
        regular = regularize_regular(v)
        r_dims, r_nr = regular.dims, regular.nr_dims
        last = len(r_dims) - 1
        extra = 1 if (delta == 1 and len(r_dims) == 2) else 0
        m_dims, m_nr = chain["dims"], chain["nr_dims"]
        if len(m_dims) != len(r_dims) + extra:
            bad.append(f"chain length {len(m_dims)} != {len(r_dims)} + {extra}")
        else:
            want = [r_dims[0]] + [r_dims[min(i, last)] + delta for i in range(1, len(m_dims))]
            if m_dims != want:
                bad.append(f"chain dims {m_dims} != {want}")
            want_nr = [r_nr[min(i, last)] for i in range(len(m_nr))]
            if m_nr != want_nr:
                bad.append(f"chain nr dims {m_nr} != {want_nr}")
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="trace the pass; write the spans here")
    args = parser.parse_args(argv)

    problems = workloads.generate(args.workload, args.seed)
    texts = [json.dumps(problem, sort_keys=True) for _, problem in problems]
    parsed = [cli.parse_problem(text) for text in texts]
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    seconds, digests, reports, errors = [], [], [], {}
    started = time.perf_counter()
    for i, ((command, _), text) in enumerate(zip(problems, texts)):
        if tracer is not None:
            tracer.begin_problem(i)
        t0 = time.perf_counter()
        try:
            problem = cli.parse_problem(text)
            report = cli.run(command, problem)
            data = cli.emit_report(report, problem.format)
        except Exception as err:  # a failed problem is counted, not fatal
            seconds.append(time.perf_counter() - t0)
            digests.append(None)
            reports.append(None)
            errors[i] = f"{type(err).__name__}: {err}"
            continue
        seconds.append(time.perf_counter() - t0)
        digests.append(hashlib.sha256(data).hexdigest())
        reports.append(report)
        if not report.get("ok", False):
            errors[i] = "report says ok: false"
    wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layer = None
    if tracer is not None:
        tracer.uninstall()
        layer = tracer.metrics()
        layer["regularize.chain_steps"] = (
            sum(len(r["chain"]["dims"]) - 1 for r in reports if r and r.get("chain")),
            "count",
        )
        tracer.write_spans(args.spans)

    if args.workload == "embedded-roots":
        for i, (problem, report) in enumerate(zip(parsed, reports)):
            if report is not None and i not in errors:
                bad = cross_check(problem, report)
                if bad:
                    errors[i] = "root backend disagrees: " + "; ".join(bad)

    print(
        json.dumps(
            {
                "ready": ready,
                "wall_s": wall,
                "problem_s": seconds,
                "commands": [command for command, _ in problems],
                "digests": digests,
                "fingerprints": [None if r is None else fingerprint(r) for r in reports],
                "errors": {str(i): msg for i, msg in errors.items()},
                "peak_rss_mb": peak_rss_mb,
                "layer": layer,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
