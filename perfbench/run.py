"""The crlie benchmark.

    python3 perfbench/run.py --workload orbit-sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload root-par --seed 0 --write-problems DIR
    python3 perfbench/run.py --workload root-par --write-reference

Run from the root of a source checkout; crlie is imported from ``src/``.
One client solves the workload's problem list closed loop: each problem
starts when the previous one has been reported.  Every pass over the list
runs in a fresh interpreter (``worker.py``), single-threaded, without
``-O``, so that nothing one pass caches is reused by the next.  Passes
repeat while another one still fits in ``--seconds``; there is always at
least one.  Set-up (interpreter start, ``import crlie``, generating and
validating the problems) is also timed in extra interpreters that stop
before the first solve: a group of them runs before every pass and after
the last, so that the set-up samples span the whole run.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median seconds of
a pass), ``setup_s`` (median set-up seconds) and ``peak_rss_mb`` (median
peak resident memory of a pass).  The median seconds of one problem (parse,
run, emit) over every problem solved is printed above the result line as
``problem_s.p50``, but it is not one of the bounded metrics.  ``--trace 1``
runs an untraced, a traced and another untraced pass, and reports the
per-layer metrics of the traced one (see ``tracing.py``), plus
``trace.overhead_s``: traced ``wall_s`` minus the mean untraced one.

Every report is checked.  A problem fails if it raises, if its report says
``ok: false``, if its fingerprint (the report's seed-independent shape, see
``worker.fingerprint``) differs from ``reference/<workload>.json``, if on
the workload's default seed the sha256 of its report differs from the
reference, or, on ``embedded-roots``, if the root backend disagrees with
it.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines above it give every metric by name and unit, the failure ratio,
and each failure.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
SPANS = ROOT / ".perfbench"
SETUP_GROUP = 5
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args):
    """Run one worker; return (its JSON result, seconds from spawn to the
    worker's first solve, seconds from spawn to exit)."""
    command = [sys.executable, str(HERE / "worker.py")] + args
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran over {CHILD_TIMEOUT_S} s")
    ended = time.monotonic()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(
            f"worker {' '.join(args)} exited with {done.returncode}:\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    return result, result["ready"] - spawned, ended - spawned


def _reference(workload):
    with open(REFERENCE / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def write_reference(workload):
    """Store the report digests and fingerprints of the default seed, after
    checking that every problem solved and reported ok."""
    result, _, _ = _spawn(_pass_args(workload, workloads.DEFAULT_SEED))
    if result["errors"]:
        raise BenchError(f"not writing a reference with failures: {result['errors']}")
    REFERENCE.mkdir(exist_ok=True)
    reference = {
        "seed": workloads.DEFAULT_SEED,
        "commands": result["commands"],
        "digests": result["digests"],
        "fingerprints": result["fingerprints"],
    }
    path = REFERENCE / f"{workload}.json"
    path.write_text(json.dumps(reference, indent=2) + "\n", "utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def _failures(workload, seed, result):
    """``{problem index: reason}`` for one pass."""
    out = {int(i): msg for i, msg in result["errors"].items()}
    reference = _reference(workload)
    checks = [("fingerprint", "fingerprints")]
    if seed == workloads.DEFAULT_SEED:
        checks.append(("sha256", "digests"))
    for label, key in checks:
        expected = reference[key]
        if len(expected) != len(result[key]):
            raise BenchError(f"reference for {workload} lists {len(expected)} problems")
        for i, (want, got) in enumerate(zip(expected, result[key])):
            if got is not None and got != want and i not in out:
                out[i] = f"report {label} {got[:12]} differs from the reference {want[:12]}"
    return out


def _pass_args(workload, seed):
    return ["--workload", workload, "--seed", str(seed)]


def _setup_group(workload, seed):
    """Set-up seconds of ``SETUP_GROUP`` interpreters that stop before the
    first solve, and the seconds the group took."""
    begun = time.monotonic()
    args = _pass_args(workload, seed) + ["--setup-only"]
    setups = [_spawn(args)[1] for _ in range(SETUP_GROUP)]
    return setups, time.monotonic() - begun


def measure(workload, seed, seconds):
    """End-to-end metrics from as many passes as fit in ``seconds``, with a
    group of set-up samples before each pass and after the last."""
    begun = time.monotonic()
    passes, setups, durations = [], [], []
    while True:
        group, group_s = _setup_group(workload, seed)
        setups += group
        result, setup, duration = _spawn(_pass_args(workload, seed))
        passes.append(result)
        setups.append(setup)
        durations.append(duration)
        elapsed = time.monotonic() - begun
        if elapsed + statistics.median(durations) + 2 * group_s > seconds:
            break
    setups += _setup_group(workload, seed)[0]
    problem_s = [s for result in passes for s in result["problem_s"]]
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MiB"),
    }
    notes = [
        f"problem_s.p50 {statistics.median(problem_s)} s over {len(problem_s)} problems "
        f"(not bounded: too noisy between runs)",
        f"passes {len(passes)}, set-up samples {len(setups)}",
    ]
    return passes, metrics, notes


def measure_traced(workload, seed):
    """Per-layer metrics from one traced pass.  Untraced passes run before
    and after it; the tracing overhead is taken against their mean, so that
    a machine whose speed drifts during the run does not bias it."""
    before, _, _ = _spawn(_pass_args(workload, seed))
    SPANS.mkdir(exist_ok=True)
    spans = SPANS / f"{workload}-seed{seed}.spans.tsv.gz"
    traced, _, _ = _spawn(_pass_args(workload, seed) + ["--spans", str(spans)])
    after, _, _ = _spawn(_pass_args(workload, seed))
    plain_wall = (before["wall_s"] + after["wall_s"]) / 2
    metrics = {name: tuple(entry) for name, entry in traced["layer"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain_wall, "s")
    notes = [
        f"untraced wall_s {before['wall_s']:.4f} and {after['wall_s']:.4f}, "
        f"traced wall_s {traced['wall_s']:.4f}",
        f"spans written to {spans.relative_to(ROOT)}",
    ]
    return [before, traced, after], metrics, notes


def write_problems(workload, seed, folder):
    """Write the problem list as files ``crlie <command> <file>`` replays."""
    folder = Path(folder)
    folder.mkdir(parents=True, exist_ok=True)
    for i, (command, problem) in enumerate(workloads.generate(workload, seed)):
        path = folder / f"{i:02d}-{command}.json"
        path.write_text(json.dumps(problem, sort_keys=True, indent=2) + "\n", "utf-8")
        print(f"crlie {command} {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="crlie benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-problems", metavar="DIR")
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="store the default seed's report digests (after a reviewed change to the answers)",
    )
    args = parser.parse_args(argv)
    # SIGTERM raises SystemExit, so that subprocess.run kills and waits for
    # the running worker instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "crlie" / "__init__.py").is_file():
        print(f"perfbench: no crlie sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_problems:
        write_problems(args.workload, args.seed, args.write_problems)
        return 0
    try:
        if args.write_reference:
            write_reference(args.workload)
            return 0
        if args.trace:
            passes, metrics, notes = measure_traced(args.workload, args.seed)
        else:
            passes, metrics, notes = measure(args.workload, args.seed, args.seconds)
        failures = [_failures(args.workload, args.seed, r) for r in passes]
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    attempted = sum(len(r["problem_s"]) for r in passes)
    failed = sum(len(f) for f in failures)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"fail_ratio {failed}/{attempted}")
    for n, fails in enumerate(failures):
        for i, reason in sorted(fails.items()):
            print(f"FAILED pass {n} problem {i} ({passes[n]['commands'][i]}): {reason}")
    for note in notes:
        print(note)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
