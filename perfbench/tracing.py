"""Span tracing of crlie from outside the package.

``Tracer.install`` wraps every public function of each crlie module, and the
public methods of the classes those modules define, and rebinds every name
that refers to an original: ``from crlie.x import f`` in another module, and
``crlie/__init__``, each hold their own binding, so each one is patched.  A
span records its name, start, end, parent span and problem id.  Spans are
kept in arrays in memory and written out at the end.

The layer of a span is the module that defines the wrapped function.  From
the spans, ``layer_metrics`` derives per layer:

* ``self_s``: span durations minus the part of each span its child spans
  cover;
* ``incl_s``: durations of the outermost spans of the layer only, so that
  nested calls within one layer are not counted twice;
* ``calls`` and ``errors`` (spans left by an exception).

Probes at the same boundaries count work (rows x width handed to the row
reduction, Weyl images, Par(v) candidates) and repeated calls: ``repeats``
counts calls whose argument was already seen earlier in the same problem,
``shared`` calls whose argument was first seen in an earlier problem of the
run.
"""

import gzip
import inspect
import sys
import time
from array import array

LAYERS = (
    "cli",
    "realforms",
    "crcore",
    "regularize",
    "fibration",
    "matrixlie",
    "rootsys",
    "exactlin",
)

# Methods called so often, each doing so little, that a span around them
# would cost more than the work it measures.  Their time is self time of
# the caller.
UNTRACED = {
    "exactlin.GaussRational.of",
    "exactlin.GaussRational.conjugate",
    "exactlin.GaussRational.norm2",
    "rootsys.RootSystem.is_root",
    "rootsys.neg",
    "rootsys.root_sum",
    "rootsys.weyl_apply",
    "rootsys.ParabolicRootSet.contains_parabolic",
}

# metric name -> span name whose call count it reports
CALL_METRICS = {
    "exactlin.canonicalize.calls": "exactlin.canonicalize",
    "exactlin.meet_join.calls": "exactlin.meet_join",
    "exactlin.kernel.calls": "exactlin.kernel",
    "exactlin.bracket.calls": "exactlin.DenseMatrix.bracket",
    "exactlin.min_poly.calls": "exactlin.min_poly",
    "matrixlie.coords.calls": "matrixlie.AmbientAlgebra.coords",
    "matrixlie.normalizer.calls": "matrixlie.normalizer",
    "matrixlie.nilradical_nr.calls": "matrixlie.nilradical_nr",
    "matrixlie.maximal_torus.calls": "matrixlie.maximal_torus",
    "crcore.regularity_type.calls": "crcore.regularity_type",
    "rootsys.enumerate_parabolics.calls": "rootsys.enumerate_parabolics",
    "fibration.z_root_decomposition.calls": "fibration.z_root_decomposition",
}

COUNTERS = (
    "exactlin.canonicalize.cells",
    "exactlin.meet_join.cells",
    "matrixlie.nilradical_nr.repeats",
    "crcore.regularity_type.repeats",
    "realforms.classify_roots.repeats",
    "realforms.theta_sets.repeats",
    "realforms.build_real_form.shared",
    "rootsys.enumerate_parabolics.shared",
    "rootsys.weyl_images",
    "fibration.par.candidates",
    "fibration.par.members",
)

_PAR_FINDERS = ("fibration.maximal_par", "fibration.minimal_par")

# spans whose arguments or results the probe reads
_PROBED = {
    "exactlin.canonicalize",
    "exactlin.meet_join",
    "matrixlie.nilradical_nr",
    "crcore.regularity_type",
    "realforms.classify_roots",
    "realforms.theta_sets",
    "realforms.build_real_form",
    "rootsys.enumerate_parabolics",
    "rootsys.weyl_root_permutations",
} | set(_PAR_FINDERS)


def covered(intervals, lo, hi):
    """Length of the union of ``intervals`` (start, end pairs) clipped to
    [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(starts, ends, parents):
    """Per span: its duration minus what its child spans cover.  Parents
    precede their children in the arrays."""
    children = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    return [
        (ends[i] - starts[i])
        - covered(children.get(i, ()), starts[i], ends[i])
        for i in range(len(starts))
    ]


def layer_metrics(names, layers, starts, ends, parents, errors):
    """``{layer: {"self_s", "incl_s", "calls", "errors"}}`` from span
    arrays; ``layers[k]`` is the layer of span name ``k``."""
    out = {
        layer: {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "errors": 0}
        for layer in LAYERS
    }
    selfs = self_times(starts, ends, parents)
    bits = [1 << LAYERS.index(layer) for layer in layers]
    # masks[i] has the bits of the layers of span i's proper ancestors
    masks = []
    for i, nid in enumerate(names):
        p = parents[i]
        mask = masks[p] | bits[names[p]] if p >= 0 else 0
        masks.append(mask)
        entry = out[layers[nid]]
        entry["self_s"] += selfs[i]
        entry["calls"] += 1
        entry["errors"] += errors[i]
        if not mask & bits[nid]:
            entry["incl_s"] += ends[i] - starts[i]
    return out


def _subspace_key(sub):
    return (id(sub.ambient), sub.space)


class Tracer:
    """Records spans around crlie's public functions while installed."""

    def __init__(self):
        self.span_names = []  # name table; spans hold indices into it
        self.span_layers = []
        self.names = array("i")
        self.parents = array("i")
        self.problems = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.errors = array("b")
        self.stack = []
        self.problem = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._seen_problem = set()
        self._seen_run = {}
        self._keep = []  # objects whose id() is part of a key stay alive
        self._patches = []

    # -- problem boundaries -------------------------------------------------

    def begin_problem(self, problem_id):
        self.problem = problem_id
        self._seen_problem = set()
        self._keep = []

    def _repeat(self, counter, key, keep=()):
        if key in self._seen_problem:
            self.counters[counter] += 1
        else:
            self._seen_problem.add(key)
            self._keep.append(keep)

    def _shared(self, counter, key):
        first = self._seen_run.setdefault(key, self.problem)
        if first != self.problem:
            self.counters[counter] += 1

    # -- probes ---------------------------------------------------------------

    def _probe(self, name, args, kwargs, result):
        c = self.counters
        if name == "exactlin.canonicalize":
            vectors = args[0] if args else kwargs["vectors"]
            width = args[1] if len(args) > 1 else kwargs.get("ambient_dim")
            if width is None:
                width = len(vectors[0]) if vectors else 0
            c["exactlin.canonicalize.cells"] += len(vectors) * width
        elif name == "exactlin.meet_join":
            a, b = args
            c["exactlin.meet_join.cells"] += (a.dim + b.dim) * 2 * a.ambient_dim
        elif name == "matrixlie.nilradical_nr":
            sub = args[0]
            self._repeat(name + ".repeats", ("nr",) + _subspace_key(sub), sub.ambient)
        elif name == "crcore.regularity_type":
            v = args[0]
            seed = args[1] if len(args) > 1 else kwargs.get("seed", 0)
            self._repeat(
                "crcore.regularity_type.repeats",
                ("reg",) + _subspace_key(v) + (seed,),
                v.ambient,
            )
        elif name == "realforms.classify_roots":
            form = args[0]
            pair = args[1] if len(args) > 1 else kwargs.get("pair")
            self._repeat(name + ".repeats", ("classify", form, pair))
        elif name == "realforms.theta_sets":
            form, crosses = args[0], args[1] if len(args) > 1 else kwargs["crosses"]
            self._repeat(name + ".repeats", ("theta", form, tuple(crosses)))
        elif name == "realforms.build_real_form":
            self._shared(name + ".shared", str(args[0] if args else kwargs["spec"]))
        elif name == "rootsys.enumerate_parabolics":
            system = args[0]
            cap = args[1] if len(args) > 1 else kwargs.get("rank_cap")
            self._shared(name + ".shared", (system.family, system.rank, cap))
            parent = self.stack[-1] if self.stack else -1
            if parent >= 0 and self.span_names[self.names[parent]] in _PAR_FINDERS:
                c["fibration.par.candidates"] += len(result)
        elif name == "rootsys.weyl_root_permutations":
            c["rootsys.weyl_images"] += len(result) * len(args[0].roots)
        elif name in _PAR_FINDERS:
            c["fibration.par.members"] += len(result)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name, layer):
        nid = len(self.span_names)
        self.span_names.append(name)
        self.span_layers.append(layer)
        names, parents, problems = self.names, self.parents, self.problems
        starts, ends, errors, stack = self.starts, self.ends, self.errors, self.stack
        clock = time.perf_counter
        probe = self._probe if name in _PROBED else None
        materialize = name == "exactlin.canonicalize"

        def wrapper(*args, **kwargs):
            if materialize:
                # the probe counts the rows, so a one-shot iterable is
                # turned into a list before the call consumes it
                if args:
                    args = (list(args[0]),) + args[1:]
                else:
                    kwargs["vectors"] = list(kwargs["vectors"])
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            problems.append(self.problem)
            ends.append(0.0)
            errors.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        """Wrap the public functions and methods of every layer module and
        rebind every module-level name that refers to one of them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"crlie.{layer}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and name not in UNTRACED
                ):
                    wrapped[id(value)] = (value, self._wrap(value, name, layer))
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(value, layer)
        for modname, module in list(sys.modules.items()):
            if modname != "crlie" and not modname.startswith("crlie."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def _wrap_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in UNTRACED:
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, layer))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, layer))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name, layer)
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Per-layer and probe metrics as ``{name: (value, unit)}``."""
        layers = layer_metrics(
            self.names, self.span_layers, self.starts, self.ends,
            self.parents, self.errors,
        )
        out = {}
        for layer in LAYERS:
            entry = layers[layer]
            out[f"{layer}.self_s"] = (entry["self_s"], "s")
            out[f"{layer}.incl_s"] = (entry["incl_s"], "s")
            out[f"{layer}.calls"] = (entry["calls"], "count")
            out[f"{layer}.errors"] = (entry["errors"], "count")
        per_name = [0] * len(self.span_names)
        for nid in self.names:
            per_name[nid] += 1
        calls = dict(zip(self.span_names, per_name))
        for metric, span in CALL_METRICS.items():
            out[metric] = (calls.get(span, 0), "count")
        for counter in COUNTERS:
            out[counter] = (self.counters[counter], "count")
        cands = self.counters["fibration.par.candidates"]
        members = self.counters["fibration.par.members"]
        out["fibration.par.yield"] = (members / cands if cands else 0.0, "ratio")
        return out

    def write_spans(self, path):
        """Write every span as a tab-separated line: name, start, end,
        parent index, problem id, error flag."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\tproblem\terror\n")
            for i, nid in enumerate(self.names):
                handle.write(
                    f"{self.span_names[nid]}\t{self.starts[i]:.9f}\t"
                    f"{self.ends[i]:.9f}\t{self.parents[i]}\t"
                    f"{self.problems[i]}\t{self.errors[i]}\n"
                )
