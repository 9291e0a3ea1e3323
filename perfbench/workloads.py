"""Seeded problem lists for the crlie benchmark.

Each workload is a fixed list of slots.  A slot fixes the command, the
ambient (a real form or a root system) and the shape of the subalgebra, so
every slot has a known size and the run-to-run spread of the whole list
stays small.  The seed then draws the actual inputs:

* ``options.seed``, which the matrix backend uses for its random elements;
* for root-set slots, a random Weyl group element that is applied to the
  slot's seed roots before their closure is taken.  The subalgebra is then a
  random closed root set in the Weyl orbit of the slot's shape, so its
  answers (dimensions, chain lengths, Par(v) sizes) do not depend on the
  seed while its literals, matrices and elimination order do.

Why each workload exists is recorded in ``README.md``.
"""

import random

DEFAULT_SEED = 0

# (form, crosses, command): every form of the paper's examples whose
# problems take a few seconds at most.  su:2,3 and so:3,5 are left out
# (8 to 19 s a problem would leave room for a single pass in a run).
ORBIT_SLOTS = (
    ("slH:2", (2,), "regularize"),
    ("su:2,2", (2,), "analyze"),
    ("su:2,2", (1, 3), "analyze"),
    ("su:2,2", (1, 3), "regularize"),
    ("compact-u:3", (1, 2), "regularize"),
    ("compact-sp:2", (1, 2), "regularize"),
    ("su:1,3", (2, 3), "regularize"),
    ("so:1,4", (1, 2), "analyze"),
    ("so:2,3", (2,), "analyze"),
    ("su:1,2", (1,), "analyze"),
    ("su:1,2", (2,), "regularize"),
)

# compact form -> (root system family, rank) of its presentation
COMPACT_SYSTEMS = {
    "compact-u:3": ("A", 2),
    "compact-sp:2": ("C", 2),
    "compact-so:5": ("B", 2),
}

# (form, seed roots, toral, command); toral is "coroots" (the coroots of
# the +- pairs, which a regular subalgebra must contain) or "full"
EMBEDDED_SLOTS = (
    ("compact-u:3", ("e1-e2",), "coroots", "analyze"),
    ("compact-u:3", ("e1-e3",), "coroots", "regularize"),
    ("compact-u:3", ("e2-e3",), "full", "fibration"),
    ("compact-u:3", ("e1-e2",), "coroots", "lift"),
    ("compact-sp:2", ("2e1", "e1+e2"), "coroots", "analyze"),
    ("compact-sp:2", ("2e1", "2e2"), "coroots", "regularize"),
    ("compact-sp:2", ("-2e2",), "coroots", "fibration"),
    ("compact-so:5", ("e1", "e2"), "coroots", "analyze"),
)

# (system, seed roots, toral, command)
ROOT_PAR_SLOTS = (
    ("B3", ("e1",), "coroots", "par-min"),
    ("B3", ("e1-e2", "e3"), "coroots", "par-max"),
    ("C3", ("2e1",), "coroots", "par-min"),
    ("C3", ("e1-e2", "2e3"), "coroots", "par-max"),
    ("A4", ("e1-e2",), "coroots", "par-min"),
    ("D4", ("e1-e2", "e3-e4", "e2+e3"), "coroots", "par-min"),
    ("D4", ("e1+e2",), "coroots", "par-max"),
    ("B4", ("e1+e2", "e3-e4", "e4"), "coroots", "par-min"),
    ("C4", ("e1+e2", "e3-e4", "2e4"), "coroots", "par-min"),
    ("C4", ("2e1", "e2-e3"), "coroots", "regularize"),
    ("B3", ("e1-e2", "e2-e1"), "coroots", "fibration"),
    ("D4", ("e1-e2", "e3+e4"), "coroots", "lift"),
    ("C3", ("e1-e2", "2e3"), "full", "lift"),
)

WORKLOADS = ("orbit-sweep", "embedded-roots", "root-par")


def _random_weyl_element(rng, system):
    """A uniformly drawn signed permutation of the e_i coordinates that lies
    in the Weyl group of ``system``."""
    n = system.coord_dim
    perm = list(range(n))
    rng.shuffle(perm)
    if system.family == "A":
        signs = [1] * n
    else:
        signs = [rng.choice((1, -1)) for _ in range(n)]
        if system.family == "D" and signs.count(-1) % 2:
            signs[0] = -signs[0]
    return perm, signs


def _apply(element, alpha):
    perm, signs = element
    return tuple(signs[i] * alpha[perm[i]] for i in range(len(alpha)))


def _root_subalgebra(rng, system, seed_roots, toral):
    """Closed root set and toral part for a random Weyl conjugate of the
    closure of ``seed_roots``."""
    from crlie.rootsys import closed_closure, format_root, neg

    element = _random_weyl_element(rng, system)
    moved = [_apply(element, system.parse_root(t)) for t in seed_roots]
    roots = sorted(closed_closure(system, moved))
    sub = {"roots": [format_root(a) for a in roots]}
    if toral == "full":
        sub["toral"] = "full"
    else:
        rows = [
            [str(c) for c in system.coroot(a)] for a in roots if neg(a) in roots
        ]
        if rows:
            sub["toral"] = rows
    return sub


def generate(workload, seed):
    """The workload's problem list for ``seed``: a list of
    ``(command, problem)`` pairs, where ``problem`` is the JSON object the
    ``crlie`` command reads from its problem file."""
    # crlie is imported here, not at the top, so that the benchmark can
    # read the workload names without the package on the path
    from crlie.rootsys import build_root_system

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    out = []
    if workload == "orbit-sweep":
        for form, crosses, command in ORBIT_SLOTS:
            problem = {
                "ambient": {"form": form},
                "subalgebra": {"minimal-orbit": True},
                "crosses": list(crosses),
            }
            out.append((command, problem))
    elif workload == "embedded-roots":
        for form, seed_roots, toral, command in EMBEDDED_SLOTS:
            system = build_root_system(*COMPACT_SYSTEMS[form])
            sub = _root_subalgebra(rng, system, seed_roots, toral)
            out.append((command, {"ambient": {"form": form}, "subalgebra": sub}))
    else:
        for tag, seed_roots, toral, command in ROOT_PAR_SLOTS:
            system = build_root_system(tag[0], int(tag[1:]))
            sub = _root_subalgebra(rng, system, seed_roots, toral)
            out.append((command, {"ambient": {"system": tag}, "subalgebra": sub}))
    for _, problem in out:
        problem["options"] = {"seed": rng.randrange(1000)}
    return out
