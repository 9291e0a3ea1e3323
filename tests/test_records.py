"""The package's records are plain classes built by ``crlie._record``: field
order, constructor, ``__post_init__``, repr, equality and hashing, frozen
assignment, pickle and copy, and ``cached_property``, as a dataclass with the
same flags gives them."""

import copy
import pickle

import pytest

from crlie import cli
from crlie._record import _record
from crlie.crcore import RegularityReport, regularity_type
from crlie.fibration import MapClassification, ZRootDecomposition, z_root_decomposition
from crlie.matrixlie import SplitEvidence
from crlie.realforms import (
    AdaptedPair,
    MinimalOrbit,
    RealForm,
    RealFormSpec,
    RootClassification,
    ThetaSets,
    TypeCriteria,
    _Presentation,
    _present,
    build_minimal_orbit,
    build_real_form,
    type_criteria,
)
from crlie.regularize import ParabolicCertificate, RegularizationChain, regularize
from crlie.rootsys import build_root_system, standard_parabolic

FIELDS = {
    cli.ProblemFile: (
        "raw", "ambient_kind", "subalgebra_kind", "form", "ambient_matrices",
        "system", "sub_matrices", "sub_roots", "sub_toral", "crosses", "seed",
        "format", "timings",
    ),
    cli.Workspace: ("backend", "v", "orbit"),
    RegularityReport: (
        "kind", "ambient_rank", "v_normalizer_rank", "levi_normalizer_rank",
    ),
    MapClassification: (
        "is_cr", "is_submersion", "is_spread", "is_deployment",
        "fibers_totally_real", "fibers_totally_complex", "witnesses",
    ),
    ZRootDecomposition: ("center", "system", "scale", "classes", "simple_keys"),
    SplitEvidence: ("all_split", "samples", "witness"),
    RealFormSpec: ("family", "params"),
    AdaptedPair: (
        "h0_basis", "h_plus_basis", "h_minus_basis", "h_plus_coords",
        "h_plus_weights", "h_minus_weights",
    ),
    RealForm: (
        "spec", "n", "system", "k", "adapted", "sigma", "theta", "cartan_basis",
        "coord_elements", "root_vectors", "root_index", "g_sigma", "g_theta",
        "k_space",
    ),
    RootClassification: ("system", "tags", "sigma_star", "theta_star"),
    ThetaSets: (
        "crosses", "flag", "flag_roots", "flag_nilpotent", "flag_reductive",
        "projectable", "theta_core", "theta_core_nilpotent",
        "theta_core_reductive",
    ),
    MinimalOrbit: (
        "form", "crosses", "sets", "classification", "k", "v", "nr", "levi",
    ),
    TypeCriteria: ("type_I", "type_II", "systems", "witnesses", "regularity"),
    _Presentation: (
        "system", "sigma", "theta", "cartan_basis", "coord_elements",
        "root_vectors", "h_minus", "h_plus",
    ),
    ParabolicCertificate: (
        "self_normalizing", "spans_with_conjugate", "triple_decomposition",
    ),
    RegularizationChain: ("backend", "steps", "nr_dims", "certificate", "parabolic"),
}

FROZEN = {ZRootDecomposition, SplitEvidence, RealFormSpec, AdaptedPair, RealForm}
BY_FIELDS = {
    cli.ProblemFile, cli.Workspace, RegularityReport, MapClassification,
    ZRootDecomposition, SplitEvidence, RealFormSpec, ParabolicCertificate,
}
BY_IDENTITY = set(FIELDS) - BY_FIELDS

FLAGS = dict.fromkeys(FIELDS[MapClassification][:-1], False)


@pytest.fixture(scope="module")
def instances():
    """One instance of every record, from the functions that build them."""
    orbit = build_minimal_orbit("su:1,3", [2])
    form = orbit.form
    chain = regularize(orbit.v)
    problem = cli.parse_problem({"ambient": {"system": "A2"}, "subalgebra": {"roots": []}})
    return {
        cli.ProblemFile: problem,
        cli.Workspace: cli._resolve(problem),
        RegularityReport: regularity_type(orbit.v),
        MapClassification: MapClassification(**FLAGS, witnesses={}),
        ZRootDecomposition: z_root_decomposition(
            standard_parabolic(build_root_system("B", 3), [1, 3])
        ),
        SplitEvidence: SplitEvidence(True, 3),
        RealFormSpec: form.spec,
        AdaptedPair: form.adapted,
        RealForm: form,
        RootClassification: form.classification,
        ThetaSets: orbit.sets,
        MinimalOrbit: orbit,
        TypeCriteria: type_criteria(orbit),
        _Presentation: _present(form.spec),
        ParabolicCertificate: chain.certificate,
        RegularizationChain: chain,
    }


def ids(classes):
    return sorted(classes, key=lambda cls: cls.__name__)


def names(cls):
    return cls.__name__


def rebuilt(record, **changes):
    """The record built again from its fields, as dataclasses.replace does."""
    values = {n: getattr(record, n) for n in type(record)._fields}
    return type(record)(**{**values, **changes})


@pytest.mark.parametrize("cls", ids(FIELDS), ids=names)
def test_fields_in_order(cls, instances):
    assert cls._fields == FIELDS[cls]
    assert isinstance(instances[cls], cls)
    values = [getattr(instances[cls], n) for n in cls._fields]
    for record in (cls(*values), rebuilt(instances[cls])):
        assert [getattr(record, n) for n in cls._fields] == values


@pytest.mark.parametrize("cls", ids(FIELDS), ids=names)
def test_repr_in_field_order(cls, instances):
    record = instances[cls]
    if cls is RealForm:
        assert repr(record) == "RealForm(su:1,3)"
        return
    inner = ", ".join(f"{n}={getattr(record, n)!r}" for n in cls._fields)
    assert repr(record) == f"{cls.__qualname__}({inner})"


@pytest.mark.parametrize("cls", ids(BY_FIELDS), ids=names)
def test_equality_by_fields(cls, instances):
    record = instances[cls]
    twin = rebuilt(record)
    assert twin is not record and twin == record and not twin != record
    assert record.__eq__("other") is NotImplemented
    assert record != "other"
    if cls is RealFormSpec:
        assert RealFormSpec("su", (1, 2)) != record
    else:
        assert rebuilt(record, **{cls._fields[0]: "x"}) != record
    if cls in FROZEN:
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("cls", ids(BY_IDENTITY), ids=names)
def test_equality_by_identity(cls, instances):
    record = instances[cls]
    twin = copy.copy(record)
    assert record == record and twin != record
    assert hash(record) == object.__hash__(record)
    assert [getattr(twin, n) for n in cls._fields] == [
        getattr(record, n) for n in cls._fields
    ]


@pytest.mark.parametrize("cls", ids(FROZEN), ids=names)
def test_frozen_records_refuse_assignment_and_deletion(cls, instances):
    record = instances[cls]
    for name in (cls._fields[0], "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert getattr(record, cls._fields[0]) is not None


def test_mutable_records_take_assignment(instances):
    problem = rebuilt(instances[cli.ProblemFile])
    problem.seed = 5
    assert problem.seed == 5 and problem != instances[cli.ProblemFile]


# records holding the closures of a presentation do not pickle, as before
UNPICKLED = {RealForm, MinimalOrbit, _Presentation}


@pytest.mark.parametrize("cls", ids(FIELDS), ids=names)
def test_pickle_and_copy_round_trips(cls, instances):
    record = instances[cls]
    shallow = copy.copy(record)
    assert type(shallow) is cls and shallow.__dict__ == record.__dict__
    backs = [copy.deepcopy(record)]
    if cls not in UNPICKLED:
        backs.append(pickle.loads(pickle.dumps(record)))
    for back in backs:
        assert type(back) is cls and back.__dict__.keys() == record.__dict__.keys()
        if cls in BY_FIELDS:
            assert back == record and repr(back) == repr(record)
        if cls in FROZEN & BY_FIELDS:
            assert hash(back) == hash(record)


def test_constructor_defaults_and_argument_errors():
    assert SplitEvidence(True, 2) == SplitEvidence(True, 2, None)
    assert SplitEvidence(samples=2, all_split=True).witness is None
    work = cli.Workspace("regular", None)
    assert work.orbit is None
    problem = cli.ProblemFile({}, "system", "roots")
    assert (problem.sub_toral, problem.seed, problem.format) == ("zero", 0, "json")
    assert problem.crosses == () and problem.timings is False
    with pytest.raises(TypeError):
        SplitEvidence(True)
    with pytest.raises(TypeError):
        SplitEvidence(True, 2, None, 4)
    with pytest.raises(TypeError):
        SplitEvidence(True, 2, witnes=None)
    with pytest.raises(TypeError):
        SplitEvidence(True, 2, all_split=False)


def test_real_form_spec_normalizes_and_validates():
    spec = RealFormSpec("su", [2, "2"])
    assert spec.params == (2, 2) and type(spec.params) is tuple
    assert spec == RealFormSpec("su", (2, 2)) == RealFormSpec.parse(" su:2,2\t")
    assert hash(spec) == hash(RealFormSpec("su", (2, 2)))
    assert build_real_form("su:2,2") is build_real_form(RealFormSpec("su", (2, 2)))
    with pytest.raises(ValueError, match="unsupported family"):
        RealFormSpec("sl", (2,))
    with pytest.raises(ValueError, match="p <= q"):
        RealFormSpec("su", (3, 2))


def test_map_classification_checks_its_flags():
    with pytest.raises(AssertionError, match="submersion"):
        MapClassification(**{**FLAGS, "is_submersion": True}, witnesses={})
    with pytest.raises(AssertionError, match="deployment"):
        MapClassification(**{**FLAGS, "is_deployment": True}, witnesses={})


def test_root_classification_sets_its_derived_sets(instances):
    rc = instances[RootClassification]
    sets = (
        rc.real_roots, rc.imaginary_compact_roots,
        rc.imaginary_noncompact_roots, rc.complex_roots,
    )
    assert all(type(s) is frozenset for s in sets)
    assert sum(map(len, sets)) == len(rc.tags)
    assert frozenset().union(*sets) == frozenset(rc.tags)
    assert all(rc.tags[a] == "real" for a in rc.real_roots)
    assert "real_roots" not in RootClassification._fields


def test_cached_properties(instances):
    # a copy without the cached value: the lru_cache shares the built form
    form = copy.copy(build_real_form("su:1,2"))
    form.__dict__.pop("classification", None)
    assert form.classification is form.classification
    assert "classification" in form.__dict__
    z = z_root_decomposition(standard_parabolic(build_root_system("B", 3), [1, 3]))
    assert "zroots" not in z.__dict__
    assert z.zroots is z.zroots and "zroots" in z.__dict__
    assert z == instances[ZRootDecomposition]


def test_records_without_eq_or_frozen_keep_object_semantics():
    @_record(eq=False)
    class Plain:
        a: int
        b: int = 2

    one = Plain(1)
    assert (one.a, one.b) == (1, 2) and one != Plain(1)
    one.b = 3
    assert repr(one).endswith(".Plain(a=1, b=3)")
