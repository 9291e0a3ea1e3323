import random
from fractions import Fraction

import pytest

from crlie.exactlin import DenseMatrix, GaussRational, IUNIT, canonicalize
from crlie import crcore
from crlie.crcore import (
    RegularityReport,
    cr_dims,
    cr_dims_regular,
    is_n_reductive,
    is_n_reductive_regular,
    levi_part,
    levi_part_regular,
    n_reductive_split,
    nr_regular,
    regularity_type,
    strengthens,
    strengthens_regular,
)
from crlie.matrixlie import Subalg, gl_ambient, maximal_torus, splittable_evidence
from crlie.rootsys import RegularSubalgebra, build_root_system
from helpers import diagonal

GL3 = gl_ambient(3)
C2 = build_root_system("C", 2)


def g(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def unit(i, j):
    return DenseMatrix.unit(3, i, j)


def idiag(*entries):
    return diagonal([IUNIT * GaussRational.of(e) for e in entries])


def sub(*mats):
    return Subalg.from_matrices(GL3, list(mats))


def c2_sub(toral_rows, *roots):
    return RegularSubalgebra(
        C2,
        canonicalize([list(r) for r in toral_rows], 2),
        frozenset(C2.parse_root(t) for t in roots),
    )


V_SPLIT = sub(idiag(1, 1, 0), unit(0, 2), unit(1, 2))
V_TWISTED = sub(idiag(1, 1, 0) + unit(0, 1), unit(0, 2), unit(1, 2))


class TestLeviPart:
    def test_mixed(self):
        levi = levi_part(V_SPLIT)
        assert levi.dim == 1
        assert levi.contains_matrix(idiag(1, 1, 0))

    def test_nilpotent_only(self):
        v = sub(unit(0, 2), unit(1, 2))
        assert levi_part(v).dim == 0

    def test_sigma_stable(self):
        s = sub(unit(0, 1), unit(1, 0), diagonal([g(1), g(-1), g(0)]))
        assert levi_part(s).space == s.space

    def test_full(self):
        assert levi_part(GL3.full_subalg()).dim == 9


class TestCRDims:
    def test_mixed(self):
        assert cr_dims(V_SPLIT) == (2, 4)

    def test_full(self):
        assert cr_dims(GL3.full_subalg()) == (0, 0)

    def test_totally_real_point(self):
        t = sub(idiag(1, 0, 0), idiag(0, 1, 0), idiag(0, 0, 1))
        assert cr_dims(t) == (0, 6)


class TestNReductive:
    def test_split(self):
        ok, nr, levi = n_reductive_split(V_SPLIT)
        assert ok
        assert nr.dim == 2
        assert levi.dim == 1
        assert is_n_reductive(V_SPLIT)

    def test_twisted_toral_fails(self):
        ok, nr, levi = n_reductive_split(V_TWISTED)
        assert not ok
        assert nr.dim == 2
        assert levi.dim == 0
        # the same obstruction shows up as non-splittability
        assert not splittable_evidence(V_TWISTED).all_split

    def test_reductive_algebra(self):
        s = sub(unit(0, 1), unit(1, 0), diagonal([g(1), g(-1), g(0)]))
        assert is_n_reductive(s)


class TestStrengthens:
    def test_positive(self):
        v = sub(unit(0, 2))
        w = sub(unit(0, 2), unit(1, 2))
        assert strengthens(v, w)

    def test_levi_must_match(self):
        v = sub(unit(0, 2))
        w = sub(unit(0, 2), idiag(1, 1, 0))
        assert v.is_subspace_of(w)
        assert not strengthens(v, w)

    def test_containment_required(self):
        v = sub(unit(0, 2))
        w = sub(unit(1, 2))
        assert not strengthens(v, w)


class TestRegularityType:
    def test_torus_normalized(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m)
            return maximal_torus(m)

        monkeypatch.setattr(crcore, "maximal_torus", counted)
        # N(v) meet sigma N(v) is N(L) meet sigma N(L) here: one torus for both
        rep = regularity_type(V_SPLIT)
        assert rep == RegularityReport("I", 3, 3, 3)
        assert len(calls) == 1
        # distinct spaces each get their own torus
        calls.clear()
        assert regularity_type(sub(unit(0, 2), idiag(1, 1, 0))) == RegularityReport("I", 3, 3, 3)
        assert len(calls) == 2 and calls[0] != calls[1]

    def test_conjugated_stays_type_one(self):
        p = DenseMatrix.identity(3) + unit(0, 1)
        pinv = DenseMatrix.identity(3) - unit(0, 1)
        mats = [p * m * pinv for m in V_SPLIT.matrices()]
        rep = regularity_type(Subalg.from_matrices(GL3, mats))
        assert rep.kind == "I"

    def test_principal_nilpotent_line(self):
        # a line through a regular nilpotent is normalized by tori of rank 2
        # at most, while its trivial Levi part is normalized by everything
        v = sub(unit(0, 1) + unit(1, 2))
        rep = regularity_type(v)
        assert rep.kind == "II"
        assert rep.v_normalizer_rank == 2
        assert rep.levi_normalizer_rank == 3


V_REG = c2_sub([(1, 1)], "2e1", "e1+e2", "2e2")


class TestRegularLayer:
    def test_levi_and_nr(self):
        levi = levi_part_regular(V_REG)
        assert levi.dim == 1
        assert levi.rootset == frozenset()
        assert nr_regular(V_REG) == V_REG.rootset

    def test_n_reductive_real_toral(self):
        assert is_n_reductive_regular(V_REG)

    def test_n_reductive_fails_for_complex_toral(self):
        v = c2_sub([(1, IUNIT)], "2e1")
        assert not is_n_reductive_regular(v)
        assert cr_dims_regular(v)[0] == 2

    def test_cr_dims(self):
        assert cr_dims_regular(V_REG) == (3, 3)

    def test_strengthens(self):
        w = c2_sub([(1, 1)], "2e1", "e1+e2", "2e2", "e1-e2")
        assert strengthens_regular(V_REG, w)
        full_levi = RegularSubalgebra(C2, C2.cartan, V_REG.rootset)
        assert not strengthens_regular(V_REG, full_levi)
