import random
from fractions import Fraction

from crlie.exactlin import DenseMatrix, GaussRational, IUNIT, Subspace, canonicalize
from crlie.matrixlie import Subalg, bracket_closure, gl_ambient, nilradical_nr
from crlie.regularize import (
    certify_parabolic,
    certify_parabolic_regular,
    regularize,
    regularize_regular,
)
from crlie.rootsys import (
    ParabolicRootSet,
    RegularSubalgebra,
    build_root_system,
    closed_closure,
    neg,
    parabolic_from_grading,
    standard_borel,
)

GL3 = gl_ambient(3)
C2 = build_root_system("C", 2)
B3 = build_root_system("B", 3)


def g(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def unit(i, j):
    return DenseMatrix.unit(3, i, j)


def idiag(*entries):
    return DenseMatrix.diag([IUNIT * GaussRational.of(e) for e in entries])


class TestMatrixChain:
    def test_borel_is_fixed_point(self):
        borel = Subalg.from_matrices(
            GL3,
            [unit(0, 0), unit(1, 1), unit(2, 2), unit(0, 1), unit(0, 2), unit(1, 2)],
        )
        chain = regularize(borel)
        assert chain.dims == [6, 6]
        assert chain.nr_dims == [3, 3]
        assert chain.result.space == borel.space
        assert chain.certificate.ok

    def test_split_example(self):
        v = Subalg.from_matrices(GL3, [idiag(1, 1, 0), unit(0, 2), unit(1, 2)])
        chain = regularize(v)
        assert chain.dims == [3, 7, 7]
        assert chain.nr_dims == [2, 2, 2]
        block = Subalg.from_matrices(
            GL3,
            [
                unit(0, 0), unit(0, 1), unit(1, 0), unit(1, 1), unit(2, 2),
                unit(0, 2), unit(1, 2),
            ],
        )
        assert chain.result.space == block.space
        assert chain.parabolic is chain.result
        assert chain.certificate.ok

    def test_single_root_line(self):
        v = Subalg.from_matrices(GL3, [unit(0, 2)])
        chain = regularize(v)
        assert chain.dims == [1, 6, 6]
        assert chain.nr_dims == [1, 3, 3]
        assert chain.result.contains_matrix(unit(0, 1))
        assert chain.certificate.ok

    def test_reductive_input_regularizes_to_everything(self):
        s = Subalg.from_matrices(
            GL3, [unit(0, 1), unit(1, 0), DenseMatrix.diag([g(1), g(-1), g(0)])]
        )
        chain = regularize(s)
        assert chain.result.dim == 9
        assert chain.certificate.ok

    def test_certificate_rejects_non_parabolic(self):
        n3 = Subalg.from_matrices(GL3, [unit(0, 1), unit(0, 2), unit(1, 2)])
        cert = certify_parabolic(n3)
        assert not cert.self_normalizing
        assert not cert.spans_with_conjugate
        assert not cert.ok

    def test_random_inputs_certify(self):
        rng = random.Random(29)
        for _ in range(10):
            mats = []
            for _ in range(rng.randrange(1, 3)):
                mats.append(
                    DenseMatrix(
                        [
                            [g(rng.randrange(-2, 3)) for _ in range(3)]
                            for _ in range(3)
                        ]
                    )
                )
            v = bracket_closure(Subalg.from_matrices(GL3, mats))
            chain = regularize(v)
            assert v.is_subspace_of(chain.result)
            assert chain.nr_dims[-1] == nilradical_nr(chain.result).dim
            assert chain.certificate.ok


class TestRegularChain:
    def test_c2_one_step(self):
        v = RegularSubalgebra(
            C2,
            canonicalize([[1, 1]], 2),
            frozenset(C2.parse_root(t) for t in ("2e1", "e1+e2", "2e2")),
        )
        chain = regularize_regular(v)
        assert chain.dims == [4, 7, 7]
        assert chain.nr_dims == [3, 3, 3]
        q = chain.parabolic
        assert q.q_r == frozenset(
            {C2.parse_root("e1-e2"), C2.parse_root("e2-e1")}
        )
        assert q.q_n == v.rootset
        assert chain.certificate.ok

    def test_b3_chain(self):
        v = RegularSubalgebra(
            B3,
            Subspace.zero(3),
            frozenset({B3.parse_root("e1-e3"), B3.parse_root("e2")}),
        )
        chain = regularize_regular(v)
        assert chain.dims == [2, 9, 13, 13]
        assert chain.nr_dims == [2, 4, 8, 8]
        assert chain.parabolic == parabolic_from_grading(B3, (1, 2, -1))
        assert chain.parabolic != standard_borel(B3)
        assert chain.certificate.ok

    def test_parabolic_input_is_fixed(self):
        q = parabolic_from_grading(B3, (1, 1, 1))
        v = q.to_regular()
        chain = regularize_regular(v)
        assert chain.dims == [chain.dims[0]] * len(chain.dims)
        assert chain.parabolic == q

    def test_certify_standard_parabolics(self):
        for grading in [(1, 1, 1), (1, 2, -1), (5, 3, 1)]:
            q = parabolic_from_grading(B3, grading)
            assert certify_parabolic_regular(q).ok

    def test_random_regular_inputs(self):
        rng = random.Random(37)
        systems = [
            build_root_system("A", 2),
            build_root_system("A", 3),
            build_root_system("B", 2),
            build_root_system("B", 3),
            build_root_system("C", 2),
            build_root_system("D", 3),
        ]
        for _ in range(100):
            system = rng.choice(systems)
            seed_roots = rng.sample(system.roots_sorted, rng.randrange(0, 4))
            roots = closed_closure(system, seed_roots)
            toral_rows = [
                list(system.coroot(a)) for a in roots if neg(a) in roots
            ]
            if rng.random() < 0.5:
                extra = [0] * system.coord_dim
                for s in system.simple_roots:
                    c = rng.randrange(-2, 3)
                    extra = [x + c * y for x, y in zip(extra, s)]
                toral_rows.append(extra)
            v = RegularSubalgebra(
                system,
                canonicalize(toral_rows, system.coord_dim),
                roots,
            )
            chain = regularize_regular(v)
            assert v.rootset <= chain.parabolic.q
            assert chain.certificate.ok
            assert isinstance(chain.parabolic, ParabolicRootSet)
