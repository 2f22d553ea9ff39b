import random

import pytest

from qrtorsion.fields import QQ, GF
from qrtorsion.linalg import (Matrix, IntegerMatrix, LinAlgError,
                              smith_normal_form)
from qrtorsion.torsion import _image_and_section
from util import random_invertible


def test_matrix_shape_validation():
    with pytest.raises(LinAlgError):
        Matrix(QQ, [[QQ.one()], [QQ.one(), QQ.one()]], 2, 2)


def test_rank_kernel_image_dimensions():
    rng = random.Random(5)
    for F in (QQ, GF(5)):
        for _ in range(40):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            A = Matrix.from_int_rows(
                F, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)],
                m, n)
            r = A.rank()
            K = A.kernel_basis()
            assert K.ncols == n - r
            assert (A * K).is_zero()
            assert _image_and_section(A)[0].ncols == r


def test_solve_consistency():
    rng = random.Random(9)
    F = GF(7)
    for _ in range(50):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = Matrix.from_int_rows(
            F, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)],
            m, n)
        x = Matrix.from_int_rows(F, [[rng.randint(-3, 3)] for _ in range(n)],
                                 n, 1)
        rhs = A * x
        sol = A.solve(rhs)
        assert sol is not None and A * sol == rhs


def test_determinant_multiplicative():
    rng = random.Random(2)
    for F in (QQ, GF(11)):
        for _ in range(30):
            n = rng.randint(1, 5)
            A = random_invertible(F, n, rng)
            B = random_invertible(F, n, rng)
            assert (A * B).determinant() == F.mul(A.determinant(),
                                                  B.determinant())
            assert F.mul(A.determinant(),
                         A.inverse().determinant()) == F.one()


def test_smith_normal_form_random():
    rng = random.Random(3)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = IntegerMatrix([[rng.randint(-9, 9) for _ in range(n)]
                           for _ in range(m)], m, n)
        snf = smith_normal_form(A)
        assert A * snf.V == snf.Uinv * snf.D
        assert snf.V * snf.Vinv == IntegerMatrix.identity(n)
        diag = [snf.D.rows[i][i] for i in range(min(m, n))]
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] and diag[i + 1] % diag[i] == 0
        assert abs(snf.Uinv.to_field(QQ).determinant()) == 1
        assert abs(snf.V.to_field(QQ).determinant()) == 1


def test_block_and_stack():
    F = GF(5)
    A = Matrix.from_int_rows(F, [[1, 2]], 1, 2)
    B = Matrix.from_int_rows(F, [[3]], 1, 1)
    H = A.hstack(B)
    assert H.ncols == 3 and H.rows[0][2] == F.from_int(3)
    assert A.hstack(B, A) == Matrix.from_int_rows(F, [[1, 2, 3, 1, 2]], 1, 5)
