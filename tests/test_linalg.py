import random

import pytest

from qrtorsion.fields import QQ, GF
from qrtorsion.generate import generate_instance
from qrtorsion.linalg import (Matrix, LinAlgError,
                              smith_normal_form)
from qrtorsion.schemas import instance_from_json, instance_to_json
from qrtorsion.torsion import _image_and_section
from qrtorsion.verifier import verify_main_theorem
from util import dense_product, random_invertible


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
        A = Matrix.from_int_rows(QQ, [[rng.randint(-9, 9) for _ in range(n)]
                                      for _ in range(m)], m, n)
        snf = smith_normal_form(A)
        assert A * snf.V == snf.Uinv * snf.D
        assert snf.V * snf.Vinv == Matrix.identity(QQ, n)
        diag = [snf.D.num[i][i] for i in range(min(m, n))]
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


def _recorded_products(monkeypatch):
    """Wrap Matrix products so that each one is compared, as it is made,
    with the dense reference product on the same operands; returns the list
    of (field, shape, agrees) records."""
    records = []
    real_matrix_mul = Matrix.__mul__

    def matrix_mul(A, B):
        before = ([list(r) for r in A.num], [list(r) for r in B.num])
        want = Matrix._make(A.field, dense_product(
            A.num, B.num, B.ncols, A.field.char), A.den * B.den,
            A.nrows, B.ncols)
        P = real_matrix_mul(A, B)
        records.append((A.field, (A.nrows, A.ncols, B.ncols),
                        P == want and (A.num, B.num) == before
                        and _fresh_rows(P.num, A.num, B.num)))
        return P

    monkeypatch.setattr(Matrix, "__mul__", matrix_mul)
    return records


def _fresh_rows(rows, *operands):
    held = {id(r) for M in operands for r in M}
    return not any(id(r) in held for r in rows)


@pytest.mark.parametrize("page, b, F, surplus", [
    *((2, b, F, s) for b in (3, 9) for F in (GF(7), QQ)
      for s in ((0, 0, 0, 0), (2, 2, 2, 2))),
    *((3, b, F, (0, 0, 0, 0)) for b in (2, 4) for F in (GF(5), QQ))],
    ids=lambda x: repr(x).replace(" ", ""))
def test_products_of_generate_and_verify_match_the_dense_product(
        monkeypatch, page, b, F, surplus):
    # every product a generate and a JSON round-trip verify make, on the
    # shapes and sparsity the lifts and checks actually produce
    records = _recorded_products(monkeypatch)
    inst = generate_instance(page, b, F, 1, surplus=surplus)
    assert verify_main_theorem(
        instance_from_json(instance_to_json(inst))).all_pass
    # the integer products of realize_morse are Matrix products over Q
    assert QQ in {field for field, _, _ in records}
    assert [r for r in records if not r[2]] == []
