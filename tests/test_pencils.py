import json
from fractions import Fraction as F

import pytest

from pencillab.builder import random_rank_one
from pencillab.pencils import (INF, Pencil, RankOneKind, apply_equivalence,
                               classify_rank_one, eigenvalue, evaluate, normal_rank,
                               parse_eigenvalue, reversal, transpose)
from pencillab.randomness import make_rng
from pencillab.rmatrix import Matrix, random_unimodular, rank


def pencil(a_rows, b_rows):
    return Pencil(Matrix.from_rows(a_rows), Matrix.from_rows(b_rows))


H_1S = pencil([[1, 0]], [[0, 1]])            # [1, s]
DIAG_SS = Pencil(Matrix.zero(2, 2), Matrix.identity(2))


def test_evaluate():
    h = pencil([[1, 0], [0, 0]], [[0, 1], [0, 0]])
    assert evaluate(h, F(0)) == Matrix.from_rows([[1, 0], [0, 0]])
    assert evaluate(h, INF) == Matrix.from_rows([[0, 1], [0, 0]])
    assert evaluate(DIAG_SS, F(2)) == Matrix.from_rows([[2, 0], [0, 2]])


def test_eigenvalue_coercion():
    assert eigenvalue(2) == F(2)
    assert eigenvalue(INF) == INF
    with pytest.raises(TypeError):
        eigenvalue(0.5)
    assert parse_eigenvalue("3/2") == F(3, 2)
    assert parse_eigenvalue("inf") == INF


def test_matrix_rank():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.zero(2, 4)) == 0
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank(Matrix(0, 3, ())) == 0


def test_normal_rank():
    assert normal_rank(H_1S) == 1
    assert normal_rank(Pencil(Matrix.zero(2, 2), Matrix.zero(2, 2))) == 0
    assert normal_rank(pencil([[0, 0], [0, 1]], [[1, 0], [0, 0]])) == 2
    assert normal_rank(transpose(H_1S)) == 1
    assert normal_rank(reversal(H_1S)) == 1


def test_reversal_involution():
    assert reversal(reversal(H_1S)) == H_1S


def test_apply_equivalence():
    assert apply_equivalence(H_1S, Matrix.identity(1), Matrix.identity(2)) == H_1S
    perm = Matrix.from_rows([[0, 1], [1, 0]])
    g = apply_equivalence(pencil([[1, 0], [0, 0]], [[0, 0], [0, 1]]),
                          perm, Matrix.identity(2))
    assert g.a == Matrix.from_rows([[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        apply_equivalence(H_1S, Matrix.zero(1, 1), Matrix.identity(2))


def test_classify_rank_one_examples():
    d = classify_rank_one(pencil([[1, 0], [0, 0]], [[0, 1], [0, 0]]))
    assert d.kind is RankOneKind.COLUMN
    assert d.reconstruct() == pencil([[1, 0], [0, 0]], [[0, 1], [0, 0]])

    d = classify_rank_one(pencil([[1], [0]], [[0], [1]]))
    assert d.kind is RankOneKind.ROW

    # constant rank-one pencil: both factorizations apply, COLUMN wins
    d = classify_rank_one(pencil([[1, 0], [0, 0]], [[0, 0], [0, 0]]))
    assert d.kind is RankOneKind.COLUMN

    with pytest.raises(ValueError):
        classify_rank_one(DIAG_SS)


@pytest.mark.parametrize("kind", [RankOneKind.COLUMN, RankOneKind.ROW])
@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 4), (5, 5)])
def test_random_rank_one_contract(kind, m, n):
    for seed in range(20):
        p = random_rank_one(seed, m, n, kind)
        assert normal_rank(p) == 1
        stacked = p.a.vstack(p.b)
        compound = p.a.hstack(p.b)
        if kind is RankOneKind.COLUMN:
            assert rank(compound) == 1
        else:
            assert rank(stacked) == 1
        assert classify_rank_one(p).kind is kind
        assert classify_rank_one(p).reconstruct() == p


def test_random_unimodular_is_unimodular():
    rng = make_rng("unimodular-test")
    for n in (1, 2, 4, 6):
        for _ in range(10):
            u = random_unimodular(n, rng)
            assert rank(u) == n


def test_pencil_json_roundtrip_bit_exact():
    h = pencil([[F(1, 3), 0], [2, F(-5, 7)]], [[0, F(22, 7)], [1, 0]])
    data = json.loads(json.dumps(h.to_json()))
    back = Pencil.from_json(data)
    assert back == h
    assert data["A"][0][0] == "1/3" and data["B"][0][1] == "22/7"


def test_empty_shapes():
    z = Pencil(Matrix(0, 2, ()), Matrix(0, 2, ()))
    assert z.shape() == (0, 2)
    assert normal_rank(z) == 0
    back = Pencil.from_json(json.loads(json.dumps(z.to_json())))
    assert back == z
    z2 = Pencil(Matrix(2, 0, ((), ())), Matrix(2, 0, ((), ())))
    assert normal_rank(z2) == 0
