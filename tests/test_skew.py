import numpy as np
import pytest

from quadricdiff.skew import (
    RankError,
    elementary_skew,
    pair_from_index,
    pi_index,
    plucker_eval,
    rank2_factor,
    skew_basis,
    skew_dim,
    skew_to_vec,
    vec_to_skew,
)

rng = np.random.default_rng(1234)


@pytest.mark.parametrize("i,j,d,expected", [
    (1, 2, 6, 1),
    (1, 6, 6, 5),       # pi(1, d) = d - 1
    (5, 6, 6, 15),      # pi(d-1, d) = C(d, 2)
    (1, 2, 2, 1),
    (2, 3, 4, 4),
])
def test_pi_index_values(i, j, d, expected):
    assert pi_index(i, j, d) == expected


def test_pi_index_is_lexicographic_bijection():
    for d in (2, 3, 4, 6, 8):
        pairs = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
        indices = [pi_index(i, j, d) for i, j in pairs]
        assert indices == list(range(1, skew_dim(d) + 1))
        for p, pair in zip(indices, pairs):
            assert pair_from_index(p, d) == pair


@pytest.mark.parametrize("i,j,d", [(2, 2, 4), (3, 2, 4), (0, 1, 4), (1, 5, 4)])
def test_pi_index_rejects_bad_pairs(i, j, d):
    with pytest.raises(ValueError):
        pi_index(i, j, d)


def test_elementary_skew_structure():
    D = elementary_skew(1, 2)
    assert np.array_equal(D, [[0.0, 1.0], [-1.0, 0.0]])
    D = elementary_skew(1, 3)
    assert D[0, 1] == 1.0 and D[1, 0] == -1.0 and np.count_nonzero(D) == 2
    D = elementary_skew(3, 3)
    assert D[1, 2] == 1.0 and D[2, 1] == -1.0
    for d in (2, 3, 5):
        for p in range(1, skew_dim(d) + 1):
            D = elementary_skew(p, d)
            assert np.array_equal(D, -D.T)
            assert D.sum() == 0.0
            assert np.count_nonzero(D) == 2
    with pytest.raises(ValueError):
        elementary_skew(0, 3)
    with pytest.raises(ValueError):
        elementary_skew(4, 3)


def _pair_from_index_loop(p, d):
    """The pair with index p, found by walking the rows of the upper triangle."""
    i = 1
    while p > d - i:
        p -= d - i
        i += 1
    return i, i + p


def _skew_basis_loop(d):
    """The elementary basis built one matrix at a time from its pair."""
    basis = np.zeros((skew_dim(d), d, d))
    for p in range(1, skew_dim(d) + 1):
        i, j = _pair_from_index_loop(p, d)
        basis[p - 1, i - 1, j - 1] = 1.0
        basis[p - 1, j - 1, i - 1] = -1.0
    return basis


@pytest.mark.parametrize("d", range(10))
def test_index_table_is_the_loop_bit_for_bit(d):
    m = skew_dim(d)
    assert skew_basis(d).tobytes() == _skew_basis_loop(d).tobytes()
    for p in range(1, m + 1):
        pair = pair_from_index(p, d)
        assert pair == _pair_from_index_loop(p, d) and all(type(k) is int for k in pair)
        D = elementary_skew(p, d)
        assert D.tobytes() == _skew_basis_loop(d)[p - 1].tobytes()
        D[...] = 0.0  # a writable copy, not a view of the cached basis
    assert skew_basis(d).tobytes() == _skew_basis_loop(d).tobytes()
    for p in (0, m + 1):
        with pytest.raises(ValueError, match="out of range"):
            pair_from_index(p, d)
        with pytest.raises(ValueError, match="out of range"):
            elementary_skew(p, d)


def test_pair_from_index_refuses_a_negative_dimension():
    # skew_dim(-3) = 6, and the row walk never ended for d = -3
    with pytest.raises(ValueError, match="out of range"):
        pair_from_index(1, -3)


def test_vec_roundtrip_exactly_skew():
    for d in (2, 3, 6):
        v = rng.standard_normal(skew_dim(d))
        A = vec_to_skew(v, d)
        assert np.array_equal(A, -A.T)
        assert np.array_equal(skew_to_vec(A), v)
    B = skew_basis(4)
    assert B.shape == (6, 4, 4)
    for p in range(6):
        assert np.array_equal(B[p], elementary_skew(p + 1, 4))


def test_plucker_single_surviving_term():
    A = np.zeros((4, 4))
    A[0, 1] = A[2, 3] = 1.0
    A = A - A.T
    assert plucker_eval(A, (1, 2, 3, 4)) == 1.0


def test_plucker_vanishes_on_rank_two():
    from itertools import combinations

    for d in (4, 5, 6):
        for _ in range(100):
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            A = np.outer(x, y) - np.outer(y, x)
            bound = 1e-12 * (np.linalg.norm(x) * np.linalg.norm(y)) ** 2
            for quad in combinations(range(1, d + 1), 4):
                assert abs(plucker_eval(A, quad)) <= bound


def test_plucker_nonzero_on_full_rank():
    # oracle: direct formula on a generic rank-4 skew matrix, rank checked by det
    for _ in range(20):
        A = vec_to_skew(rng.standard_normal(6), 4)
        if abs(np.linalg.det(A)) < 1e-6:
            continue
        assert abs(plucker_eval(A, (1, 2, 3, 4))) > 1e-8


def test_plucker_rejects_bad_quads():
    A = vec_to_skew(rng.standard_normal(15), 6)
    for quad in ((1, 2, 2, 4), (4, 3, 2, 1), (0, 1, 2, 3), (3, 4, 5, 7)):
        with pytest.raises(ValueError):
            plucker_eval(A, quad)


def test_rank2_factor_elementary():
    A = np.outer(np.eye(4)[0], np.eye(4)[1]) - np.outer(np.eye(4)[1], np.eye(4)[0])
    x, y = rank2_factor(A)
    assert np.linalg.norm(np.outer(x, y) - np.outer(y, x) - A) <= 1e-12


def test_rank2_factor_scaled():
    e1, e3 = np.eye(4)[0], np.eye(4)[2]
    A = 3.0 * (np.outer(e1, e3) - np.outer(e3, e1))
    x, y = rank2_factor(A)
    assert np.linalg.norm(np.outer(x, y) - np.outer(y, x) - A) <= 1e-12


def test_rank2_factor_roundtrip_random():
    # reconstruct-and-compare oracle over random rank-two elements
    for d in (3, 4, 6, 8):
        for _ in range(50):
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            A = np.outer(x, y) - np.outer(y, x)
            if np.linalg.norm(A) < 1e-8:
                continue
            u, v = rank2_factor(A)
            err = np.linalg.norm(np.outer(u, v) - np.outer(v, u) - A)
            assert err <= 1e-10 * np.linalg.norm(A)


def test_rank2_factor_rejects_other_ranks():
    A = vec_to_skew(np.array([1.0, 0, 0, 0, 0, 1.0]), 4)  # D_1 + D_last, rank 4
    with pytest.raises(RankError) as exc:
        rank2_factor(A)
    assert len(exc.value.singular_values) == 4
    with pytest.raises(RankError):
        rank2_factor(np.zeros((3, 3)))
