import random
import time
from fractions import Fraction as F

import pytest

from pencillab.builder import build_pencil, iter_weyr_chars, random_equivalence
from pencillab.extractor import (IrrationalSpectrumError, WeyrChar,
                                 column_index_counts,
                                 column_index_counts_convolution,
                                 kronecker_structure, minimal_indices,
                                 partial_multiplicities, smith_invariant_factors,
                                 strictly_equivalent, weyr_char, weyr_characteristic)
from pencillab.partitions import Star, weight
from pencillab.pencils import INF, Pencil, normal_rank, reversal, transpose
from pencillab.polynomials import pnorm
from pencillab.rmatrix import Matrix


def pencil(a_rows, b_rows):
    return Pencil(Matrix.from_rows(a_rows), Matrix.from_rows(b_rows))


DIAG_SS = Pencil(Matrix.zero(2, 2), Matrix.identity(2))
JORDAN2 = pencil([[0, 1], [0, 0]], [[1, 0], [0, 1]])   # [[s,1],[0,s]]
H_1S = pencil([[1, 0]], [[0, 1]])


def test_smith_examples():
    s = pnorm((0, 1))
    assert smith_invariant_factors(DIAG_SS) == [s, s]
    assert smith_invariant_factors(JORDAN2) == [pnorm((1,)), pnorm((0, 0, 1))]
    assert smith_invariant_factors(H_1S) == [pnorm((1,))]
    assert smith_invariant_factors(Pencil(Matrix.zero(2, 3), Matrix.zero(2, 3))) == []


def test_smith_divisibility_on_random_corpus():
    from pencillab.polynomials import pdivides
    for i, om in enumerate(iter_weyr_chars(5)):
        if i % 37:
            continue
        h = random_equivalence(build_pencil(om), seed=i)
        factors = smith_invariant_factors(h)
        for a, b in zip(factors, factors[1:]):
            assert pdivides(a, b)


def test_partial_multiplicities():
    assert partial_multiplicities(DIAG_SS, F(0)) == (1, 1)
    assert partial_multiplicities(JORDAN2, F(0)) == (2,)
    assert partial_multiplicities(DIAG_SS, F(1)) == ()
    # reversal convention: diag(s,s) reversed has the same structure at inf
    assert partial_multiplicities(DIAG_SS, INF) == ()
    assert partial_multiplicities(pencil([[1]], [[1]]), F(-1)) == (1,)


def test_minimal_indices_examples():
    assert minimal_indices(H_1S) == ((1,), ())
    assert minimal_indices(DIAG_SS) == ((), ())
    assert minimal_indices(pencil([[0]], [[0]])) == ((0,), (0,))
    assert minimal_indices(transpose(H_1S)) == ((), (1,))


def _random_integer_pencil(rng):
    """A rectangular pencil with entries in -3..3, sometimes with a zero row
    or column and sometimes with a repeated row (rank-deficient)."""
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.3:
        i = rng.randrange(m)
        a[i], b[i] = [0] * n, [0] * n
    if rng.random() < 0.3:
        j = rng.randrange(n)
        for row in a + b:
            row[j] = 0
    if m > 1 and rng.random() < 0.3:
        a[-1], b[-1] = list(a[0]), list(b[0])
    return pencil(a, b)


def test_column_counts_match_convolution_oracle():
    cases = [random_equivalence(build_pencil(om), seed=1000 + i)
             for i, om in enumerate(iter_weyr_chars(5)) if i % 53 == 0]
    rng = random.Random(5)
    cases += [_random_integer_pencil(rng) for _ in range(150)]
    for h in cases:
        for g in (h, transpose(h)):
            counts = column_index_counts(g)
            assert counts == column_index_counts_convolution(g, len(counts) - 1), g


def test_weyr_examples():
    w = weyr_characteristic(DIAG_SS)
    assert w == weyr_char({F(0): (2,)}, Star(0), Star(0))
    w = weyr_characteristic(H_1S)
    assert w == weyr_char({}, Star(1, (1,)), Star(0))
    w = weyr_characteristic(JORDAN2)
    assert w == weyr_char({F(0): (1, 1)}, Star(0), Star(0))


def test_weyr_json_roundtrip():
    w = weyr_char({F(0): (2, 1), INF: (1,), F(1, 2): (1,)}, Star(2, (1,)), Star(1))
    data = w.to_json()
    lams = [e["lambda"] for e in data["regular"]]
    assert lams == ["0", "1/2", "inf"]
    assert WeyrChar.from_json(data) == w


def test_irrational_spectrum_rejected():
    # det = s^2 - 2 has no rational roots
    h = pencil([[0, -2], [1, 0]], [[1, 0], [0, 1]])
    with pytest.raises(IrrationalSpectrumError):
        weyr_characteristic(h)
    # but partial multiplicities at a given rational point remain fine
    assert partial_multiplicities(h, F(0)) == ()


def test_strictly_equivalent():
    assert strictly_equivalent(DIAG_SS, DIAG_SS)
    assert not strictly_equivalent(DIAG_SS, JORDAN2)
    assert strictly_equivalent(DIAG_SS, random_equivalence(DIAG_SS, 7))
    with pytest.raises(ValueError):
        strictly_equivalent(DIAG_SS, H_1S)


def test_sum_identity_and_duality_on_corpus():
    for i, om in enumerate(iter_weyr_chars(4)):
        if i % 17:
            continue
        h = build_pencil(om)
        ks = kronecker_structure(h)
        total = (sum(weight(p) for _, p in ks.multiplicities)
                 + sum(ks.column_minimal) + sum(ks.row_minimal))
        assert total == ks.rank == normal_rank(h)
        wt = weyr_characteristic(transpose(h))
        assert wt == weyr_characteristic(h).transpose_swap()


def test_regular_pencils_have_no_minimal_indices():
    for om in iter_weyr_chars(3):
        if om.col_star != Star(0) or om.row_star != Star(0):
            continue
        h = build_pencil(om)
        assert h.m == h.n == normal_rank(h)
        assert minimal_indices(h) == ((), ())


def test_equivalence_invariance_500_trials():
    cases = [om for om in iter_weyr_chars(4) if om.m <= 6 and om.n <= 6]
    for trial in range(500):
        om = cases[trial % len(cases)]
        g = random_equivalence(build_pencil(om), seed=trial)
        assert weyr_characteristic(g) == om


def test_reversal_swaps_zero_and_infinity():
    for om in list(iter_weyr_chars(4))[::29]:
        h = build_pencil(om)
        rev = reversal(h)
        assert partial_multiplicities(rev, INF) == partial_multiplicities(h, F(0))
        assert partial_multiplicities(rev, F(0)) == partial_multiplicities(h, INF)
        assert minimal_indices(rev) == minimal_indices(h)


@pytest.mark.parametrize("omega", [
    # two 9-digit eigenvalues, so the top invariant factor ends near 10^24
    weyr_char({F(-(10**8 + 7)): (1, 1), F(10**8 + 9, 3): (1,)}, Star(0), Star(0)),
    # a 40-digit eigenvalue with a block of size 2
    weyr_char({F(-(10**39 + 3), 7): (1, 1), F(1): (1,)}, Star(1, (1,)), Star(0)),
])
def test_large_eigenvalues_extract_within_budget(omega):
    h = random_equivalence(build_pencil(omega), 1)
    started = time.perf_counter()
    assert weyr_characteristic(h) == omega
    assert time.perf_counter() - started < 10


def test_large_eigenvalue_scrambles_and_reversals_within_budget():
    # a pseudo-remainder step scales a row or column by a power of the
    # pivot's leading coefficient; unless the integer content is taken out
    # again, the 40-digit entries of these pencils compound from one pivot
    # step to the next
    omega = weyr_char({F(-(10**39 + 3), 7): (2, 1), F(10**41 + 17, 3): (1, 1), F(1): (1,)},
                      Star(0), Star(0))
    reversed_omega = weyr_char({1 / lam: p for lam, p in omega.regular}, Star(0), Star(0))
    started = time.perf_counter()
    for seed in range(120):
        h = random_equivalence(build_pencil(omega), seed)
        assert weyr_characteristic(h) == omega
        assert weyr_characteristic(reversal(h)) == reversed_omega
    assert time.perf_counter() - started < 10
