from fractions import Fraction as F

import pytest

from pencillab.bounds import (Interval, RankRelation, Scenario, check_bounds,
                              completion_bounds, isqrt, perturbation_bounds,
                              two_sided_completion_bounds)
from pencillab.builder import iter_weyr_chars, random_weyr
from pencillab.extractor import weyr_char
from pencillab.partitions import Star, rle, star
from pencillab.pencils import RankOneKind

COL, ROW = RankOneKind.COLUMN, RankOneKind.ROW
EQ, MINUS, PLUS, UNK = (RankRelation.EQUAL, RankRelation.MINUS_ONE,
                        RankRelation.PLUS_ONE, RankRelation.UNKNOWN)


def _om(regular=None, col=Star(0), row=Star(0)):
    return weyr_char(regular or {}, col, row)


def _star(*runs):
    return star(rle(*runs))


def test_isqrt_exactness():
    for k in list(range(0, 2000)) + [10302, 113, 79, 2702, 10 ** 12 + 7]:
        r = isqrt(k)
        assert r * r <= k < (r + 1) * (r + 1)
    with pytest.raises(ValueError):
        isqrt(-1)


def test_completion_bounds_examples():
    # row star weight 3 on the subpencil side
    iv = completion_bounds(_om(row=Star(1, (1, 1))), EQ)
    assert (iv["s"].lower, iv["s"].upper) == (-1, 1)
    assert (iv["r"].lower, iv["r"].upper) == (0, 0)
    assert (iv["w"].lower, iv["w"].upper) == (-1, 0)
    iv = completion_bounds(_om(), PLUS)
    assert (iv["r"].lower, iv["r"].upper) == (-1, 0)
    assert (iv["s"].lower, iv["s"].upper) == (0, 0)
    with pytest.raises(ValueError):
        completion_bounds(_om(), MINUS)


def test_two_sided_examples():
    iv = two_sided_completion_bounds(_om(row=Star(2)), 1)
    assert (iv["s"].lower, iv["s"].upper) == (0, 1)

    om = _om(col=_star((11, 11), (1, 3)))  # column tail weight 113
    iv = two_sided_completion_bounds(om, 2)
    assert (iv["r"].lower, iv["r"].upper) == (-11, 12)
    assert iv["r"].tag == "eqgpboundrrrr1+"

    iv = two_sided_completion_bounds(_om(), 4)
    assert (iv["w"].lower, iv["w"].upper) == (0, 2)
    with pytest.raises(ValueError):
        two_sided_completion_bounds(_om(), 5)


def test_perturbation_bounds_column_kind_examples():
    om = _om(row=_star((101, 102)))  # row star weight 10302
    iv = perturbation_bounds(om, Scenario(COL, EQ))
    assert (iv["s"].lower, iv["s"].upper) == (-101, 101)

    om = _om(row=_star((10, 10)))  # row star weight 100
    iv = perturbation_bounds(om, Scenario(COL, EQ))
    assert iv["s"].upper == 10

    iv = perturbation_bounds(_om(), Scenario(None, UNK))
    assert (iv["w"].lower, iv["w"].upper) == (-2, 2)
    assert iv["w"].tag == "eqgpboundw"


# The paper's printed formulas for the row kind, the unknown kind and the
# fully unknown scenario.  The library derives them from the column kind;
# these are the oracle it must reproduce, endpoints and tags alike.

def _row_kind_bounds(omega, relation):
    r = omega.col_star.tail_weight
    r_star = omega.col_star.star_weight
    s = omega.row_star.tail_weight
    if relation is EQ:
        if r == 0:
            r_iv = Interval(0, 1, "eqgpboundrrrr1col")
        else:
            r_iv = Interval(-isqrt(r_star), isqrt(r_star), "eqgpboundrrrr1col")
        if s == 0:
            s_iv = Interval(0, 2, "eqgpboundsrrr1+col")
        else:
            s_iv = Interval(-isqrt(s) - 1, isqrt(s - 1) + 2, "eqgpboundsrrr1+col")
        return {"w": Interval(-1, 1, "eqgpboundwrrr1"), "r": r_iv, "s": s_iv}
    if relation is MINUS:
        return {"w": Interval(-2, 0, "eqgpboundwrr+"),
                "r": Interval(1 - isqrt(r_star + 1), 1, "eqgpboundrrr+col"),
                "s": Interval(-isqrt(s), 1, "eqgpboundsrr+col")}
    return {"w": Interval(0, 2, "eqgpboundwr+r"),
            "r": Interval(-1, -1 + isqrt(r_star), "eqgpboundrr+rcol"),
            "s": Interval(-1, isqrt(s + 1), "eqgpboundsr+rcol")}


def _unknown_kind_bounds(omega, relation):
    r = omega.col_star.tail_weight
    r_star = omega.col_star.star_weight
    s = omega.row_star.tail_weight
    s_star = omega.row_star.star_weight
    if relation is EQ:
        if r == 0:
            r_iv = Interval(0, 2, "eqgpboundrrrr1gilt")
        else:
            r_iv = Interval(min(-isqrt(r) - 1, -isqrt(r_star)),
                            max(isqrt(r - 1) + 2, isqrt(r_star)), "eqgpboundrrrr1gilt")
        if s == 0:
            s_iv = Interval(0, 2, "eqgpboundrrrr1gilts")
        else:
            s_iv = Interval(min(-isqrt(s) - 1, -isqrt(s_star)),
                            max(isqrt(s - 1) + 2, isqrt(s_star)), "eqgpboundrrrr1gilts")
        return {"w": Interval(-1, 1, "eqgpboundwrrr1"), "r": r_iv, "s": s_iv}
    if relation is MINUS:
        return {"w": Interval(-2, 0, "eqgpboundwrr+"),
                "r": Interval(min(1 - isqrt(r_star + 1), -isqrt(r)), 1, "eqgpboundrrr+rowcol"),
                "s": Interval(min(1 - isqrt(s_star + 1), -isqrt(s)), 1, "eqgpboundsrr+rowcol")}
    return {"w": Interval(0, 2, "eqgpboundwr+r"),
            "r": Interval(-1, max(-1 + isqrt(r_star), isqrt(r + 1)), "eqgpboundrr+rrowcol"),
            "s": Interval(-1, max(-1 + isqrt(s_star), isqrt(s + 1)), "eqgpboundsr+rrowcol")}


def _fully_unknown_bounds(omega):
    r = omega.col_star.tail_weight
    r_star = omega.col_star.star_weight
    s = omega.row_star.tail_weight
    s_star = omega.row_star.star_weight
    if r == 0:
        r_iv = Interval(min(1 - isqrt(r_star + 1), -1),
                        max(2, -1 + isqrt(r_star)), "eqgpboundr")
    else:
        r_iv = Interval(min(-isqrt(r_star), -1 - isqrt(r)),
                        max(2 + isqrt(r - 1), isqrt(r_star)), "eqgpboundr")
    if s == 0:
        s_iv = Interval(min(1 - isqrt(s_star + 1), -1),
                        max(2, -1 + isqrt(s_star)), "eqgpbounds")
    else:
        s_iv = Interval(min(-isqrt(s_star), -1 - isqrt(s)),
                        max(2 + isqrt(s - 1), isqrt(s_star)), "eqgpbounds")
    return {"w": Interval(-2, 2, "eqgpboundw"), "r": r_iv, "s": s_iv}


def _printed_bounds(omega, scenario):
    kind, rel = scenario.kind, scenario.rank_relation
    if kind is None:
        return _fully_unknown_bounds(omega) if rel is UNK else _unknown_kind_bounds(omega, rel)
    if kind is COL:
        def fn(om, case):
            return perturbation_bounds(om, Scenario(COL, case))
    else:
        fn = _row_kind_bounds
    if rel is not UNK:
        return fn(omega, rel)
    out = fn(omega, EQ)
    for case in (MINUS, PLUS):
        ivs = fn(omega, case)
        out = {k: out[k].hull(ivs[k]) for k in out}
    return out


def test_derived_bounds_match_printed_formulas():
    corpus = list(iter_weyr_chars(6)) + [random_weyr(seed, 12) for seed in range(3000)]
    assert len(corpus) == 4424
    scenarios = [Scenario(kind, rel) for kind in (COL, ROW, None)
                 for rel in (EQ, MINUS, PLUS, UNK)]
    for om in corpus:
        for sc in scenarios:
            assert perturbation_bounds(om, sc) == _printed_bounds(om, sc), (om, sc)


def test_transpose_duality_of_kind_formulas():
    for seed in range(120):
        om = random_weyr(seed, 7)
        swapped = om.transpose_swap()
        for rel in (EQ, MINUS, PLUS, UNK):
            a = perturbation_bounds(om, Scenario(ROW, rel))
            b = perturbation_bounds(swapped, Scenario(COL, rel))
            assert (a["w"].lower, a["w"].upper) == (b["w"].lower, b["w"].upper)
            assert (a["r"].lower, a["r"].upper) == (b["s"].lower, b["s"].upper)
            assert (a["s"].lower, a["s"].upper) == (b["r"].lower, b["r"].upper)


def test_interval_nesting_500_random():
    for seed in range(500):
        om = random_weyr(seed, 9)
        loosest = perturbation_bounds(om, Scenario(None, UNK))
        for rel in (EQ, MINUS, PLUS):
            merged = perturbation_bounds(om, Scenario(None, rel))
            for key in ("w", "r", "s"):
                assert loosest[key].covers(merged[key]), (om, rel, key)
            for kind in (COL, ROW):
                fine = perturbation_bounds(om, Scenario(kind, rel))
                for key in ("w", "r", "s"):
                    assert merged[key].covers(fine[key]), (om, rel, kind, key)
        for kind in (COL, ROW):
            hull = perturbation_bounds(om, Scenario(kind, UNK))
            for rel in (EQ, MINUS, PLUS):
                fine = perturbation_bounds(om, Scenario(kind, rel))
                for key in ("w", "r", "s"):
                    assert hull[key].covers(fine[key])


def test_check_bounds_identity():
    om = _om({F(0): (2, 1)}, col=Star(1, (1,)), row=Star(2))
    report = check_bounds(om, om, Scenario(COL, EQ))
    assert report.ok
    assert all(d == 0 for _, diffs in report.w_diffs for d in diffs)
    assert set(report.r_diffs) == {0} and set(report.s_diffs) == {0}


def test_check_bounds_extremal_w_pair():
    before = _om({F(0): (1, 1)}, col=Star(1))
    after = _om({F(0): (2,)}, col=Star(1))
    report = check_bounds(before, after, Scenario(COL, EQ))
    assert report.ok
    diffs = dict(report.w_diffs)[F(0)]
    assert diffs[0] == 1 and diffs[1] == -1


def test_check_bounds_flags_fabricated_violation():
    before = _om({}, col=Star(3, (3,)))
    after = _om({F(0): (3,)}, col=Star(3))
    report = check_bounds(before, after, Scenario(None, UNK))
    assert not report.ok
    v = report.violations[0]
    assert v.component == "w" and v.observed == 3
    data = report.to_json()
    assert data["violations"][0]["interval"]["formula_tag"] == "eqgpboundw"


def test_check_bounds_requires_matching_ambient():
    with pytest.raises(ValueError):
        check_bounds(_om({F(0): (1,)}), _om({F(0): (1, 1)}), Scenario(COL, EQ))


def test_scenario_coarsenings():
    sc = Scenario(COL, EQ)
    labels = {s.label() for s in sc.coarsenings()}
    assert labels == {"kind=col,rank=equal", "kind=col,rank=unknown",
                      "kind=unknown,rank=equal", "kind=unknown,rank=unknown"}
    assert len(Scenario(None, UNK).coarsenings()) == 1


def test_interval_validation():
    with pytest.raises(AssertionError):
        Interval(2, 1, "broken")
    assert Interval(-1, 1, "x").hull(Interval(0, 5, "y")).upper == 5
