from fractions import Fraction as F

import pytest

from pencillab.bounds import RankRelation
from pencillab.builder import build_pencil, iter_weyr_chars
from pencillab.completion import (Direction, Prescription, Target,
                                  check_completion_full, completion_conditions,
                                  search_rank_one_witness)
from pencillab.extractor import weyr_char, weyr_characteristic
from pencillab.partitions import Star
from pencillab.pencils import RankOneKind

EQ, MINUS, PLUS = (RankRelation.EQUAL, RankRelation.MINUS_ONE, RankRelation.PLUS_ONE)


def _om(regular=None, col=Star(0), row=Star(0)):
    return weyr_char(regular or {}, col, row)


def _sub(target, relation):
    return Prescription(target, Direction.FULL_PRESCRIBED, relation)


def _completion(target, relation):
    return Prescription(target, Direction.SUBPENCIL_PRESCRIBED, relation)


def test_check_completion_full_row_growth_case():
    full = _om({F(0): (1,)}, row=Star(2))
    sub = _om({F(0): (1,)}, row=Star(1))
    assert check_completion_full(sub, full, EQ) is True
    # a pencil is never its own one-row subpencil at equal rank
    assert check_completion_full(full, full, EQ) is False


def test_completion_conditions_tags():
    full = _om({F(0): (1,)}, row=Star(2))
    sub = _om({F(0): (1,)}, row=Star(1))
    tags = [t for t, _ in completion_conditions(sub, full, EQ)]
    assert tags == ["rank-equal", "interww1w+1", "coleqconj", "rowprecconj"]
    tags = [t for t, _ in completion_conditions(sub, full, PLUS)]
    assert tags == ["rank-plus-one", "interw-1w1w", "colprecconj", "roweqconj"]
    with pytest.raises(ValueError):
        completion_conditions(sub, _om({F(0): (1,)}, col=Star(1), row=Star(2)), EQ)


def test_rank_mismatch_is_infeasible_not_error():
    sub = _om({F(0): (2,)})
    full = _om({F(0): (1,)}, col=Star(1), row=Star(2))
    assert (sub.n, sub.m + 1) == (full.n, full.m)
    assert check_completion_full(sub, full, EQ) is False


def test_feasible_prescribed_sub_known_cases():
    # regular part prescribed, rank kept: the weight step must match the
    # first/second conjugate entries of the row data
    om = _om({}, col=Star(2), row=Star(1, (1,)))
    assert _sub(Target.REGULAR_PART, EQ).feasible(om, {F(0): (1,)})
    assert not _sub(Target.REGULAR_PART, EQ).feasible(om, {F(0): (2,)})

    om = _om({F(0): (1, 1)}, col=Star(1))
    assert _sub(Target.REGULAR_PART, MINUS).feasible(om, {F(0): (1,)})

    om = _om({F(0): (1, 1)}, col=Star(2))
    assert _sub(Target.COLUMN_STAR, MINUS).feasible(om, Star(3, (1,)))
    assert not _sub(Target.COLUMN_STAR, MINUS).feasible(om, Star(3, (1, 1, 1)))


def test_feasible_prescribed_completion_known_cases():
    sub = _om({F(0): (1,)}, row=Star(1))
    assert _completion(Target.ROW_STAR, EQ).feasible(sub, Star(2, (1,)))
    assert not _completion(Target.ROW_STAR, EQ).feasible(sub, Star(2, (1, 1)))

    sub = _om({F(0): (1,)}, col=Star(2))
    assert _completion(Target.REGULAR_PART, PLUS).feasible(sub, {F(0): (2,)})

    # trivially feasible: prescribe the subpencil's own regular part
    assert _completion(Target.REGULAR_PART, EQ).feasible(sub, {F(0): (1,)})


def test_malformed_prescription_rejected():
    om = _om({F(0): (1,)}, row=Star(1))
    with pytest.raises(ValueError):
        _sub(Target.REGULAR_PART, EQ).feasible(om, Star(1))
    with pytest.raises(ValueError):
        _completion(Target.ROW_STAR, EQ).feasible(om, {F(0): (1,)})


def _prescribed_component(om, target):
    if target is Target.REGULAR_PART:
        return dict(om.regular)
    return om.col_star if target is Target.COLUMN_STAR else om.row_star


@pytest.mark.parametrize("direction,relations", [
    (Direction.FULL_PRESCRIBED, (EQ, MINUS)),
    (Direction.SUBPENCIL_PRESCRIBED, (EQ, PLUS)),
])
def test_predicates_project_check_completion_full(direction, relations):
    """Feasibility of a prescription is existence of a full companion:
    verified against bounded enumeration for all known sides of weight <= 4."""
    universe = list(iter_weyr_chars(5))
    for known in iter_weyr_chars(4):
        if direction is Direction.FULL_PRESCRIBED:
            pool = [c for c in universe if c.n == known.n and c.m == known.m - 1]
        else:
            pool = [c for c in universe if c.n == known.n and c.m == known.m + 1]
        for relation in relations:
            rel_full = PLUS if relation is MINUS else relation
            if direction is Direction.FULL_PRESCRIBED:
                gap = 0 if relation is EQ else -1
                companions = [c for c in pool if c.rank == known.rank + gap
                              and check_completion_full(c, known, rel_full)]
            else:
                gap = 0 if relation is EQ else 1
                companions = [c for c in pool if c.rank == known.rank + gap
                              and check_completion_full(known, c, rel_full)]
            for target in Target:
                achievable = {_freeze(_prescribed_component(c, target))
                              for c in companions}
                for c in pool:
                    prescribed = _prescribed_component(c, target)
                    got = Prescription(target, direction, relation).feasible(known, prescribed)
                    assert got == (_freeze(prescribed) in achievable), \
                        (known, target, relation, prescribed)


def _freeze(prescribed):
    if isinstance(prescribed, dict):
        return tuple(sorted(prescribed.items(), key=lambda t: str(t[0])))
    return prescribed


def test_realize_companion_random_instances():
    count = 0
    for i, known in enumerate(iter_weyr_chars(4)):
        for target in Target:
            for direction in Direction:
                for relation in ((EQ, MINUS) if direction is Direction.FULL_PRESCRIBED
                                 else (EQ, PLUS)):
                    try:
                        prescribed = _candidate_prescription(known, target, relation,
                                                             direction)
                    except ValueError:
                        continue
                    if prescribed is None:
                        continue
                    problem = Prescription(target, direction, relation)
                    if not problem.feasible(known, prescribed):
                        continue
                    # realize_companion re-checks its own postcondition
                    problem.realize(known, prescribed)
                    count += 1
    assert count > 300


def _candidate_prescription(known, target, relation, direction):
    from pencillab.partitions import partition
    if target is Target.REGULAR_PART:
        w = dict(known.regular)
        if relation is EQ and direction is Direction.FULL_PRESCRIBED:
            if not w:
                return {F(0): (1,)}
            lam, p = next(iter(w.items()))
            w[lam] = partition(tuple(x + 1 for x in p))
            return w
        if relation in (MINUS, PLUS) and w:
            lam, p = next(iter(w.items()))
            w[lam] = partition((p[0] - 1,) + p[1:]) if p[0] > 1 else partition(p[1:])
            if direction is Direction.SUBPENCIL_PRESCRIBED and relation is PLUS:
                w = dict(known.regular)
                w[lam] = partition((p[0] + 1,) + p[1:])
            return w
        return dict(known.regular)
    if target is Target.COLUMN_STAR:
        star = known.col_star
        if relation is MINUS:
            return Star(star.zeroth + 1, (1,) + star.tail) if not star.tail else \
                Star(star.zeroth + 1, tuple(x + 1 for x in star.tail))
        if relation is PLUS:
            if star.zeroth == 0:
                return None
            return Star(star.zeroth - 1, star.tail and tuple(star.tail[:-1]) or ())
        return star
    star = known.row_star
    if relation is EQ and direction is Direction.FULL_PRESCRIBED:
        if star.zeroth == 0:
            return None
        return Star(star.zeroth - 1, tuple(x - 1 for x in star.tail if x > 1))
    if relation is EQ:
        return Star(star.zeroth + 1, tuple(x + 1 for x in star.tail))
    return star


def test_realize_infeasible_raises():
    om = _om({F(0): (1,)})
    with pytest.raises(ValueError):
        _sub(Target.ROW_STAR, EQ).realize(om, Star(5))


def test_remark_rank_inequalities_on_accepted_pairs():
    universe = list(iter_weyr_chars(4))
    by_shape = {}
    for om in universe:
        by_shape.setdefault((om.m, om.n), []).append(om)
    hits_eq = hits_plus = 0
    for sub in universe:
        for full in by_shape.get((sub.m + 1, sub.n), []):
            if full.rank == sub.rank and check_completion_full(sub, full, EQ):
                assert full.row_star.star_weight >= sub.row_star.star_weight + 1
                hits_eq += 1
            if full.rank == sub.rank + 1 and check_completion_full(sub, full, PLUS):
                assert full.col_star.star_weight <= sub.col_star.star_weight
                hits_plus += 1
    assert hits_eq > 50 and hits_plus > 50


def test_witness_search_finds_invariant_preserving_perturbation():
    om = _om({F(0): (2,)})  # diag(s,s)-like 2x2 of rank 2 at eigenvalue 0
    h = build_pencil(om)
    p = search_rank_one_witness(h, om, RankOneKind.COLUMN, budget=2000, seed=2)
    assert p is not None
    assert weyr_characteristic(h.add(p)) == om


def test_witness_search_infeasible_target_not_found():
    om = _om({F(0): (1,)}, col=Star(1, (1,)), row=Star(1, (1,)))
    h = build_pencil(om)
    # moving one weight unit from eigenvalue 0 to eigenvalue 5 of multiplicity
    # three violates every rank-one interval, so no witness can exist
    target = weyr_char({F(5): (1, 1, 1)}, Star(1, ()), Star(1, ()))
    assert (target.m, target.n) == (h.m, h.n)
    assert search_rank_one_witness(h, target, RankOneKind.COLUMN,
                                   budget=300, seed=0) is None


def test_witness_search_dimension_mismatch():
    om = _om({F(0): (1,)})
    with pytest.raises(ValueError):
        search_rank_one_witness(build_pencil(om), _om({F(0): (2,)}),
                                RankOneKind.COLUMN, budget=10)


def test_prescription_facade():
    om = _om({F(0): (1,)}, row=Star(1))
    p = Prescription(Target.ROW_STAR, Direction.SUBPENCIL_PRESCRIBED, EQ)
    assert p.feasible(om, Star(2, (1,))) is True
    companion = p.realize(om, Star(2, (1,)))
    assert check_completion_full(om, companion, EQ)
    tags = [t for t, _ in p.conditions(om, Star(2, (1,)))]
    assert tags == ["rowprecconj", "eqqsmins1leqz"]
