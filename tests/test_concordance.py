from fractions import Fraction as F

import pytest

from pencillab.bounds import RankRelation
from pencillab.concordance import (Mismatch, companion_completion_witness,
                                   completed_characteristics,
                                   concordance_mismatches, split_mismatches)
from pencillab.extractor import weyr_char, weyr_characteristic
from pencillab.partitions import Star
from pencillab.pencils import INF


def test_completed_characteristics_of_empty_subpencil():
    # 0 x 1 subpencil: the single completing row is the whole pencil
    sub = weyr_char({}, Star(1), Star(0))
    achieved = completed_characteristics(sub)
    assert weyr_char({F(0): (1,)}, Star(0), Star(0)) in achieved
    assert weyr_char({F(1): (1,)}, Star(0), Star(0)) in achieved
    assert weyr_char({INF: (1,)}, Star(0), Star(0)) in achieved
    assert weyr_char({}, Star(1), Star(1)) in achieved           # zero row
    assert weyr_char({F(0): (1, 1)}, Star(0), Star(1)) not in achieved
    # eigenvalue 2 needs a row entry outside the +-1 grid
    assert weyr_char({F(2): (1,)}, Star(0), Star(0)) not in achieved
    wide = completed_characteristics(sub, entries=(-2, -1, 0, 1, 2))
    assert weyr_char({F(2): (1,)}, Star(0), Star(0)) in wide


def test_concordance_small_weights_clean():
    compared, bad = concordance_mismatches(3)
    assert compared == 320
    assert bad == []


def test_concordance_weight_4_blind_spots_all_witnessed():
    compared, bad = concordance_mismatches(4)
    assert compared == 2441
    witnessed, unexplained = split_mismatches(bad)
    assert unexplained == []
    assert len(witnessed) == 3


def test_companion_witness_rejects_non_matching_shapes():
    sub = weyr_char({F(0): (2,)}, Star(0), Star(0))
    full = weyr_char({F(0): (2,), F(1): (1,)}, Star(0), Star(0))
    # no column-singular chain to close: constructor does not apply
    assert companion_completion_witness(sub, full) is None


def test_companion_witness_verifies_by_extraction():
    sub = weyr_char({F(0): (1,)}, Star(1, (1, 1)), Star(0))
    full = weyr_char({F(-1): (1,), F(0): (1,), F(1): (1,), F(2): (1,)},
                     Star(0), Star(0))
    stacked = companion_completion_witness(sub, full)
    assert stacked is not None
    assert weyr_characteristic(stacked) == full


def test_split_mismatches_witnessed_and_unexplained():
    sub = weyr_char({F(0): (1,)}, Star(1, (1, 1)), Star(0))
    full = weyr_char({F(-1): (1,), F(0): (1,), F(1): (1,), F(2): (1,)},
                     Star(0), Star(0))
    blind_spot = Mismatch(sub, full, RankRelation.PLUS_ONE, predicted=True, oracle=False)
    # the same pair found by the oracle but rejected by the theory has no excuse
    oracle_only = Mismatch(sub, full, RankRelation.PLUS_ONE, predicted=False, oracle=True)
    assert split_mismatches([blind_spot, oracle_only]) == ([blind_spot], [oracle_only])


@pytest.mark.slow
def test_concordance_wide_entry_slow_tier():
    # widened entry grid at reduced weight; the weight-3 universe is clean
    # under the narrow grid already, and must stay clean under the wide one
    compared, bad = concordance_mismatches(3, entries=(-2, -1, 0, 1, 2))
    assert compared == 320
    assert bad == []
