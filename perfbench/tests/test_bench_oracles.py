"""The oracles against values worked out by hand."""

from fractions import Fraction

import oracles

# h = 2,3,3: edges (1,2), (2,3).  Dot-action series (1+q+q^2) h_3 + q h_21,
# i.e. csf_q = (1+q+q^2) e_3 + q e_21; in the m basis
# h_3 = m3 + m21 + m111, h_21 = m3 + 2 m21 + 3 m111, e_3 = m111,
# e_21 = m21 + 3 m111.
H233 = (2, 3, 3)
DOT_233 = {0: {(3,): 1, (2, 1): 1, (1, 1, 1): 1},
           1: {(3,): 2, (2, 1): 3, (1, 1, 1): 4},
           2: {(3,): 1, (2, 1): 1, (1, 1, 1): 1}}
CSF_233 = {0: {(1, 1, 1): 1}, 1: {(2, 1): 1, (1, 1, 1): 4},
           2: {(1, 1, 1): 1}}
# LLT: content 111 gives the six permutations (asc 2,1,1,1,1,0); content
# 21 gives 112 (asc 1), 121 (asc 1), 211 (asc 0); content 3 gives 111.
LLT_233 = {0: {(3,): 1, (2, 1): 1, (1, 1, 1): 1},
           1: {(2, 1): 2, (1, 1, 1): 4}, 2: {(1, 1, 1): 1}}
# characters of h_3 (trivial) and h_21 (permutation action on 3 points)
CHAR_233 = {0: {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
            1: {(1, 1, 1): 4, (2, 1): 2, (3,): 1},
            2: {(1, 1, 1): 1, (2, 1): 1, (3,): 1}}


def _frac(d):
    return {k: {lam: Fraction(v) for lam, v in row.items()}
            for k, row in d.items()}


def test_partitions_and_z():
    assert oracles.partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1),
                                     (1, 1, 1, 1))
    assert oracles.z_lambda((2, 1, 1)) == 2 * 2
    assert oracles.z_lambda((1, 1, 1)) == 6
    assert oracles.sign((2, 1)) == -1 and oracles.sign((3,)) == 1


def test_inversion_distribution_by_hand():
    assert oracles.inversion_distribution(H233) == (1, 4, 1)
    assert oracles.inversion_distribution((3, 3, 3)) == (1, 2, 2, 1)
    assert oracles.inversion_distribution((1, 2, 3)) == (6,)
    assert sum(oracles.inversion_distribution((2, 3, 4, 4))) == 24


def test_brute_force_series_by_hand():
    assert oracles.brute_coloring_series(H233, proper=True) == _frac(CSF_233)
    assert oracles.brute_coloring_series(H233, proper=False) == _frac(LLT_233)


def test_power_sums_in_m():
    assert oracles.power_sum_in_m((1, 1)) == {(2,): 1, (1, 1): 2}
    assert oracles.power_sum_in_m((2,)) == {(2,): 1}
    assert oracles.power_sum_in_m((2, 1)) == {(3,): 1, (2, 1): 1}
    assert oracles.power_sum_in_m((1, 1, 1)) == {(3,): 1, (2, 1): 3,
                                                 (1, 1, 1): 6}


def test_frobenius_from_character_table():
    chars = _frac(CHAR_233)
    assert oracles.frobenius_from_characters(chars) == _frac(DOT_233)
    # the omega twist of the dot series is csf_q (acceptance criterion 1)
    assert (oracles.frobenius_from_characters(chars, twist=True)
            == oracles.brute_coloring_series(H233, proper=True))


def test_hilbert_numerator():
    # (1 + 4q + q^2) / (1 - q)^3 has dimensions 1, 7, 19, 37, ...
    dims = [1, 7, 19, 37]
    assert oracles.hilbert_numerator(dims, 3) == [1, 4, 1, 0]
