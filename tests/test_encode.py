import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tm2net.encode import (
    DigitRangeError,
    EncodingError,
    NonTerminatingExpansionError,
    Point,
    affine_shift_left,
    affine_shift_right,
    affine_substitute,
    decode_left,
    decode_point,
    decode_right,
    encode_config,
    encode_left,
    encode_right,
    godel_value,
    parse_rat,
    rat_str,
    successor_point,
)
from tm2net.machine import initial_config, run_tm, tm_step

from util import random_config, random_input, random_machine


def test_encode_left_examples(flip):
    assert encode_left(flip, ("q0",)) == 0
    assert encode_left(flip, ("qH",)) == Fraction(1, 2)
    assert encode_left(flip, ("q0", "1")) == Fraction(1, 3)


def test_encode_right_examples(flip):
    assert encode_right(flip, ()) == 0
    assert encode_right(flip, ("0", "1")) == Fraction(5, 9)
    assert encode_right(flip, ("1",)) == Fraction(2, 3)


def test_decode_left_examples(flip):
    assert decode_left(flip, Fraction(1, 3)) == ("q0", "1")
    assert decode_left(flip, Fraction(0)) == ("q0",)
    with pytest.raises(NonTerminatingExpansionError):
        decode_left(flip, Fraction(1, 7))


def test_decode_right_examples(flip):
    assert decode_right(flip, Fraction(5, 9)) == ("0", "1")
    assert decode_right(flip, Fraction(0)) == ()
    assert decode_right(flip, Fraction(2, 3)) == ("1",)


def test_decode_range_errors(flip):
    with pytest.raises(DigitRangeError):
        decode_right(flip, Fraction(3, 2))
    with pytest.raises(DigitRangeError):
        decode_left(flip, Fraction(-1, 2))
    with pytest.raises(DigitRangeError):
        decode_right(flip, Fraction(1))


def test_godel_value_basics():
    assert godel_value([], 3) == 0
    assert godel_value([1, 2], 3) == Fraction(5, 9)
    with pytest.raises(DigitRangeError):
        godel_value([3], 3)


@settings(deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda b: st.tuples(st.lists(st.integers(0, b - 1), max_size=300), st.just(b))))
def test_godel_value_is_the_radix_sum(case):
    digits, base = case
    want = sum((Fraction(d, base ** (i + 1)) for i, d in enumerate(digits)), Fraction(0))
    assert godel_value(digits, base) == want


def test_interior_blanks_survive_round_trip(flip):
    alpha = ("q0", "1", "_", "1")
    assert decode_left(flip, encode_left(flip, alpha)) == alpha


def test_round_trip_random_machines():
    rng = random.Random(31)
    for _ in range(300):
        m = random_machine(rng)
        c = random_config(rng, m)
        assert decode_point(m, encode_config(m, c)) == c


@given(beta_raw=st.lists(st.sampled_from(["_", "0", "1"]), max_size=10))
def test_round_trip_hypothesis(flip, beta_raw):
    beta = tuple(beta_raw)
    while beta and beta[-1] == "_":
        beta = beta[:-1]
    y = encode_right(flip, beta)
    assert 0 <= y < 1
    assert decode_right(flip, y) == beta


def test_values_stay_in_unit_interval():
    rng = random.Random(32)
    for _ in range(200):
        m = random_machine(rng)
        c = random_config(rng, m)
        pt = encode_config(m, c)
        assert 0 <= pt.x < 1 and 0 <= pt.y < 1


def test_affine_substitute_examples():
    assert affine_substitute(Fraction(1, 2), 1, 1, 0, 2) == 0
    assert affine_substitute(Fraction(0), 2, 0, 2, 3) == Fraction(2, 9)
    # digits of beta=(0,1) are (1,2); replacing the first gives beta=(1,1)
    assert affine_substitute(Fraction(5, 9), 1, 1, 2, 3) == Fraction(8, 9)


def test_affine_substitute_matches_reencoding(flip):
    got = affine_substitute(encode_right(flip, ("0", "1")), 1, 1, 2, 3)
    assert got == encode_right(flip, ("1", "1"))


def test_affine_shift_examples():
    assert affine_shift_left(Fraction(1, 2), 1, 2) == 0
    assert affine_shift_right(Fraction(0), 2, 3) == Fraction(2, 3)


@given(st.fractions(min_value=0, max_value=Fraction(99, 100)),
       st.integers(min_value=0, max_value=4))
def test_shift_right_then_left_is_identity(v, digit):
    base = 5
    assert affine_shift_left(affine_shift_right(v, digit, base), digit, base) == v


def test_shift_composition_matches_tm_step(flip):
    """Elementary map compositions reproduce one full machine step."""
    rng = random.Random(33)
    nq, ns = flip.n_states, flip.n_symbols
    for _ in range(100):
        c = random_config(rng, flip)
        if c.state in flip.halt_states:
            continue
        q = c.alpha[0]
        read = c.beta[0] if c.beta else flip.blank
        left = c.alpha[1] if len(c.alpha) > 1 else flip.blank
        q2, written, move = flip.delta[(q, read)]
        pt = encode_config(flip, c)
        want = encode_config(flip, tm_step(flip, c))
        if move == "R":
            x = affine_shift_left(pt.x, flip.state_index(q), nq)
            x = affine_shift_right(x, flip.symbol_index(written), ns)
            x = affine_shift_right(x, flip.state_index(q2), nq)
            y = affine_shift_left(pt.y, flip.symbol_index(read), ns)
        else:
            x = affine_shift_left(pt.x, flip.state_index(q), nq)
            x = affine_shift_left(x, flip.symbol_index(left), ns)
            x = affine_shift_right(x, flip.state_index(q2), nq)
            y = affine_substitute(pt.y, 1, flip.symbol_index(read),
                                  flip.symbol_index(written), ns)
            y = affine_shift_right(y, flip.symbol_index(left), ns)
        assert Point(x, y) == want


def test_rat_str_and_parse():
    assert rat_str(Fraction(7)) == "7/1"
    assert rat_str(0) == "0/1"
    assert parse_rat("5/9") == Fraction(5, 9)
    assert parse_rat(rat_str(Fraction(-3, 4))) == Fraction(-3, 4)
    # only the num/den form rat_str writes: no exponents, decimals or zero
    # denominators
    for text in ("x/y", "1/0", "1e1000000", "1.5"):
        with pytest.raises(EncodingError):
            parse_rat(text)


@pytest.mark.parametrize("value", [Fraction(1, 7), Fraction(5, 63), Fraction(5, 7 * 3 ** 3000)],
                         ids=["1_over_7", "5_over_63", "long_prefix"])
def test_non_terminating_expansion_raises_before_extracting_digits(flip, value):
    # the last value has 3000 ternary digits before the 1/7 part repeats; the
    # denominator alone decides, so no prefix of digits is extracted first
    with pytest.raises(NonTerminatingExpansionError, match="base-3"):
        decode_right(flip, value)


@pytest.mark.parametrize("k", [1, 2, 7, 64, 3000])
def test_value_over_power_of_base_has_exactly_that_many_digits(flip, k):
    value = Fraction(3 ** k // 2, 3 ** k)  # numerator not divisible by 3
    right = decode_right(flip, value)
    assert len(right) == k and right[-1] != flip.blank
    assert encode_right(flip, right) == value


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 60))
def test_successor_point_keeps_the_encoding_of_every_configuration(seed, max_steps):
    rng = random.Random(seed)
    m = random_machine(rng)
    # a run from the start, and one step from an arbitrary configuration
    configs = run_tm(m, initial_config(m, random_input(rng, m, 12)), max_steps).configs
    pt = encode_config(m, configs[0])
    for prev, c in zip(configs, configs[1:]):
        pt = successor_point(m, prev, pt)
        assert pt == encode_config(m, c)
    c = random_config(rng, m)
    if c.state not in m.halt_states:
        assert successor_point(m, c, encode_config(m, c)) == encode_config(m, tm_step(m, c))
