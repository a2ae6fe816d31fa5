import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qatorsion.foxcalc import (Presentation, abelianize_relator_derivative,
                               gen, presentation_from_text,
                               presentation_matrix, relator, winv, wmul,
                               word_from_string)
from qatorsion.laurent import Laurent

from oracles import (FreeGroupRingElem, abelianize, alexander_polynomial,
                     fox_derivative, fox_matrix, presentation_to_text,
                     relator_word, word_to_string, wpow, wreduce)

letters = st.lists(st.tuples(st.integers(1, 4), st.sampled_from((1, -1))),
                   max_size=14).map(tuple)


def rand_word(rng, max_len=40, gens=4):
    return tuple((rng.randint(1, gens), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, max_len)))


def test_derivative_of_generators():
    a1 = gen(1)
    assert fox_derivative(a1, 1) == FreeGroupRingElem.one()
    assert fox_derivative(a1, 2).is_zero()
    assert fox_derivative(winv(a1), 1) == -FreeGroupRingElem.of_word(winv(a1))


def test_derivative_closed_form_square():
    # d2 (a1^-1 a2)^2 = a1^-1 + a1^-1 a2 a1^-1, and d1 is its negative
    a1, a2 = gen(1), gen(2)
    w = wpow(wmul(winv(a1), a2), 2)
    expect = FreeGroupRingElem({winv(a1): 1, wmul(winv(a1), a2, winv(a1)): 1})
    assert fox_derivative(w, 2) == expect
    assert fox_derivative(w, 1) == -expect


@settings(max_examples=80, deadline=None)
@given(letters, letters, st.integers(1, 4))
def test_product_rule(u, v, i):
    lhs = fox_derivative(wmul(u, v), i)
    rhs = fox_derivative(u, i) + fox_derivative(v, i).left_mul_word(u)
    assert lhs == rhs


def test_fundamental_identity_500_words():
    rng = random.Random(21)
    for _ in range(500):
        w = rand_word(rng)
        total = FreeGroupRingElem.zero()
        for i in range(1, 5):
            di = fox_derivative(w, i)
            total = total + di * (FreeGroupRingElem.of_word(gen(i))
                                  - FreeGroupRingElem.one())
        assert total == FreeGroupRingElem.of_word(w) - FreeGroupRingElem.one()


def test_derivative_invariant_under_free_reduction():
    rng = random.Random(22)
    for _ in range(150):
        w = rand_word(rng, max_len=25)
        for i in range(1, 5):
            assert fox_derivative(w, i) == fox_derivative(wreduce(w), i)


def test_abelianize_is_ring_map():
    rng = random.Random(23)
    assign = (13, 3, 6, 1)
    for _ in range(80):
        x = FreeGroupRingElem.of_word(rand_word(rng, 10), rng.randint(-3, 3))
        y = FreeGroupRingElem.of_word(rand_word(rng, 10), rng.randint(-3, 3))
        assert (abelianize(x * y, assign, 25)
                == abelianize(x, assign, 25) * abelianize(y, assign, 25))


def test_fast_derivative_abelianization_agrees():
    rng = random.Random(24)
    assign = (13, 3, 6, 1)
    for _ in range(80):
        w = rand_word(rng, 30)
        for i in range(1, 5):
            assert (abelianize(fox_derivative(w, i), assign, 25)
                    == abelianize_relator_derivative(relator(w), i, assign, 25))


def test_presentation_matrix_examples():
    assert presentation_matrix(
        Presentation(gens=1, relators=(((gen(1), 7),),))) == [[7]]
    assert presentation_matrix(
        Presentation(gens=1, relators=(relator(gen(1)),))) == [[1]]


def test_fox_matrix_examples():
    p = 5
    fm = fox_matrix(Presentation(gens=1, relators=(((gen(1), p),),)))
    assert fm[0][0] == FreeGroupRingElem({wpow(gen(1), k): 1 for k in range(p)})
    empty = fox_matrix(Presentation(gens=2, relators=((), relator(gen(2)))))
    assert empty[0][0].is_zero() and empty[1][0].is_zero()


def test_relators_die_in_abelianization():
    from qatorsion.covers import kanenobu_presentation
    for n in (0, 1, 2):
        pres = kanenobu_presentation(-10 * n, 10 * n + 3).presentation
        assert pres.check_assignment()


def test_alexander_unknot_and_trefoil():
    unknot = Presentation(gens=1, relators=(), assignment=(1,), modulus=None)
    assert alexander_polynomial(unknot) == Laurent.one()
    x1, x2, x3 = gen(1), gen(2), gen(3)
    r1 = wmul(x1, x2, winv(x1), winv(x3))
    r2 = wmul(x2, x3, winv(x2), winv(x1))
    trefoil = Presentation(gens=3, relators=(relator(r1), relator(r2)),
                           assignment=(1, 1, 1),
                           modulus=None)
    assert alexander_polynomial(trefoil) == Laurent({-1: 1, 0: -1, 1: 1})


def test_alexander_rejects_bad_deficiency():
    with pytest.raises(ValueError):
        alexander_polynomial(Presentation(gens=2, relators=(),
                                          assignment=(1, 1), modulus=None))


def test_word_string_round_trip():
    w = wmul(winv(gen(1)), gen(2), winv(gen(1)), gen(2), winv(gen(4)), gen(1), gen(1))
    assert word_from_string(word_to_string(w)) == w
    assert word_to_string(w) == "a1^-1 a2 a1^-1 a2 a4^-1 a1 a1"


def test_presentation_text_round_trip():
    pres = Presentation(gens=4,
                        relators=(relator(wmul(winv(gen(1)), gen(2))),
                                  relator(gen(4))),
                        assignment=(13, 3, 6, 1), modulus=25)
    text = presentation_to_text(pres)
    back = presentation_from_text(text)
    assert back == pres
    lines = text.splitlines()
    assert lines[0] == "gens 4"
    assert lines[-1] == "assign 13 3 6 1 mod 25"
    # infinite-cyclic assignments use mod 0
    z = Presentation(gens=1, relators=(), assignment=(1,), modulus=None)
    assert presentation_from_text(presentation_to_text(z)) == z


runs = st.lists(st.tuples(letters.filter(lambda w: len(w) <= 4),
                          st.integers(-60, 60)), max_size=5).map(tuple)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(runs, st.integers(1, 4), st.sampled_from((1, 2, 7, 25)),
       st.lists(st.integers(-30, 30), min_size=4, max_size=4))
def test_run_derivative_equals_the_written_out_word(r, i, modulus, assign):
    from oracles import letter_scan_derivative
    word = relator_word(r)
    assert (abelianize_relator_derivative(r, i, assign, modulus).coeffs
            == tuple(letter_scan_derivative(word, i, assign, modulus)))
    if len(word) <= 60:
        assert (abelianize_relator_derivative(r, i, assign, modulus)
                == abelianize(fox_derivative(word, i), assign, modulus))
    bundled = Presentation(gens=4, relators=(r,), assignment=tuple(assign),
                           modulus=modulus)
    written = Presentation(gens=4, relators=(relator(word),),
                           assignment=tuple(assign), modulus=modulus)
    assert presentation_matrix(bundled) == presentation_matrix(written)
    assert bundled.check_assignment() == written.check_assignment()
