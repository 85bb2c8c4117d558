"""Field arithmetic, modulus search, generators, subfields, roots of -1."""

import random

import numpy as np
import pytest

import fqdist
from fqdist import ff
from fqdist.errors import (
    BudgetExceeded,
    FieldMismatch,
    NoSqrtMinusOne,
    NotADivisor,
    NotPrime,
    SizeGuard,
    ZeroInverse,
)

import oracles


# --- prime fields -----------------------------------------------------------


def test_make_prime_field_smallest_odd():
    f = fqdist.make_prime_field(3)
    assert f.q == 3
    assert f.generator.index == 2


def test_make_prime_field_rejects_composite():
    with pytest.raises(NotPrime):
        fqdist.make_prime_field(4)
    with pytest.raises(NotPrime):
        fqdist.make_prime_field(1)


def test_z7_generator_is_three_by_order_exhaustion():
    f = fqdist.make_prime_field(7)
    orders = {idx: oracles.element_order(f.from_index(idx)) for idx in range(1, 7)}
    assert orders[2] == 3 and orders[3] == 6
    smallest_full = min(idx for idx, o in orders.items() if o == 6)
    assert f.generator.index == smallest_full == 3


# --- irreducibility ---------------------------------------------------------


def test_find_irreducible_degree_one_is_x():
    assert fqdist.find_irreducible(3, 1) == [0, 1]


def test_find_irreducible_quadratic_over_z3():
    f = fqdist.find_irreducible(3, 2)
    assert f == [1, 0, 1]  # x^2 + 1
    # -1 is a non-residue mod 3: no root among 0, 1, 2
    assert all((c * c + 1) % 3 != 0 for c in range(3))


def test_find_irreducible_sextic_over_z3_frozen():
    f = fqdist.find_irreducible(3, 6)
    assert f == [2, 1, 0, 0, 0, 0, 1]  # x^6 + x + 2, regression-frozen
    assert fqdist.is_irreducible(f, 3)
    assert oracles.irreducible_by_trial_division(f, 3)
    # nothing lexicographically below it is irreducible
    for t in range(5):
        cand = ff._digits(t, 3, 6) + [1]
        assert not oracles.irreducible_by_trial_division(cand, 3)


def test_find_irreducible_passes_both_checkers():
    for p, n in [(2, 4), (2, 8), (5, 3), (7, 2)]:
        f = fqdist.find_irreducible(p, n)
        assert f[-1] == 1 and len(f) == n + 1
        assert fqdist.is_irreducible(f, p)
        assert oracles.irreducible_by_trial_division(f, p)


def test_is_irreducible_examples():
    assert fqdist.is_irreducible([1, 0, 1], 3)  # x^2 + 1 over Z_3
    assert not fqdist.is_irreducible([-1, 0, 1], 3)  # x^2 - 1 = (x-1)(x+1)
    assert not fqdist.is_irreducible([1, 0, 1], 5)  # 2^2 = -1 mod 5


def test_is_irreducible_agrees_with_trial_division():
    # exhaustive on the small configurations, seeded samples above that
    rng = random.Random(20240811)
    for p, d in [(2, 4), (2, 8), (3, 4), (5, 3), (7, 2), (3, 6), (5, 4), (7, 3), (11, 2), (2, 10)]:
        total = p**d
        if total <= 1024:
            ts = range(total)
        else:
            ts = (rng.randrange(total) for _ in range(400))
        for t in ts:
            f = ff._digits(t, p, d) + [1]
            assert fqdist.is_irreducible(f, p) == oracles.irreducible_by_trial_division(f, p)


def test_is_irreducible_rejects_non_monic_and_constants():
    with pytest.raises(ValueError):
        fqdist.is_irreducible([1, 2], 3)
    with pytest.raises(ValueError):
        fqdist.is_irreducible([1], 3)


# --- set-up outputs ---------------------------------------------------------


# (modulus low-first, generator index) as the scalar set-up found them
_PINNED_SETUPS = [
    (3, 6, [2, 1, 0, 0, 0, 0, 1], 3),
    (11, 6, [2, 1, 0, 0, 0, 0, 1], 12),
    (3, 12, [2, 0, 1] + [0] * 9 + [1], 14),
    (5, 6, [2, 1, 0, 0, 0, 0, 1], 5),
    (7, 6, [2, 0, 0, 0, 0, 0, 1], 8),
    (13, 6, [2, 0, 0, 0, 0, 0, 1], 182),
    (5, 12, [4, 1] + [0] * 10 + [1], 7),
    (3, 18, [1, 2, 0, 1] + [0] * 14 + [1], 4),
    (31, 6, [5, 0, 0, 0, 0, 0, 1], 34),
    (1289, 3, [1, 1, 0, 1], 1296),
    (46337, 2, [3, 0, 1], 46344),
]


@pytest.mark.parametrize("p, n, modulus, generator", _PINNED_SETUPS,
                         ids=[f"{p}^{n}" for p, n, _, _ in _PINNED_SETUPS])
def test_setup_outputs_are_pinned(p, n, modulus, generator):
    f = fqdist.ExtField(p, n)
    assert list(f.modulus) == modulus
    assert f.generator.index == generator
    # an explicit index takes the same full-order test: the generator passes
    # it, and the index below it, which the search rejected, fails it
    explicit = fqdist.ExtField(p, n, modulus=modulus, generator_index=generator)
    assert explicit.generator.index == generator
    with pytest.raises(fqdist.InvalidInput):
        fqdist.ExtField(p, n, modulus=modulus, generator_index=generator - 1)


@pytest.mark.parametrize("p, n, m", [(3, 6, 1), (3, 6, 2), (3, 6, 3), (3, 6, 6), (11, 6, 2),
                                     (3, 12, 4)])
def test_subfield_matches_scalar_powers(p, n, m):
    f = fqdist.ExtField(p, n)
    sub = fqdist.locate_subfield(f, m)
    assert [e.index for e in sub.elements] == oracles.scalar_subfield(f, m)
    # the powers of gamma in exponent order, which CosetNames reads as its exp table
    assert sub.powers.tolist() == oracles.scalar_subfield_powers(f, m)
    assert not sub.powers.flags.writeable


# GF(46337^2) has the largest sums the float64 kernel takes under the size
# guard; GF(2^31 - 1) takes the int64 route
@pytest.mark.parametrize("p, n", [(46337, 2), (1289, 3), (3, 19), (2, 31), (31, 6),
                                  (2**31 - 1, 1)])
def test_multiply_kernel_matches_scalar_products(p, n):
    f = fqdist.ExtField(p, n)
    rng = random.Random(p + n)
    top = (p - 1,) * n
    pairs = [(top, top)] + [
        (tuple(rng.randrange(p) for _ in range(n)), tuple(rng.randrange(p) for _ in range(n)))
        for _ in range(300)
    ]
    if n > 1:
        a, b = (np.array(col).T for col in zip(*pairs))
        assert f._mul_digits(a, b).T.tolist() == [list(f._mul(x, y)) for x, y in pairs]
    # ExtField.mul on canonical indices: lane by lane, squared, and a column
    # against a row, whose 301 x 17 lanes span more than one digit block and
    # are a multiple of neither block size
    ea, eb = ([f.element(x) for x in col] for col in zip(*pairs))
    ia, ib = (np.array([e.index for e in col]) for col in (ea, eb))
    assert f.mul(ia, ib).tolist() == [(x * y).index for x, y in zip(ea, eb)]
    assert f.mul(ia, ia).tolist() == [(x * x).index for x in ea]
    lanes = len(ia) * 17
    assert lanes > ff._DIGIT_BLOCK and lanes % ff._DIGIT_BLOCK and lanes % ff._LANES
    got = f.mul(ia[:, None], ib[:17])
    assert got.tolist() == [[(x * y).index for y in eb[:17]] for x in ea]


def test_multiply_kernel_refuses_sums_beyond_float64():
    # n^2 (p-1)^3 = 3.98e14 at GF(46337^2) fits 2^53; p = 2^31 - 1 with n = 2 does not
    assert ff._structure_tensor(46337, 2, [(3, 0)]).shape == (2, 4)
    with pytest.raises(AssertionError, match="overflow"):
        ff._structure_tensor(2**31 - 1, 2, [(3, 0)])


def test_pow_gives_each_lane_its_own_exponent(gf729):
    rng = random.Random(3)
    elems = [gf729.from_index(rng.randrange(gf729.q)) for _ in range(20)] + [gf729.zero]
    exps = [rng.randrange(3 * gf729.q) for _ in elems[:-1]] + [0]
    got = gf729._pow(np.array([e.index for e in elems]), exps)
    assert got.tolist() == [(e**k).index for e, k in zip(elems, exps)]


# --- arithmetic -------------------------------------------------------------


def test_identities_gf9(gf9):
    x = gf9.root
    assert x * x == gf9.from_int(-1) == gf9.from_int(2)  # reduce by x^2 + 1
    g = gf9.generator
    assert g ** (gf9.q - 1) == gf9.one
    for idx in range(9):
        a = gf9.from_index(idx)
        assert a + gf9.zero == a
        assert a * gf9.one == a
        if a:
            assert a * a.inv() == gf9.one


def test_field_axioms_random_triples(gf9, gf729):
    rng = random.Random(7)
    for fld in (fqdist.make_prime_field(7), gf9, gf729):
        zero, one = fld.zero, fld.one
        for _ in range(1000):
            a = fld.from_index(rng.randrange(fld.q))
            b = fld.from_index(rng.randrange(fld.q))
            c = fld.from_index(rng.randrange(fld.q))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + zero == a and a * one == a
            assert a + (-a) == zero
            if a:
                assert a * a.inv() == one


def test_inverse_of_zero_raises(gf9):
    with pytest.raises(ZeroInverse):
        gf9.zero.inv()


def test_all_inverses_gf729(gf729):
    for idx in range(1, gf729.q, 17):  # stride keeps it quick, covers the range
        a = gf729.from_index(idx)
        assert a * a.inv() == gf729.one


def test_field_mismatch(gf9, gf729):
    with pytest.raises(FieldMismatch):
        gf9.one + gf729.one


def test_same_key_fields_interoperate(gf9):
    other = fqdist.ExtField(3, 2)
    assert gf9.one + other.one == other.from_int(2)


def test_pow_negative_exponent(gf9):
    g = gf9.generator
    assert g**-1 == g.inv()
    assert g**-3 == (g**3).inv()


def test_index_round_trip(gf9, gf729):
    for fld in (gf9, gf729):
        for i in range(fld.q):
            assert fld.from_index(i).index == i


# --- generator search -------------------------------------------------------


def test_gf9_generator_is_first_index_of_full_order(gf9):
    orders = {idx: oracles.element_order(gf9.from_index(idx)) for idx in range(1, 9)}
    first = min(idx for idx, o in orders.items() if o == 8)
    assert gf9.generator.index == first == 4


def test_generator_invariant_gf729(gf729):
    g = gf729.generator
    assert g ** (gf729.q - 1) == gf729.one
    for l in ff.prime_factors(gf729.q - 1):
        assert g ** ((gf729.q - 1) // l) != gf729.one


# --- subfields and Frobenius ------------------------------------------------


def test_subfield_improper_and_prime(gf9):
    whole = fqdist.locate_subfield(gf9, 2)
    assert len({e.index for e in whole.elements}) == 9
    prime = fqdist.locate_subfield(gf9, 1)
    assert sorted(e.index for e in prime.elements) == [0, 1, 2]


def test_subfield_above_the_bound_is_refused_before_any_work(monkeypatch):
    f = fqdist.ExtField(2, 30)

    def refuse(*args):
        raise AssertionError("the subfield was computed")

    for method in ("mul", "_mul_digits"):
        monkeypatch.setattr(ff.ExtField, method, refuse)
    with pytest.raises(BudgetExceeded):
        fqdist.locate_subfield(f, 30)
    # the family's subfields have q^(1/3) <= 1290 elements
    assert 2**30 > ff.MAX_SUBFIELD_ORDER >= 1290


def test_subfield_not_a_divisor(gf729):
    with pytest.raises(NotADivisor):
        fqdist.locate_subfield(gf729, 4)
    with pytest.raises(NotADivisor):
        fqdist.locate_subfield(gf729, 5)


def test_subfield_gf729_m2_closure(gf729):
    sub = fqdist.locate_subfield(gf729, 2)
    assert sub.order == 9 and len(sub.elements) == 9
    members = {e.index for e in sub.elements}
    for a in sub.elements:
        for b in sub.elements:
            assert (a + b).index in members
            assert (a - b).index in members
            assert (a * b).index in members
        assert (-a).index in members
        if a:
            assert a.inv().index in members


def test_subfield_is_frobenius_fixed_set(gf729):
    for m in (1, 2, 3, 6):
        members = {e.index for e in fqdist.locate_subfield(gf729, m).elements}
        for e in gf729.elements():
            assert (fqdist.frobenius(e, m) == e) == (e.index in members)


def test_frobenius_identity_and_order(gf729):
    for idx in (0, 1, 5, 123, 700):
        a = gf729.from_index(idx)
        assert fqdist.frobenius(a, 0) == a
        assert fqdist.frobenius(a, 6) == a


def test_frobenius_non_divisor_fixed_points_are_gcd_subfield(gf729):
    # fixed set of x -> x^(p^4) is the subfield of degree gcd(4, 6) = 2
    members = {e.index for e in fqdist.locate_subfield(gf729, 2).elements}
    for e in gf729.elements():
        assert (fqdist.frobenius(e, 4) == e) == (e.index in members)


# --- square roots of -1 -----------------------------------------------------


def test_sqrt_minus_one_gf9(gf9):
    i = fqdist.sqrt_minus_one(gf9)
    assert i * i == -gf9.one
    roots = [idx for idx in range(9) if gf9.from_index(idx) * gf9.from_index(idx) == -gf9.one]
    assert len(roots) == 2
    assert i.index == min(roots) == 3


def test_sqrt_minus_one_z5_tie_break():
    f5 = fqdist.make_prime_field(5)
    assert fqdist.sqrt_minus_one(f5).index == 2  # 2 and 3 both square to -1


def test_sqrt_minus_one_z7_absent():
    with pytest.raises(NoSqrtMinusOne):
        fqdist.sqrt_minus_one(fqdist.make_prime_field(7))


def test_sqrt_minus_one_char2_absent():
    with pytest.raises(NoSqrtMinusOne):
        fqdist.sqrt_minus_one(fqdist.ExtField(2, 6))


def test_exactly_two_roots_of_minus_one(gf9, gf729):
    for fld in (gf9, gf729):
        roots = [e for e in fld.elements() if e * e == -fld.one]
        assert len(roots) == 2
        assert roots[0] == -roots[1]


# --- serialization and guards -----------------------------------------------


def test_field_json_round_trip(gf729):
    d = gf729.to_json()
    assert d == {
        "p": 3,
        "n": 6,
        "modulus": [2, 1, 0, 0, 0, 0, 1],
        "generator_index": 3,
    }
    back = fqdist.ExtField.from_json(d)
    assert back.key == gf729.key
    assert back.generator == gf729.generator


def test_field_json_rejects_bad_records(gf9):
    with pytest.raises(fqdist.InvalidInput):
        fqdist.ExtField.from_json({"p": 3, "n": 2, "modulus": [2, 0, 1], "generator_index": 4})
    with pytest.raises(fqdist.InvalidInput):
        fqdist.ExtField.from_json({"p": 3, "n": 2, "modulus": [1, 0, 1], "generator_index": 2})


def test_size_guard():
    with pytest.raises(SizeGuard):
        fqdist.ExtField(2, 40)
