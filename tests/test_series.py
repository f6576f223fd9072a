import hashlib
import math
import tracemalloc
from fractions import Fraction

import pytest

import csmod.rings
import csmod.series
from csmod.csm import count_csms, spectrum_member
from csmod.errors import DomainError, ResourceCapError
from csmod.orders import hurwitz, icosian, octahedral
from csmod.rings import FieldTag, SplittingClass, splitting_class
from csmod.series import (DEFAULT_SERIES_CAP, PHI_CASES, CoeffSeries,
                          EulerFactor, coefficient, coefficient_table,
                          dirichlet_convolve, euler_factor, phi_coefficients,
                          residue_rho, summatory, zeta_identity_check)

ALL_CASES = PHI_CASES + tuple(
    f"{kind}-{field}" for kind in csmod.series._ZETA_KINDS
    for field in ("rational", "root5", "root2"))


# -- local factors ------------------------------------------------------


def test_euler_factor_printed_examples():
    assert euler_factor("cub", 3).expansion(4) == (1, 4, 12, 36)
    assert euler_factor("ico", 2).expansion(6) == (1, 0, 5, 0, 20, 0)
    assert euler_factor("oct", 2).expansion(4) == (1, 3, 6, 12)


def test_euler_factor_by_splitting_behaviour():
    assert euler_factor("cub", 2).expansion(5) == (1, 0, 0, 0, 0)
    # ramified: (1+x)/(1-px)
    assert euler_factor("ico", 5).expansion(3) == (1, 6, 30)
    # split: the square of the ramified shape
    assert euler_factor("ico", 11).expansion(2) == (1, 24)
    assert euler_factor("oct", 7).expansion(2) == (1, 16)
    assert euler_factor("oct", 17).expansion(2) == (1, 36)
    # inert: supported on even powers
    assert euler_factor("ico", 3).expansion(5) == (1, 0, 10, 0, 90)
    assert euler_factor("oct", 3).expansion(5) == (1, 0, 10, 0, 90)


def test_euler_factor_prime_power_law_rational():
    for p in (3, 5, 7, 11, 13, 17, 19):
        exp = euler_factor("cub", p).expansion(7)
        for r in range(1, 7):
            assert exp[r] == (p + 1) * p ** (r - 1)
    assert euler_factor("cub", 2).expansion(7) == (1,) + (0,) * 6


def test_euler_factor_shape_invariants():
    for case in PHI_CASES + ("zetaK-root5", "zetaO-rational",
                             "zetaOO-root2", "zetaO-half-root5"):
        for p in (2, 3, 5, 7, 11):
            factor = euler_factor(case, p)
            assert factor.numerator[0] == 1
            assert factor.denominator[0] == 1
            assert all(c >= 0 for c in factor.expansion(8))


def test_euler_factor_rejects_bad_input():
    with pytest.raises(DomainError):
        euler_factor("cub", 4)
    with pytest.raises(DomainError):
        euler_factor("ico", 1)
    with pytest.raises(DomainError):
        euler_factor("hex", 3)
    with pytest.raises(DomainError):
        euler_factor("zetaO-half", 3)
    with pytest.raises(DomainError):
        EulerFactor(p=3, numerator=(2, 1), denominator=(1,))
    with pytest.raises(DomainError):
        EulerFactor(p=1, numerator=(1, 1), denominator=(1,))
    with pytest.raises(DomainError):
        EulerFactor(3, (1, 1), (2,))
    assert EulerFactor(3, (1, 1), denominator=(1, -3)).expansion(3) == (
        1, 4, 12)


# -- the zeta local factors, composed as the reference -----------------------
#
# The order zeta factors as products of (1 - x^f)-type polynomials and
# the module-index kinds as the "-half" ones with x -> x^2, multiplied out
# here with no written-out coefficient shared with the library.


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def _stretch(poly):
    """Substitute x -> x^2, turning a reduced-norm grid into a
    module-index grid."""
    out = [0] * (2 * len(poly) - 1)
    for i, c in enumerate(poly):
        out[2 * i] = c
    return tuple(out)


def reference_zeta_polys(kind, tag, p, cls):
    if kind == "zetaK":
        if tag is FieldTag.RATIONAL or cls is SplittingClass.RAMIFIED:
            return (1,), (1, -1)
        if cls is SplittingClass.SPLIT:
            return (1,), _poly_mul((1, -1), (1, -1))
        return (1,), (1, 0, -1)
    if kind == "zetaO-half":
        if tag is FieldTag.RATIONAL:
            if p == 2:
                return (1,), (1, -1)
            return (1,), _poly_mul((1, -1), (1, -p))
        if cls is SplittingClass.RAMIFIED:
            return (1,), _poly_mul((1, -1), (1, -p))
        if cls is SplittingClass.SPLIT:
            sq = _poly_mul((1, -1), (1, -1))
            return (1,), _poly_mul(sq, _poly_mul((1, -p), (1, -p)))
        return (1,), _poly_mul((1, 0, -1), (1, 0, -p * p))
    if kind == "zetaOO-half":
        if tag is FieldTag.RATIONAL:
            if p == 2:
                return (1,), (1, -1)
            return (1,), (1, 0, -1)
        if cls is SplittingClass.RAMIFIED:
            return (1,), (1, 0, -1)
        if cls is SplittingClass.SPLIT:
            return (1,), _poly_mul((1, 0, -1), (1, 0, -1))
        return (1,), (1, 0, 0, 0, -1)
    # the module-index versions are the half versions on the square grid
    num, den = reference_zeta_polys(kind + "-half", tag, p, cls)
    return _stretch(num), _stretch(den)


def reference_phi_polys(tag, p, cls):
    # (1 + y)/(1 - N y) for each prime ideal of norm N = p^f, y = x^f,
    # save the constant 1 at 2 over Q
    if tag is FieldTag.RATIONAL:
        if p == 2:
            return (1,), (1,)
        return (1, 1), (1, -p)
    if cls is SplittingClass.RAMIFIED:
        return (1, 1), (1, -p)
    if cls is SplittingClass.SPLIT:
        return _poly_mul((1, 1), (1, 1)), _poly_mul((1, -p), (1, -p))
    return (1, 0, 1), (1, 0, -p * p)


# every field and class, including pairs no prime of the field takes, so
# that each class factor is pinned at every prime below 500
PRIMES_BELOW_500 = [p for p in range(2, 500)
                    if all(p % d for d in range(2, math.isqrt(p) + 1))]


def test_zeta_polys_match_composed_reference():
    for kind in csmod.series._ZETA_KINDS:
        for tag in FieldTag:
            for cls in SplittingClass:
                for p in PRIMES_BELOW_500:
                    want = reference_zeta_polys(kind, tag, p, cls)
                    got = csmod.series._local_polys(kind, tag, p, cls)
                    assert got == want, (kind, tag, cls, p)


def test_phi_polys_match_composed_reference():
    for tag in FieldTag:
        for cls in SplittingClass:
            for p in PRIMES_BELOW_500:
                want = reference_phi_polys(tag, p, cls)
                got = csmod.series._local_polys("phi", tag, p, cls)
                assert got == want, (tag, cls, p)


# -- coefficient tables --------------------------------------------------


def test_phi_cub_initial_coefficients():
    assert phi_coefficients("cub", 19).values == (
        1, 0, 4, 0, 6, 0, 8, 0, 12, 0, 12, 0, 14, 0, 24, 0, 18, 0, 20)


def test_phi_ico_initial_coefficients():
    series = phi_coefficients("ico", 29)
    nonzero = {m: series.at(m) for m in range(1, 30) if series.at(m)}
    assert nonzero == {1: 1, 4: 5, 5: 6, 9: 10, 11: 24, 16: 20,
                       19: 40, 20: 30, 25: 30, 29: 60}


def test_phi_oct_initial_coefficients():
    series = phi_coefficients("oct", 18)
    nonzero = {m: series.at(m) for m in range(1, 19) if series.at(m)}
    assert nonzero == {1: 1, 2: 3, 4: 6, 7: 16, 8: 12, 9: 10,
                       14: 48, 16: 24, 17: 36, 18: 30}


def test_coefficients_multiplicative():
    for case in PHI_CASES:
        f = phi_coefficients(case, 300)
        for m in range(2, 300):
            for n in range(2, 300 // m + 1):
                if math.gcd(m, n) == 1:
                    assert f.at(m * n) == f.at(m) * f.at(n)


def test_series_type_invariants():
    series = phi_coefficients("cub", 10)
    assert len(series) == 10
    assert series.at(1) == 1
    assert series.label == "cub"
    with pytest.raises(DomainError):
        series.at(11)
    with pytest.raises(DomainError):
        series.at(0)
    with pytest.raises(DomainError):
        CoeffSeries(label="x", values=(2, 1))


# -- the per-index table, kept as the reference ----------------------------
#
# A smallest-prime-factor sieve, then for every m one division loop
# for the power of its smallest prime and one lookup of the checked
# local factor: slow, but it shares no fill logic with the stride fill.


def reference_table(case, M):
    spf = list(range(M + 1))
    for i in range(2, math.isqrt(M) + 1):
        if spf[i] == i:
            for j in range(i * i, M + 1, i):
                if spf[j] == j:
                    spf[j] = i
    values = [0] * (M + 1)
    values[1] = 1
    expansions = {}
    for m in range(2, M + 1):
        p = spf[m]
        rest, r = m, 0
        while rest % p == 0:
            rest //= p
            r += 1
        exp = expansions.get(p)
        if exp is None:
            terms = 2
            while p ** terms <= M:
                terms += 1
            exp = euler_factor(case, p).expansion(terms)
            expansions[p] = exp
        values[m] = exp[r] * values[rest]
    return tuple(values[1:])


# every M up to 64 moves sqrt(M) past the first primes of each residue
# class mod the discriminant, and past the ramified 2 (over Z[sqrt2]) and
# 5 (over Z[tau])
REFERENCE_SIZES = tuple(range(1, 65)) + (121, 1000, 4096, 5000)


@pytest.mark.parametrize("case", ALL_CASES)
def test_table_matches_reference(case):
    for M in REFERENCE_SIZES:
        assert coefficient_table(case, M).values == reference_table(case, M), M


@pytest.mark.parametrize("case", ALL_CASES)
def test_single_coefficient_matches_table(case):
    values = coefficient_table(case, 500).values
    assert [coefficient(case, m) for m in range(1, 501)] == list(values)


def test_single_coefficient_rejects_bad_input():
    with pytest.raises(DomainError):
        coefficient("cub", 0)
    with pytest.raises(DomainError):
        coefficient("hex", 3)


def test_single_coefficient_checks_its_case_at_one():
    # m = 1 has no prime factor, and the case is still read
    with pytest.raises(DomainError) as at_six:
        coefficient("nope", 6)
    with pytest.raises(DomainError) as at_one:
        coefficient("nope", 1)
    assert str(at_one.value) == str(at_six.value)


def test_single_coefficient_factors_once(monkeypatch):
    # factor_int(m) proves each prime of m prime; no second trial division
    calls, factor_int = [], csmod.rings.factor_int

    def counted(n):
        calls.append(n)
        return factor_int(n)

    monkeypatch.setattr(csmod.series, "factor_int", counted)
    monkeypatch.setattr(csmod.rings, "factor_int", counted)
    assert coefficient("ico", 999999999989) > 0
    assert calls == [999999999989]


# 1 + ((p - q)^2 - 1) x as a class factor's numerator, over the
# denominator 1: f(p) = (p - q)^2 - 1 is negative at the prime q alone, so
# the table must check every prime above sqrt(M), not one per class
def _negative_at(q):
    return (1,), (q * q - 1, -2 * q, 1)


@pytest.mark.parametrize("p,numerator,power", [
    (3, (1, 0, -1), 2),     # below sqrt(M), through _local_polys: at p^2
    (47, _negative_at(47), 1),     # above M/3, through the class factor
    (53, _negative_at(53), 1),     # above M/2
    (11, _negative_at(11), 1),     # first of its class mod 8 above sqrt(M)
])
def test_table_rejects_negative_local_coefficient(p, numerator, power,
                                                  monkeypatch):
    if p * p <= 100:
        local_polys = csmod.series._local_polys

        def broken(kind, tag, q, cls):
            return ((numerator, (1,)) if q == p
                    else local_polys(kind, tag, q, cls))

        monkeypatch.setattr(csmod.series, "_local_polys", broken)
    else:
        monkeypatch.setattr(csmod.series, "_class_factor",
                            lambda *key: (numerator, ((1,),)))
    with pytest.raises(DomainError, match=f"at {p} gives .* at p\\^{power}"):
        coefficient_table("oct", 100)


def test_table_needs_no_trial_division(monkeypatch):
    # the sieve proves the primes; the public entry points still check
    class ProofCalled(Exception):
        pass

    def refuse(n):
        raise ProofCalled(n)

    want = reference_table("oct", 10**4)
    monkeypatch.setattr(csmod.rings, "factor_int", refuse)
    assert coefficient_table("oct", 10**4).values == want
    with pytest.raises(ProofCalled):
        euler_factor("oct", 7)
    monkeypatch.undo()
    with pytest.raises(DomainError):
        splitting_class(6, FieldTag.ROOT_FIVE)
    with pytest.raises(DomainError):
        euler_factor("cub", 4)


# the primes above sqrt(10^4) = 100 take the class of the first prime of
# their residue class mod the discriminant, 5 over Z[tau] and 8 over
# Z[sqrt2]; each prime up to 100 gets its own
@pytest.mark.parametrize("case,firsts", [
    ("ico", {101, 107, 103, 109}),    # residues 1, 2, 3, 4 mod 5
    ("oct", {113, 107, 101, 103}),    # residues 1, 3, 5, 7 mod 8
])
def test_table_classes_large_primes_once_per_residue(case, firsts,
                                                     monkeypatch):
    want = reference_table(case, 10**4)
    class_of_prime = csmod.series._class_of_prime
    calls = []

    def counted(p, tag):
        calls.append(p)
        return class_of_prime(p, tag)

    monkeypatch.setattr(csmod.series, "_class_of_prime", counted)
    assert coefficient_table(case, 10**4).values == want
    small = {p for p in range(2, 101) if all(p % d for d in range(2, p))}
    assert len(calls) == len(small) + 4 == 29
    assert set(calls) == small | firsts


# 3721 = 61^2: the sizes sit at prime squares and on both sides of the
# split between fully expanded small primes and first-order large ones
@pytest.mark.parametrize("case", ALL_CASES)
@pytest.mark.parametrize("M", (48, 49, 50, 3720, 3721, 3722))
def test_table_matches_reference_around_prime_squares(case, M):
    assert coefficient_table(case, M).values == reference_table(case, M)


# M = 3p - 1, 3p, 3p + 1 put p on both sides of the single write above
# M/3, where p is its only odd multiple (2p - 1, 2p, 2p + 1 on both sides
# of M/2); at 2^k - 1, 2^k and 2^k + 1 the last stride of the 2-part ends;
# around the squares and at the cubes of the primes with f(p) = 0 in some
# case, the zeroed p-stride meets the product pass on the p^2 stride
FILL_BOUNDARY_SIZES = sorted(
    {m * p + d for m in (2, 3) for p in (47, 53) for d in (-1, 0, 1)}
    | {2 ** k + d for k in (6, 7, 10) for d in (-1, 0, 1)}
    | {n for p in (2, 3, 5, 7) for n in (p * p - 1, p * p, p * p + 1, p ** 3)})


@pytest.mark.parametrize("case", ALL_CASES)
def test_table_matches_reference_at_fill_boundaries(case):
    for M in FILL_BOUNDARY_SIZES:
        assert coefficient_table(case, M).values == reference_table(case, M), M


@pytest.mark.parametrize("p", (47, 53, 11))
def test_table_rejects_bad_constant_term_above_root(p, monkeypatch):
    # the class factor of p > sqrt(100) gets the constant term
    # 1 + (p - 2)(p - 3)(p - 5)(p - 7), a polynomial in p that is 1 at every
    # prime up to sqrt(100), so only the check of the class factor as
    # polynomials sees it: p = 47 is split, p = 53 (> 100/2) and p = 11
    # (the first prime of its class mod 8 above sqrt(100)) inert
    class_factor = csmod.series._class_factor
    broken_class = splitting_class(p, FieldTag.ROOT_TWO)
    vanishing = _poly_mul(_poly_mul((-2, 1), (-3, 1)),
                          _poly_mul((-5, 1), (-7, 1)))
    constant = (1 + vanishing[0],) + vanishing[1:]

    def broken(kind, tag, cls, *two_over_q):
        num, den = class_factor(kind, tag, cls, *two_over_q)
        if cls is broken_class:
            num = (constant,) + num[1:]
        return num, den

    monkeypatch.setattr(csmod.series, "_class_factor", broken)
    with pytest.raises(DomainError, match="numerator must have constant term 1"):
        coefficient_table("oct", 100)


def table_peak(case, M):
    coefficient_table(case, 100)
    tracemalloc.start()
    try:
        table = coefficient_table(case, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == M
    return peak


def test_table_peak_memory():
    # CPython 3.11 tracemalloc peaks for cub at M = 2*10^5: 8.0 MB for
    # the stride fill with a values[1:] copy, 6.4 MB for this fill (zero
    # strides, one write above M/2, a zero-based list turned into the
    # tuple directly), 6.6 MB for the same fill reading the tuple through
    # islice(values, 1, None) and for the fill before it, 7.3 MB with a
    # list of the primes kept, 8.2 MB with one M-sized scratch list and
    # 10.9 MB with a list of the local factors; the peak is the tuple
    peak = table_peak("cub", 2 * 10**5)
    assert peak < 7.0e6, peak


def test_table_peak_memory_oct():
    # CPython 3.11: 4.55 MB at M = 2*10^5, at the tuple; 5.44 MB when
    # p = 2 had a product pass over the whole list, with three
    # stride-sized lists at once
    peak = table_peak("oct", 2 * 10**5)
    assert peak < 5.0e6, peak


# SHA-256 of repr(values) of the 10^6 tables, recorded from a fill that
# expanded every local factor through EulerFactor
MILLION_TABLE_SHA256 = {
    "cub": "4d326c720e7264198dbf59e9ce991ba1e7e11824d3f311c8b43c07ec0f5280f9",
    "ico": "25a82c8ee63b62fe4b13e576a798a4cf0ba0f4fa088c2e270eeb452226e2ca8f",
    "oct": "5a51dd93e1ce564a3263a512e416abec2143585b1dbcddf6ec2a11e65088e15e",
}


@pytest.mark.slow
@pytest.mark.parametrize("case", PHI_CASES)
def test_million_table_hash(case):
    values = phi_coefficients(case, 10**6).values
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == MILLION_TABLE_SHA256[case]


# SHA-256 of repr(values) of the zeta tables at M = 2*10^5, recorded from
# the fill that multiplied every prime's p-part into the whole list
ZETA_TABLE_SHA256 = {
    "zetaK-rational": "af7293330dc3c1cfc30893dcfe83a67fbf43e74fe3b7a77d0d1624507363ef5c",
    "zetaK-root5": "678877bce95603469551cfaad48c045282285b1dd4850eeae884f2a92137e947",
    "zetaK-root2": "1e987c13a8761dc18ff650356a7e74563606618a1ad3ee853e5c61240007efc5",
    "zetaO-rational": "8d6455256505ddbb54aa3d82f9a0c7316240af0d14464c0ad742b6a940b67157",
    "zetaO-root5": "731f12477f19575231016ef3db938bbeab0e508184af8e61d0754736db0693d6",
    "zetaO-root2": "f34856bf52353c6de8d067263d9e9cd8b728d1114660dffa225da678cf8ef715",
    "zetaOO-rational": "27f4744e7bb8afe6b4e15a43f5f51d1f48a6cc61176b43b15069b9e9c7433552",
    "zetaOO-root5": "0a4b509d39d86827139f70c0ac89275846571b9bae6751b69b247030b68a9f9d",
    "zetaOO-root2": "fb273f8f32d9ed3c70ea331e57032fb80bbca85c7724109a888280e79978316d",
    "zetaO-half-rational": "5af2267a02699a4d2ec975eee50dacb328be1ce49fa40988571bce1fce654eb6",
    "zetaO-half-root5": "b849d9e28a9d96398c82b19013ad9b9c6b9f5616c82454c2c88d32fdf1313991",
    "zetaO-half-root2": "b0accc03402bbd85ade61270e8fdf7c41da7fe862d1a15258ec3158e9ca21a58",
    "zetaOO-half-rational": "73121f927a24635bcf00492e1cb02cc991559c232f5db5a50f6080ad9eebd1b9",
    "zetaOO-half-root5": "9ed7fe1f3322ad3eeaca0192b2e5dcc35b871eaed00545e2bf8708054d1e0518",
    "zetaOO-half-root2": "dcd0a7401220cf5e395c7ab680088dd29920ce36073a67110362cec9c0ebf9ab",
}


@pytest.mark.slow
@pytest.mark.parametrize("case", ALL_CASES[len(PHI_CASES):])
def test_zeta_table_hash(case):
    values = coefficient_table(case, 2 * 10**5).values
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == ZETA_TABLE_SHA256[case]


def test_phi_rejects_bad_case_and_size():
    with pytest.raises(DomainError):
        phi_coefficients("zetaK-rational", 10)
    with pytest.raises(DomainError):
        phi_coefficients("cub", 0)
    with pytest.raises(ResourceCapError):
        phi_coefficients("cub", 50, cap=10)
    with pytest.raises(ResourceCapError):
        phi_coefficients("cub", DEFAULT_SERIES_CAP + 1)


# -- supporting zeta tables ----------------------------------------------


def _character_mod5(d):
    r = d % 5
    return 0 if r == 0 else (1 if r in (1, 4) else -1)


def _character_mod8(d):
    r = d % 8
    return 0 if r % 2 == 0 else (1 if r in (1, 7) else -1)


@pytest.mark.parametrize("case,chi", [
    ("zetaK-root5", _character_mod5),
    ("zetaK-root2", _character_mod8),
])
def test_dedekind_zeta_against_divisor_sums(case, chi):
    # ideal counts in a quadratic ring are divisor sums of the
    # associated quadratic character; that identity is independent of
    # the Euler-product assembly used by coefficient_table
    values = coefficient_table(case, 200).values
    for n in range(1, 201):
        expected = sum(chi(d) for d in range(1, n + 1) if n % d == 0)
        assert values[n - 1] == expected


def test_rational_zeta_is_constant_one():
    assert set(coefficient_table("zetaK-rational", 60).values) == {1}


def test_two_sided_table_support():
    values = coefficient_table("zetaOO-rational", 100).values
    nonzero = {n for n in range(1, 101) if values[n - 1]}
    assert nonzero == {1, 4, 16, 64, 81}
    assert all(values[n - 1] in (0, 1) for n in range(1, 101))


def test_order_zeta_supported_on_squares():
    values = coefficient_table("zetaO-rational", 120).values
    for n in range(1, 121):
        root = math.isqrt(n)
        assert (values[n - 1] != 0) == (root * root == n)


# -- identities ----------------------------------------------------------


def test_zeta_identity_check():
    assert zeta_identity_check("cub", 100)
    assert zeta_identity_check("ico", 50)
    assert zeta_identity_check("oct", 50)
    for case in PHI_CASES:
        assert zeta_identity_check(case, 1)
    with pytest.raises(DomainError):
        zeta_identity_check("zetaK-root5", 10)


def test_dirichlet_convolve_basics():
    ones = (1,) * 12
    divisor_counts = dirichlet_convolve(ones, ones)
    assert divisor_counts == (1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6)
    unit = (1,) + (0,) * 11
    assert dirichlet_convolve(unit, ones) == ones
    with pytest.raises(DomainError):
        dirichlet_convolve((1, 0), (1, 0, 0))


def convolve_reference(a, b):
    out = [0] * len(a)
    for d in range(1, len(a) + 1):
        for q in range(1, len(a) // d + 1):
            out[d * q - 1] += a[d - 1] * b[q - 1]
    return tuple(out)


def test_dirichlet_convolve_matches_double_loop():
    dense = tuple((-1) ** n * (n % 7 + 1) for n in range(60))
    sparse = tuple(n if n % 9 == 0 else 0 for n in range(1, 61))
    zeros = (0,) * 60
    for a, b in ((dense, sparse), (sparse, dense), (dense, dense),
                 (zeros, dense), (sparse, zeros), (zeros, zeros)):
        want = convolve_reference(a, b)
        assert dirichlet_convolve(a, b) == want
        assert dirichlet_convolve(b, a) == want
    assert dirichlet_convolve(zeros, dense) == zeros
    with pytest.raises(DomainError):
        dirichlet_convolve(sparse, dense[:59])
    with pytest.raises(DomainError):
        dirichlet_convolve(dense[:59], sparse)


# -- summatory function and densities -------------------------------------


def test_summatory_small():
    assert summatory("cub", 1) == (1, Fraction(2))
    total, ratio = summatory("cub", 19)
    assert total == 119
    assert ratio == Fraction(238, 361)
    assert summatory("ico", 29)[0] == 226
    assert summatory("oct", 18)[0] == 186


def test_summatory_ratio_near_density():
    for case in PHI_CASES:
        _, ratio = summatory(case, 3000)
        rho = residue_rho(case)
        assert abs(float(ratio) - rho) < 0.1 * rho


def test_summatory_cap():
    with pytest.raises(ResourceCapError):
        summatory("cub", DEFAULT_SERIES_CAP + 1)


def test_residue_values():
    assert abs(residue_rho("cub") - 0.607927) < 5e-7
    assert abs(residue_rho("ico") - 0.497089) < 5e-7
    assert abs(residue_rho("oct") - 0.837559) < 5e-7
    assert abs(residue_rho("cub") - 6.0 / math.pi ** 2) < 1e-15
    with pytest.raises(DomainError):
        residue_rho("bcc")


# -- agreement with the rest of the package -------------------------------


def test_nonzero_coefficients_match_spectrum():
    cases = (("cub", hurwitz()), ("ico", icosian()), ("oct", octahedral()))
    for case, order in cases:
        f = phi_coefficients(case, 500)
        for m in range(1, 501):
            assert (f.at(m) != 0) == spectrum_member(order, m)


def test_coefficients_match_submodule_counts():
    cases = (
        ("cub", hurwitz(), range(1, 16)),
        ("ico", icosian(), (1, 2, 3, 4, 5, 9, 10)),
        ("oct", octahedral(), (1, 2, 3, 4, 7, 8, 9)),
    )
    for case, order, indices in cases:
        f = phi_coefficients(case, max(indices))
        for m in indices:
            assert f.at(m) == count_csms(order, m)
