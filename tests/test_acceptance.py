"""Acceptance gate: the twelve headline checks and a large-prime tier, one
test (and one pass/fail line) each, with explicit runtime budgets."""

import math
import random
import time
from functools import reduce

import pytest

from csmod.csm import (count_csms, csm_bruteforce, gamma_of, sigma_index,
                       spectrum_member, spectrum_witness, standard_module,
                       verify_ideal_correspondence)
from csmod.modlat import index_K
from csmod.orders import (QuatOrder, hurwitz, icosian, lipschitz,
                          octahedral)
from csmod.quat import Quat
from csmod.rings import FieldElem, FieldTag, RingElem, ring_gcd
from csmod.series import (coefficient, euler_factor, phi_coefficients,
                          residue_rho, summatory, zeta_identity_check)


def _budget(name: str, budget_s: float, started: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, (
        f"{name} took {elapsed:.1f}s, over its {budget_s}s budget")
    print(f"{name}: PASS ({elapsed:.1f}s, budget {budget_s:g}s)")


def _random_element(order, rng, span):
    while True:
        q = Quat.zero(order.field_tag)
        for b in order.basis:
            q = q + b * rng.randint(-span, span)
        if not q.is_zero():
            return q


def test_criterion_01_cubic_counts():
    started = time.perf_counter()
    order = hurwitz()
    got = [count_csms(order, m) for m in range(1, 20, 2)]
    assert got == [1, 4, 6, 8, 12, 12, 14, 24, 18, 20]
    _budget("criterion 01 cubic counts", 10, started)


def test_criterion_02_cubic_prime_power_law():
    started = time.perf_counter()
    for p in (3, 5, 7, 11, 13, 17, 19):
        exp = euler_factor("cub", p).expansion(7)
        assert exp[0] == 1
        for r in range(1, 7):
            assert exp[r] == (p + 1) * p ** (r - 1)
    assert euler_factor("cub", 2).expansion(7) == (1, 0, 0, 0, 0, 0, 0)
    series = phi_coefficients("cub", 128)
    assert all(series.at(2 ** r) == 0 for r in range(1, 8))
    assert series.at(27) == 36 and series.at(121) == 132
    _budget("criterion 02 cubic prime-power law", 1, started)


def test_criterion_03_icosian_counts():
    started = time.perf_counter()
    order = icosian()
    got = [count_csms(order, m) for m in (1, 4, 5, 9, 11)]
    assert got == [1, 5, 6, 10, 24]
    series = phi_coefficients("ico", 29)
    nonzero = {m: series.at(m) for m in range(1, 30) if series.at(m)}
    assert nonzero == {1: 1, 4: 5, 5: 6, 9: 10, 11: 24, 16: 20,
                       19: 40, 20: 30, 25: 30, 29: 60}
    _budget("criterion 03 icosian counts", 60, started)


def test_criterion_04_octahedral_counts():
    started = time.perf_counter()
    order = octahedral()
    got = [count_csms(order, m) for m in (1, 2, 4, 7, 8, 9)]
    assert got == [1, 3, 6, 16, 12, 10]
    series = phi_coefficients("oct", 18)
    nonzero = {m: series.at(m) for m in range(1, 19) if series.at(m)}
    assert nonzero == {1: 1, 2: 3, 4: 6, 7: 16, 8: 12, 9: 10,
                       14: 48, 16: 24, 17: 36, 18: 30}
    _budget("criterion 04 octahedral counts", 60, started)


def test_criterion_05_formula_vs_bruteforce():
    started = time.perf_counter()
    sweeps = ((hurwitz(), 50), (icosian(), 20), (octahedral(), 20))
    checked = 0
    for order, top in sweeps:
        gamma = gamma_of(order)
        for m in range(1, top + 1):
            for q in order.enumerate_by_index(m):
                assert sigma_index(order, q) == m
                assert csm_bruteforce(gamma, q)[1] == m
                checked += 1
    assert checked > 900
    _budget("criterion 05 formula vs bruteforce", 300, started)


def test_criterion_06_cubic_index_theorem():
    started = time.perf_counter()
    rng = random.Random(600)
    order = hurwitz()
    lattices = [standard_module(k) for k in ("cubic", "fcc", "bcc")]
    accepted = 0
    while accepted < 100:
        q = _random_element(order, rng, span=4)
        sigma = sigma_index(order, q)
        if sigma > 99:
            continue
        accepted += 1
        for lattice in lattices:
            assert csm_bruteforce(lattice, q)[1] == sigma
    _budget("criterion 06 cubic-index theorem", 30, started)


def test_criterion_07_ideal_correspondence_suite():
    started = time.perf_counter()
    checked = 0
    for factory in (hurwitz, icosian, octahedral):
        order = factory()
        for m in range(1, 21):
            for q in order.enumerate_by_index(m):
                report = verify_ideal_correspondence(order, q)
                assert report.norm_value == m
                assert report.all_ok
                checked += 1
    assert checked > 350
    _budget("criterion 07 ideal correspondence", 300, started)


def test_criterion_08_spectrum_equivalence():
    started = time.perf_counter()
    cases = (("cub", hurwitz()), ("ico", icosian()), ("oct", octahedral()))
    for case, order in cases:
        series = phi_coefficients(case, 500)
        for m in range(1, 501):
            member = spectrum_member(order, m)
            witness = spectrum_witness(order, m)
            assert member == (witness is not None)
            assert member == (series.at(m) != 0)
            if witness is None:
                continue
            k, ell = witness
            tag = order.field_tag
            if tag is FieldTag.RATIONAL:
                assert k == m and ell == 0
            elif tag is FieldTag.ROOT_FIVE:
                assert k * k + k * ell - ell * ell == m
            else:
                assert k * k - 2 * ell * ell == m
    _budget("criterion 08 spectrum equivalence", 30, started)


def test_criterion_09_zeta_identities():
    started = time.perf_counter()
    assert zeta_identity_check("cub", 100)
    assert zeta_identity_check("ico", 50)
    assert zeta_identity_check("oct", 50)
    _budget("criterion 09 zeta identities", 10, started)


def test_criterion_10_residues_and_summatory():
    started = time.perf_counter()
    assert abs(residue_rho("ico") - 0.497089) < 5e-7
    assert abs(residue_rho("oct") - 0.837559) < 5e-7
    assert abs(residue_rho("cub") - 6.0 / math.pi ** 2) < 1e-10
    _, ratio = summatory("cub", 10 ** 4)
    rho = 6.0 / math.pi ** 2
    assert abs(float(ratio) - rho) < 0.1 * rho
    _budget("criterion 10 residues and summatory", 30, started)


def test_criterion_11_structural_facts():
    started = time.perf_counter()
    rng = random.Random(1100)
    maximal = (hurwitz(), icosian(), octahedral())
    for order in maximal:
        tag = order.field_tag
        small = lipschitz(tag)
        gens = list(order.basis)
        if tag is not FieldTag.RATIONAL:
            omega = FieldElem.omega(tag)
            gens += [b * omega for b in order.basis]
        # real parts land in half the scalar ring and generate all of it
        doubled = []
        for q in gens:
            re2 = q.coords()[0] * 2
            assert re2.is_integral()
            doubled.append(re2.to_ring())
        gcd = reduce(ring_gcd, doubled)
        assert gcd.canonical_associate() == RingElem(tag, 1)
        # twice anything in the order has integral quaternion components
        for q in gens:
            assert small.contains(q * 2)
        for _ in range(1000):
            q = _random_element(order, rng, span=5)
            assert small.contains(q * 2)
            assert (q.coords()[0] * 2).is_integral()
    assert index_K(hurwitz().module, lipschitz(FieldTag.RATIONAL).module
                   ).absolute == 2
    assert index_K(icosian().module, lipschitz(FieldTag.ROOT_FIVE).module
                   ).absolute == 16
    assert index_K(octahedral().module, lipschitz(FieldTag.ROOT_TWO).module
                   ).absolute == 16
    assert index_K(standard_module("mb"), standard_module("mf")
                   ).absolute == 4
    one_plus_i = Quat(FieldTag.RATIONAL, 1, 1)
    assert index_K(hurwitz().module,
                   hurwitz().right_ideal(one_plus_i)).absolute == 4
    _budget("criterion 11 structural facts", 10, started)


def test_criterion_12_composite_indices():
    # composite indices, whose ideals are products of prime-norm ones: each
    # generator's index by formula and by intersection is m, and the
    # distinct CSMs number f(m).  Measured in a fresh process (CPython
    # 3.11.7, 2 cores): 0.18 s, 0.20 s and 0.17 s; the budget is 2 s each
    for factory, case, m, want in ((hurwitz, "cub", 1001, 1344),
                                   (icosian, "ico", 209, 960),
                                   (octahedral, "oct", 161, 768)):
        started = time.perf_counter()
        order = factory()
        gamma = gamma_of(order)
        distinct = set()
        for q in order.enumerate_by_index(m):
            assert sigma_index(order, q) == m
            common, index = csm_bruteforce(gamma, q)
            assert index == m
            distinct.add(common)
        assert len(distinct) == want == coefficient(case, m)
        _budget(f"criterion 12 composite index {order.name} {m}", 2, started)


@pytest.mark.parametrize("factory,case,m,budget", [
    (hurwitz, "cub", 9973, 4), (icosian, "ico", 9001, 6),
    (octahedral, "oct", 9967, 8),
])
def test_large_prime_enumeration(factory, case, m, budget):
    # a prime near the enumeration cap, on a fresh order, so nothing is
    # cached: N(pi) + 1 ideals per prime above m, one search per unit orbit
    # of the lines of P^1(O_K/pi).  Measured in a fresh process (CPython
    # 3.11.7, 2 cores): hurwitz 0.75-0.79 s, icosian 1.18-1.52 s and
    # octahedral 1.73-1.87 s; the budgets are 4, 6 and 8 s
    base = factory()
    started = time.perf_counter()
    order = QuatOrder(base.name, base.field_tag, base.basis, maximal=True)
    reps = order.enumerate_by_index(m)
    assert len(reps) == coefficient(case, m)
    _budget(f"large prime {order.name} {m}", budget, started)
    for q in reps[::997]:
        assert order.is_reduced(q)
        assert sigma_index(order, q) == m
