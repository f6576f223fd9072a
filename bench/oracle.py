"""Independent oracles for the csmod benchmark.

Nothing here imports csmod.  Every value the benchmark checks is worked
out again from the paper's formulas with this file's own arithmetic:

* the counting coefficients f(m) of the cubic, icosahedral and octagonal
  families, as Euler products whose local factors depend only on how the
  prime splits (p mod 5 over Q(sqrt 5), p mod 8 over Q(sqrt 2)), with
  trial division for the factorisation;
* Grimmer's formula for the coincidence index of a cubic rotation: the
  odd part of |v|^2, v the primitive integer multiple of the quaternion;
* the coincidence spectra, by searching the norm forms k^2 + k*l - l^2
  and k^2 - 2*l^2 directly;
* the density constants rho with F(x) ~ rho * x^2 / 2, as residues of the
  Dirichlet series at s = 2, from numerically summed L-values and the
  analytic class number formula.

Run this file to execute the self-tests: ``python3 bench/oracle.py``.
"""

import math
from fractions import Fraction

CASES = ("cub", "ico", "oct")

# omega^2 = C + D*omega for omega = 1, tau = (1+sqrt 5)/2, sqrt 2
OMEGA_SQ = {"cub": (1, 0), "ico": (1, 1), "oct": (2, 0)}


# -- factorisation and local factors ------------------------------------


def factorize(n):
    """[(p, e), ...] for a positive integer, by trial division."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def splitting(case, p):
    """'split', 'inert' or 'ramified' for the rational prime p."""
    if case == "ico":
        if p == 5:
            return "ramified"
        return "split" if p % 5 in (1, 4) else "inert"
    if case == "oct":
        if p == 2:
            return "ramified"
        return "split" if p % 8 in (1, 7) else "inert"
    raise ValueError(f"no quadratic field for case {case!r}")


def _prime_ideal_coefficient(q, r):
    """Coefficient of x^r in (1 + x) / (1 - q x): one prime of norm q."""
    return 1 if r == 0 else (q + 1) * q ** (r - 1)


def local_coefficient(case, p, r):
    """f(p^r), read off the local factor of zeta_K(s) zeta_K(s-1) / zeta_K(2s)
    (for cub: zeta(s) zeta(s-1) / zeta(2s) with the factor at 2 removed)."""
    if case == "cub":
        return 0 if p == 2 and r > 0 else _prime_ideal_coefficient(p, r)
    kind = splitting(case, p)
    if kind == "ramified":
        return _prime_ideal_coefficient(p, r)
    if kind == "split":
        # two primes of norm p: the product of two such factors
        return sum(_prime_ideal_coefficient(p, i)
                   * _prime_ideal_coefficient(p, r - i) for i in range(r + 1))
    # one prime of norm p^2, so only even powers of p occur
    return 0 if r % 2 else _prime_ideal_coefficient(p * p, r // 2)


def coefficient(case, m):
    """Number of coincidence site modules of index m, by the Euler product."""
    out = 1
    for p, e in factorize(m):
        out *= local_coefficient(case, p, e)
    return out


# -- spectra through the norm forms --------------------------------------


def norm_form_witness(case, m):
    """(k, l) with the norm form equal to m, or None when m is no index.

    Every orbit of totally positive units holds a solution with
    |l| <= sqrt(m/5) (ico) or |l| <= sqrt(m/2) (oct), and conjugation
    flips the sign of l, so scanning 0 <= l <= sqrt(m) is exhaustive.
    Over Q the cubic spectrum is the odd numbers, witnessed by (m, 0).
    """
    if m < 1:
        raise ValueError("indices are positive")
    if case == "cub":
        return (m, 0) if m % 2 else None
    for l in range(math.isqrt(m) + 1):
        if case == "ico":
            # k^2 + k l - l^2 = m  <=>  (2k + l)^2 = 5 l^2 + 4 m
            disc = 5 * l * l + 4 * m
            s = math.isqrt(disc)
            if s * s == disc and (s - l) % 2 == 0:
                return ((s - l) // 2, l)
        else:
            t = m + 2 * l * l
            s = math.isqrt(t)
            if s * s == t:
                return (s, l)
    return None


def in_spectrum(case, m):
    return norm_form_witness(case, m) is not None


# -- Grimmer's cubic formula -----------------------------------------------


def grimmer_sigma(coords):
    """Coincidence index of the cubic rotation of a rational quaternion."""
    den = 1
    for c in coords:
        den = math.lcm(den, Fraction(c).denominator)
    v = [int(Fraction(c) * den) for c in coords]
    g = math.gcd(*v)
    if g == 0:
        raise ValueError("the zero quaternion defines no rotation")
    n = sum((x // g) ** 2 for x in v)
    while n % 2 == 0:
        n //= 2
    return n


# -- exact arithmetic in Q(omega), for inputs and norms ---------------------


def f_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def f_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def f_mul(case, x, y):
    c, d = OMEGA_SQ[case]
    bb = x[1] * y[1]
    return (x[0] * y[0] + c * bb, x[0] * y[1] + x[1] * y[0] + d * bb)


def f_norm(case, x):
    """Field norm of a + b*omega."""
    a, b = x
    if case == "cub":
        return a * a
    if case == "ico":
        return a * a + a * b - b * b
    return a * a - 2 * b * b


def f_inv(case, x):
    n = Fraction(f_norm(case, x))
    if n == 0:
        raise ZeroDivisionError("inverse of zero")
    a, b = x
    if case == "cub":
        return (1 / Fraction(a), Fraction(0))
    if case == "ico":
        return ((a + b) / n, -b / n)   # conj(a + b tau) = (a + b) - b tau
    return (a / n, -b / n)


def quat_nr(case, q):
    out = (Fraction(0), Fraction(0))
    for c in q:
        out = f_add(out, f_mul(case, c, c))
    return out


def rotation_matrix(case, q):
    """Matrix of v -> q v q^-1 on pure quaternions (Cayley's formula)."""
    k, l, m, v = q
    mul = lambda x, y: f_mul(case, x, y)
    sq = [mul(c, c) for c in q]
    two = (Fraction(2), Fraction(0))
    twice = lambda x, y, z, w: mul(two, f_sub(mul(x, y), mul(z, w)))
    twice_sum = lambda x, y, z, w: mul(two, f_add(mul(x, y), mul(z, w)))
    rows = [
        [f_sub(f_add(sq[0], sq[1]), f_add(sq[2], sq[3])),
         twice(l, m, k, v), twice_sum(k, m, l, v)],
        [twice_sum(k, v, l, m),
         f_sub(f_add(sq[0], sq[2]), f_add(sq[1], sq[3])),
         twice(m, v, k, l)],
        [twice(l, v, k, m), twice_sum(k, l, m, v),
         f_sub(f_add(sq[0], sq[3]), f_add(sq[1], sq[2]))],
    ]
    inv = f_inv(case, quat_nr(case, q))
    return [[mul(e, inv) for e in row] for row in rows]


# -- density constants -------------------------------------------------------


def _zeta(s, terms=20000):
    """Riemann zeta at s > 1: a partial sum plus its Euler-Maclaurin tail."""
    n = terms
    head = math.fsum(1 / k ** s for k in range(1, n + 1))
    return head + 1 / ((s - 1) * n ** (s - 1)) - 1 / (2 * n ** s) \
        + s / (12 * n ** (s + 1))


def _l_value(s, chi, terms=20000):
    """L(s, chi) for a nonprincipal real character of period at most 8;
    the tail after `terms` is below 8 / terms^s."""
    return math.fsum(chi(n) / n ** s for n in range(1, terms + 1))


def _chi5(n):
    r = n % 5
    return 0 if r == 0 else (1 if r in (1, 4) else -1)


def _chi8(n):
    r = n % 8
    return 0 if r % 2 == 0 else (1 if r in (1, 7) else -1)


def density(case):
    """rho with F(x) ~ rho x^2 / 2: the residue at s = 2 of
    zeta_K(s) zeta_K(s-1) / zeta_K(2s), zeta_K = zeta * L(., chi)."""
    z2, z4 = _zeta(2), _zeta(4)
    if case == "cub":
        # the removed factor at 2, (1 - 2^(1-s)) / (1 + 2^-s), is 2/5 at s = 2
        return Fraction(2, 5) * z2 / z4
    chi, disc, unit = {
        "ico": (_chi5, 5, (1 + math.sqrt(5)) / 2),
        "oct": (_chi8, 8, 1 + math.sqrt(2)),
    }[case]
    # class number one: L(1, chi) = 2 log(eps) / sqrt(disc)
    l1 = 2 * math.log(unit) / math.sqrt(disc)
    return z2 * _l_value(2, chi) * l1 / (z4 * _l_value(4, chi))


# -- self-tests ---------------------------------------------------------------

# initial coefficients as printed in the paper's tables
_PAPER_VALUES = {
    "cub": {1: 1, 2: 0, 3: 4, 5: 6, 7: 8, 9: 12, 11: 12, 13: 14, 15: 24,
            17: 18, 19: 20, 27: 36, 121: 132, 128: 0},
    "ico": {1: 1, 2: 0, 4: 5, 5: 6, 9: 10, 11: 24, 16: 20, 19: 40, 20: 30,
            25: 30, 29: 60},
    "oct": {1: 1, 2: 3, 3: 0, 4: 6, 7: 16, 8: 12, 9: 10, 14: 48, 16: 24,
            17: 36, 18: 30},
}
_PAPER_DENSITY = {"cub": 0.607927, "ico": 0.497089, "oct": 0.837559}


def selftest():
    """Raise ValueError at the first oracle value that disagrees."""
    def need(cond, what):
        if not cond:
            raise ValueError(f"oracle self-test failed: {what}")

    for n in range(1, 3000):
        need(math.prod(p ** e for p, e in factorize(n)) == n, f"factor {n}")
    for case, table in _PAPER_VALUES.items():
        for m, want in table.items():
            need(coefficient(case, m) == want, f"{case} f({m})")
        for m in range(1, 1500):
            need((coefficient(case, m) != 0) == in_spectrum(case, m),
                 f"{case} spectrum at {m}")
            w = norm_form_witness(case, m)
            if w and case != "cub":
                need(f_norm(case, w) == m, f"{case} witness {w} for {m}")
        need(abs(density(case) - _PAPER_DENSITY[case]) < 5e-7,
             f"{case} density")
    need(grimmer_sigma((2, 1, 0, 0)) == 5, "grimmer 2+i")
    need(grimmer_sigma((1, 1, 0, 0)) == 1, "grimmer 1+i")
    need(grimmer_sigma((Fraction(1, 2),) * 4) == 1, "grimmer (1+i+j+k)/2")
    need(grimmer_sigma((3, 1, 1, 1)) == 3, "grimmer 3+i+j+k")
    r = rotation_matrix("cub", [(Fraction(x), Fraction(0)) for x in (2, 1, 0, 0)])
    need([[e[0] for e in row] for row in r]
         == [[1, 0, 0], [0, Fraction(3, 5), Fraction(-4, 5)],
             [0, Fraction(4, 5), Fraction(3, 5)]], "rotation of 2+i")


if __name__ == "__main__":
    selftest()
    print("oracle self-tests passed")
