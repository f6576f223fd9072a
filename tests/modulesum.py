"""The sum of two modules, kept as a test reference.

No command adds modules: the package's module algebra is intersections
and indices.  The tests state identities with sums (bcc + cubic = bcc,
scalars + q*O, a module contained in the sum of two), so the sum lives
here, written on the package's canonical form.
"""

from math import lcm

from csmod.modlat import OModule, _canonical, _check_compatible


def module_sum(m1: OModule, m2: OModule) -> OModule:
    """m1 + m2: the columns of both over their common denominator, in
    canonical form; refuses modules of different fields or ambients."""
    _check_compatible(m1, m2)
    den = lcm(m1.den, m2.den)
    return _canonical(m1.tag, m1.ambient,
                      [[x * (den // m.den) for x in col]
                       for m in (m1, m2) for col in m.pairs], den)
