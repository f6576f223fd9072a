"""The three csmod benchmark workloads: inputs, operations and checks.

A workload is a fixed list of operations (one round) built from the seed.
Each operation calls into the program and returns its raw output; its
check compares that output with the oracles in ``oracle.py`` and returns
None or the reason it is wrong.  Checks run after the round, outside the
timed region.

Why these workloads:

* ``count`` spends almost all of its time in ``orders`` (lattice search
  and one ``right_ideal`` HNF per lattice point).  Rank-4 rational search
  sits beside rank-8 quadratic search, with 24, 120 and 48 units.
* ``sigma`` spends its time in ``csm.csm_bruteforce``: rank-3
  ``modlat.intersect``/``index_K`` and ``quat.cayley_matrix``.  ``orders``
  only checks membership and reduces the generator.
* ``series`` is pure integer work in ``series`` plus ``cli`` formatting;
  it never touches ``rings``, ``quat``, ``orders`` or ``modlat``.
"""

import contextlib
import io
import json
from fractions import Fraction

import oracle

# count: every index of these sets is one `csmod count` call.
COUNT_INDICES = {
    "hurwitz": (1, 3, 5, 7, 9, 11, 13, 15, 17, 19),
    "icosian": (1, 2, 4),
    "octahedral": (1, 2, 4),
}

# sigma: rotations per order per round, and the span of the random
# integer coefficients on the order's Z-basis.  Every fourth rotation of
# an order is given as a 3x3 matrix instead of a quaternion.
SIGMA_PER_ORDER = 200
SIGMA_SPAN = {"hurwitz": 3, "icosian": 2, "octahedral": 2}

# series: table length of phi_coefficients, the length of the zeta
# identity check and of the CLI table, and the sampled coefficients.  Each
# CLI table is made twice per round: six table calls sit between three
# shorter zeta checks and three longer tables, so the median operation
# is the middle of one group of equal calls.
SERIES_M = 10 ** 6
SERIES_ZETA_M = 20000
SERIES_CLI_MAX = 20000
SERIES_CLI_RUNS = 2
SERIES_SAMPLES = 200
# F(x) = rho x^2/2 + O(x log x): at x = 10^6 the relative error is near
# 1e-4 for oct and smaller for cub and ico; the tolerance is ten times that.
DENSITY_REL_TOL = 1e-3

CASE_OF_ORDER = {"hurwitz": "cub", "icosian": "ico", "octahedral": "oct"}


class OpError(Exception):
    """The program refused an operation (nonzero exit code)."""


class Op:
    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


def cli_stdout(csmod, argv):
    """Run the csmod CLI in-process; return its stdout or raise OpError."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = csmod.cli.main(argv)
    if code != 0:
        raise OpError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _first_failure(pairs):
    for ok, why in pairs:
        if not ok:
            return why
    return None


# -- count ----------------------------------------------------------------


def _count_check(order, m):
    case = CASE_OF_ORDER[order]

    def check(text):
        doc = json.loads(text)
        rows = doc["rows"]
        want = oracle.coefficient(case, m)
        return _first_failure([
            (len(rows) == 1 and rows[0]["m"] == m, f"rows {rows}"),
            (rows[0]["count"] == want, f"count {rows[0]['count']} != f({m}) = {want}"),
            (doc["all_match"] is True, "all_match is not true"),
        ])
    return check


def count_ops(csmod, rng):
    pairs = [(o, m) for o, ms in COUNT_INDICES.items() for m in ms]
    rng.shuffle(pairs)
    return [Op(f"count {o} {m}",
               lambda o=o, m=m: cli_stdout(
                   csmod, ["count", "--order", o, str(m), "--format", "json"]),
               _count_check(o, m))
            for o, m in pairs]


def fresh_orders(csmod):
    """Drop the cached maximal orders and build new ones, so that no count
    is answered from the enumeration cache of an earlier round."""
    factories = (csmod.orders.hurwitz, csmod.orders.icosian,
                 csmod.orders.octahedral)
    for f in factories:
        f.cache_clear()
    for f in factories:
        f()


# -- sigma ------------------------------------------------------------------


def _z_basis(case):
    """Z-basis of the maximal order, as quaternions over Q(omega) with
    coordinates (a, b) meaning a + b*omega."""
    h = Fraction(1, 2)
    z = Fraction(0)

    def el(*coords):
        return tuple((Fraction(a), Fraction(b)) for a, b in coords)

    if case == "cub":
        return [el((1, 0), (0, 0), (0, 0), (0, 0)),
                el((0, 0), (1, 0), (0, 0), (0, 0)),
                el((0, 0), (0, 0), (1, 0), (0, 0)),
                el((h, 0), (h, 0), (h, 0), (h, 0))]
    if case == "ico":
        basis = [el((1, 0), (0, 0), (0, 0), (0, 0)),
                 el((0, 0), (1, 0), (0, 0), (0, 0)),
                 el((h, 0), (h, 0), (h, 0), (h, 0)),
                 el((h, -h), (0, h), (0, 0), (h, 0))]
    else:
        basis = [el((1, 0), (0, 0), (0, 0), (0, 0)),
                 el((0, h), (0, h), (0, 0), (0, 0)),
                 el((0, h), (0, 0), (0, h), (0, 0)),
                 el((h, 0), (h, 0), (h, 0), (h, 0))]
    omega = (z, Fraction(1))
    return basis + [tuple(oracle.f_mul(case, omega, c) for c in b)
                    for b in basis]


def _random_element(case, basis, span, rng):
    while True:
        coeffs = [rng.randint(-span, span) for _ in basis]
        q = tuple((sum(k * b[i][0] for k, b in zip(coeffs, basis)),
                   sum(k * b[i][1] for k, b in zip(coeffs, basis)))
                  for i in range(4))
        if any(c != (0, 0) for c in q):
            return q


def _field_text(x):
    a, b = x
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*w"
    return f"{a}{'+' if b > 0 else '-'}{abs(b)}*w"


def quat_text(q):
    """csmod quaternion syntax, e.g. '1/2+3/2*w+(1-w)*i-2*k'."""
    parts = []
    if q[0] != (0, 0):
        parts.append(_field_text(q[0]))
    for c, unit in zip(q[1:], "ijk"):
        if c != (0, 0):
            parts.append(f"({_field_text(c)})*{unit}")
    return "+".join(parts) if parts else "0"


def matrix_text(rows):
    return "; ".join(",".join(_field_text(e) for e in row) for row in rows)


def _sigma_check(case, q):
    n = oracle.f_norm(case, oracle.quat_nr(case, q))
    norm = abs(n)

    def check(text):
        doc = json.loads(text)
        sigma = doc["sigma"]
        checks = [
            (isinstance(sigma, int) and sigma >= 1, f"sigma {sigma!r}"),
            (Fraction(norm).denominator == 1 and int(norm) % sigma == 0,
             f"sigma {sigma} does not divide |N(nr q)| = {norm}"),
            (oracle.in_spectrum(case, sigma), f"sigma {sigma} not in spectrum"),
            (len(doc["csm_basis"]) == 3
             and all(len(col) == 3 for col in doc["csm_basis"]),
             "csm basis is not three 3-vectors"),
        ]
        if case == "cub":
            want = oracle.grimmer_sigma([c[0] for c in q])
            checks.append((sigma == want, f"sigma {sigma} != Grimmer {want}"))
        return _first_failure(checks)
    return check


def sigma_ops(csmod, rng):
    ops = []
    for order, case in CASE_OF_ORDER.items():
        basis = _z_basis(case)
        for i in range(SIGMA_PER_ORDER):
            q = _random_element(case, basis, SIGMA_SPAN[order], rng)
            if i % 4 == 3:
                form, text = "matrix", matrix_text(oracle.rotation_matrix(case, q))
            else:
                form, text = "quat", quat_text(q)
            argv = ["sigma", "--order", order, "--format", "json", "--", text]
            ops.append(Op(f"sigma {order} {form} {text}",
                          lambda argv=argv: cli_stdout(csmod, argv),
                          _sigma_check(case, q)))
    rng.shuffle(ops)
    return ops


# -- series -----------------------------------------------------------------


def _phi_check(case, samples):
    rho = oracle.density(case)

    def check(table):
        values = table.values
        if len(values) != SERIES_M:
            return f"{len(values)} coefficients, wanted {SERIES_M}"
        for m in samples:
            want = oracle.coefficient(case, m)
            if values[m - 1] != want:
                return f"f({m}) = {values[m - 1]}, oracle {want}"
        ratio = 2 * sum(values) / SERIES_M ** 2
        if abs(ratio - rho) > DENSITY_REL_TOL * rho:
            return f"2F(x)/x^2 = {ratio}, oracle density {rho}"
        return None
    return check


def _zeta_check(ok):
    return None if ok is True else f"zeta identities returned {ok!r}"


def _cli_series_check(case, samples):
    rho = oracle.density(case)

    def check(text):
        doc = json.loads(text)
        rows = doc["rows"]
        if len(rows) != SERIES_CLI_MAX:
            return f"{len(rows)} rows, wanted {SERIES_CLI_MAX}"
        running = 0
        for m, row in enumerate(rows, 1):
            running += row["f"]
            if row["m"] != m or row["F"] != running:
                return f"row {m}: {row}"
        for m in samples:
            row = rows[m - 1]
            if row["f"] != oracle.coefficient(case, m):
                return f"f({m}) = {row['f']}, oracle {oracle.coefficient(case, m)}"
            if Fraction(row["ratio"]) != Fraction(2 * row["F"], m * m):
                return f"ratio at {m}: {row['ratio']}"
        if abs(doc["density"] - rho) > 1e-9:
            return f"density {doc['density']}, oracle {rho}"
        return None
    return check


def series_ops(csmod, rng):
    ops = []
    for case in oracle.CASES:
        samples = sorted(rng.sample(range(1, SERIES_M + 1), SERIES_SAMPLES))
        cli_samples = sorted(rng.sample(range(1, SERIES_CLI_MAX + 1), 50))
        ops.append(Op(f"phi_coefficients {case} {SERIES_M}",
                      lambda c=case: csmod.series.phi_coefficients(c, SERIES_M),
                      _phi_check(case, samples)))
        ops.append(Op(f"zeta_identity_check {case} {SERIES_ZETA_M}",
                      lambda c=case: csmod.series.zeta_identity_check(
                          c, SERIES_ZETA_M),
                      _zeta_check))
        argv = ["series", "--case", case, "--max", str(SERIES_CLI_MAX),
                "--format", "json"]
        for run in range(SERIES_CLI_RUNS):
            ops.append(Op(f"csmod series {case} #{run + 1}",
                          lambda argv=argv: cli_stdout(csmod, argv),
                          _cli_series_check(case, cli_samples)))
    return ops


def no_preparation(csmod):
    pass


# name -> (build the round's operations, untimed preparation of a round)
WORKLOADS = {
    "count": (count_ops, fresh_orders),
    "sigma": (sigma_ops, no_preparation),
    "series": (series_ops, no_preparation),
}
