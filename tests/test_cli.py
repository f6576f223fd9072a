import ast
import contextlib
import csv
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csmod
from csmod.cli import (_DEFAULTS, _build_parser, _json_text, _load_config,
                       _parse_rotation, main)
from csmod.csm import (SPECTRUM_CAP, csm_bruteforce, standard_module,
                       verify_ideal_correspondence)
from csmod.errors import DomainError, ParseInputError
from csmod.orders import icosian
from csmod.quat import Quat, format_quat, parse_quat
from csmod.rings import (FieldElem, FieldTag, RingElem, _parse_numerators,
                         _ratio_text, parse_field_elem)
from csmod.series import (CASE_OF_FIELD, PHI_CASES, coefficient,
                          phi_coefficients, residue_rho)
from fieldmatrix import Mat3K, rotation_to_quat


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


# -- sigma ---------------------------------------------------------------


def test_sigma_hurwitz_example(capsys):
    code, payload = run_json(capsys, "sigma", "--order", "hurwitz", "2+1*i")
    assert code == 0
    assert payload["command"] == "sigma"
    assert payload["sigma"] == 5
    assert payload["axis"] == ["1", "0", "0"]
    assert len(payload["csm_basis"]) == 3


def test_sigma_identity(capsys):
    code, payload = run_json(capsys, "sigma", "--order", "hurwitz", "1")
    assert code == 0
    assert payload["sigma"] == 1
    assert payload["axis"] is None
    assert payload["cos_angle"] == "1"


def test_sigma_icosian_example(capsys):
    code, payload = run_json(capsys, "sigma", "--order", "icosian", "1+1*i")
    assert code == 0
    assert payload["sigma"] == 4


def test_sigma_text_output(capsys):
    code, out = run(capsys, "sigma", "--order", "hurwitz", "2+1*i")
    assert code == 0
    assert "coincidence index:  5" in out


def test_sigma_matrix_input(capsys):
    code, payload = run_json(capsys, "sigma", "--order", "hurwitz",
                             "1,0,0; 0,3/5,-4/5; 0,4/5,3/5")
    assert code == 0
    assert payload["sigma"] == 5
    code, payload = run_json(capsys, "sigma", "--order", "hurwitz",
                             "0,-1,0; 1,0,0; 0,0,1")
    assert code == 0
    assert payload["sigma"] == 1


def test_sigma_lipschitz_uses_bruteforce(capsys):
    code, payload = run_json(capsys, "sigma", "--order", "lipschitz-q",
                             "2+1*i")
    assert code == 0
    assert payload["sigma"] == 5


def test_sigma_error_codes(capsys):
    assert main(["sigma", "--order", "hurwitz", "2+%i"]) == 2
    capsys.readouterr()
    assert main(["sigma", "--order", "hurwitz", "1,1,0; 0,1,0; 0,0,1"]) == 3
    capsys.readouterr()
    assert main(["sigma", "--order", "hurwitz",
                 "1,0,0; 0,1,0; 0,0,-1"]) == 3
    capsys.readouterr()
    assert main(["sigma", "--order", "hurwitz", "0"]) == 3
    capsys.readouterr()
    # an exponent would let ten characters build a million-digit integer
    assert main(["sigma", "--order", "hurwitz", "1e999999"]) == 2
    assert "exponent" in capsys.readouterr().err


def test_sigma_index_mismatch_exits_1(capsys, monkeypatch):
    # the formula cross-check is an explicit test, so it also runs under -O
    bruteforce = csmod.cli.csm_bruteforce
    monkeypatch.setattr("csmod.cli.csm_bruteforce",
                        lambda gamma, q: (bruteforce(gamma, q)[0], 7))
    code = main(["sigma", "--order", "hurwitz", "--", "-2+i"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "'-2+i'" in captured.err
    assert "reduced generator -2+i" in captured.err
    assert "index 7 by intersection but 5 by the formula" in captured.err


@pytest.mark.parametrize("order, rotation", [
    ("hurwitz", "2+i"), ("hurwitz", "1,0,0; 0,3/5,-4/5; 0,4/5,3/5"),
    ("hurwitz", "1/2+1/2*i+1/2*j+1/2*k"), ("icosian", "1+w*i+j"),
    ("octahedral", "1+w*i"), ("lipschitz-q", "3+i+k")])
def test_sigma_reduces_the_generator_once(capsys, monkeypatch, order,
                                          rotation):
    calls = []
    reduce = csmod.orders.QuatOrder.reduce_generator

    def counted(self, q):
        calls.append(q)
        return reduce(self, q)

    monkeypatch.setattr(csmod.orders.QuatOrder, "reduce_generator", counted)
    assert main(["sigma", "--order", order, rotation]) == 0
    capsys.readouterr()
    assert len(calls) == 1


ICO_MATRIX = ("5/11-4/11*w,-2/11+6/11*w,-2/11+6/11*w; -2/11+6/11*w,"
              "3/11+2/11*w,-8/11+2/11*w; 2/11-6/11*w,8/11-2/11*w,"
              "-3/11-2/11*w")
OCT_MATRIX = "1/2,1/2*w,1/2; 1/2*w,0,-1/2*w; -1/2,1/2*w,-1/2"


# every branch of the reduction, on every order family: unit content,
# content > 1, den > 1 inside and outside the order, scalars, the even
# norm that only the Hurwitz order strips, and matrices; the generators
# and indices as the CLI printed them before the reduction became one
# order method
@pytest.mark.parametrize("order, rotation, generator, sigma", [
    ("hurwitz", "2+i", "2+i", 5),
    ("hurwitz", "3+i+k", "3+i+k", 11),
    ("hurwitz", "2+2*i", "1", 1),
    ("hurwitz", "2/3+1/3*i", "2+i", 5),
    ("hurwitz", "1/2+1/2*i+1/2*j+1/2*k", "1/2+1/2*i+1/2*j+1/2*k", 1),
    ("hurwitz", "2", "1", 1),
    ("hurwitz", "1+i", "1", 1),
    ("hurwitz", "1,0,0; 0,3/5,-4/5; 0,4/5,3/5", "2+i", 5),
    ("lipschitz-q", "2+2*i", "1+i", 1),
    ("lipschitz-q", "2/3+1/3*i", "2+i", 5),
    ("lipschitz-q", "1/2+1/2*i+1/2*j+1/2*k", "1+i+j+k", 1),
    ("lipschitz-q", "2", "1", 1),
    ("lipschitz-q", "1+i", "1+i", 1),
    ("lipschitz-q", "1,0,0; 0,3/5,-4/5; 0,4/5,3/5", "2+i", 5),
    ("icosian", "1+w*i+j", "1+w*i+j", 11),
    ("icosian", "2+2*w*i", "1+w*i", 5),
    ("icosian", "1/3+1/3*w*i", "1+w*i", 5),
    ("icosian", "1/2+1/2*i+1/2*j+1/2*k", "1/2+1/2*i+1/2*j+1/2*k", 1),
    ("icosian", "2", "1", 1),
    ("icosian", "w", "w", 1),
    ("icosian", ICO_MATRIX, "2-w+(2-w)*i+(-1+w)*j", 11),
    ("lipschitz-r5", "2+2*w*i", "1+w*i", 5),
    ("lipschitz-r5", "1/2+1/2*i+1/2*j+1/2*k", "1+i+j+k", 1),
    ("lipschitz-r5", "w", "w", 1),
    ("lipschitz-r5", ICO_MATRIX, "2-w+(2-w)*i+(-1+w)*j", 11),
    ("octahedral", "1+w*i", "1+w*i", 9),
    ("octahedral", "w+w*i", "1/2*w+1/2*w*i", 1),
    ("octahedral", "1/3*w+2/3*i", "-1+w+(2-w)*i", 9),
    ("octahedral", "1/2+1/2*i+1/2*j+1/2*k", "1/2+1/2*i+1/2*j+1/2*k", 1),
    ("octahedral", "2", "1", 1),
    ("octahedral", "w", "-1+w", 1),
    ("octahedral", OCT_MATRIX, "1-1/2*w+(-1+w)*i+(1-1/2*w)*j", 4),
    ("lipschitz-r2", "w+w*i", "-1+w+(-1+w)*i", 1),
    ("lipschitz-r2", "1/3*w+2/3*i", "-1+w+(2-w)*i", 9),
    ("lipschitz-r2", "1/2+1/2*i+1/2*j+1/2*k", "1+i+j+k", 1),
    ("lipschitz-r2", "w", "-1+w", 1),
    ("lipschitz-r2", OCT_MATRIX, "1+w*i+j", 4)])
def test_sigma_pins_the_reduced_generator(capsys, order, rotation, generator,
                                          sigma):
    code, out = run(capsys, "sigma", "--order", order, "--format", "json",
                    "--", rotation)
    payload = json.loads(out)
    assert code == 0
    assert (payload["reduced_generator"], payload["sigma"]) == (generator,
                                                                sigma)


def test_sigma_of_zero_names_the_rotation(capsys):
    assert main(["sigma", "--order", "hurwitz", "0"]) == 3
    assert capsys.readouterr().err == (
        "error: the zero quaternion defines no rotation\n")


# argparse would take a rotation that starts with "-" for an option
LEADING_MINUS = [("-1/2+(3/2)*i", 5), ("-1,0,0; 0,-1,0; 0,0,1", 1),
                 ("-1,0,0;0,-1,0;0,0,1", 1), ("-i+2*j", 5)]


@pytest.mark.parametrize("rotation, sigma", LEADING_MINUS)
def test_sigma_leading_minus_needs_no_separator(capsys, rotation, sigma):
    want = run(capsys, "sigma", "--order", "hurwitz", "--format", "json",
               "--", rotation)
    assert want[0] == 0
    assert json.loads(want[1])["sigma"] == sigma
    for argv in (["--order", "hurwitz", "--format", "json", rotation],
                 [rotation, "--order", "hurwitz", "--format", "json"],
                 ["--format=json", rotation, "--order=hurwitz"]):
        assert run(capsys, "sigma", *argv) == want


def test_sigma_options_still_parse(capsys):
    assert main(["sigma", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: csmod sigma")
    assert main(["sigma", "--order", "cubic", "-1"]) == 2
    assert "invalid choice: 'cubic'" in capsys.readouterr().err
    assert main(["sigma", "--order", "hurwitz"]) == 2
    assert "required: rotation" in capsys.readouterr().err
    assert main(["sigma", "-1", "-2"]) == 2
    assert "unrecognized arguments: -2" in capsys.readouterr().err


def test_no_assert_statements_in_package():
    paths = sorted(pathlib.Path(csmod.__file__).parent.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def imported_names(tree):
    """(name, line) for every name an import statement binds; compiler
    directives (from __future__) bind none."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and node.module == "__future__"):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name.split(".")[0], node.lineno


def used_names(tree):
    """Names read anywhere in the module, plus the strings in __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant)
                     and isinstance(elt.value, str)}
    return used


def test_no_unused_imports_in_package():
    paths = sorted(pathlib.Path(csmod.__file__).parent.glob("*.py"))
    assert paths
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = used_names(tree)
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported_names(tree)
                   if name not in used]
    assert unused == []


# -- count ---------------------------------------------------------------


def test_count_hurwitz_range(capsys):
    code, payload = run_json(capsys, "count", "--order", "hurwitz", "1..15")
    assert code == 0
    counts = [row["count"] for row in payload["rows"]]
    assert counts == [1, 0, 4, 0, 6, 0, 8, 0, 12, 0, 12, 0, 14, 0, 24]
    assert payload["all_match"] is True


def test_count_single_values(capsys):
    code, payload = run_json(capsys, "count", "--order", "octahedral", "2")
    assert code == 0
    assert payload["rows"] == [
        {"m": 2, "count": 3, "matches_series": True}]
    code, payload = run_json(capsys, "count", "--order", "icosian", "1")
    assert code == 0
    assert payload["rows"][0]["count"] == 1


def test_count_deterministic_across_workers(capsys):
    outs = []
    for workers in ("1", "3"):
        code, out = run(capsys, "count", "--order", "hurwitz", "1..9",
                        "--workers", workers, "--format", "csv")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


class _SerialPool:
    """A stand-in for multiprocessing.Pool that records the size asked
    for and maps in this process."""

    sizes = []

    def __init__(self, size):
        self.sizes.append(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, tasks):
        return [func(task) for task in tasks]


@pytest.mark.parametrize("workers, indices, cpus, size", [
    ("5000", "1..5", 2, 2),        # the CPUs bound the pool
    ("5000", "1..5", None, 1),     # one worker when the count is unknown
    ("5000", "1..3", 8, 3),        # no more workers than indices
    ("2", "1..5", 8, 2),           # nor more than asked for
])
def test_count_workers_pool_is_capped(capsys, monkeypatch, workers, indices,
                                      cpus, size):
    import multiprocessing
    monkeypatch.setattr(multiprocessing, "Pool", _SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    argv = ("count", "--order", "hurwitz", indices, "--format", "csv")
    code, out = run(capsys, *argv, "--workers", workers)
    assert (code, _SerialPool.sizes) == (0, [size])
    assert out == run(capsys, *argv)[1]


def test_count_error_codes(capsys):
    assert main(["count", "--order", "lipschitz-q", "3"]) == 3
    capsys.readouterr()
    assert main(["count", "--order", "hurwitz", "25", "--cap", "10"]) == 4
    capsys.readouterr()
    assert main(["count", "--order", "hurwitz", "nope"]) == 2
    capsys.readouterr()
    assert main(["count", "--order", "hurwitz", "9..3"]) == 2
    capsys.readouterr()
    assert main(["count", "--order", "hurwitz", "0"]) == 2
    capsys.readouterr()
    assert main(["count", "--order", "hurwitz", "3", "--workers", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, code, err", [
    (("hurwitz", "1..7", "--cap", "5"), 4,
     "norm 6 exceeds the enumeration cap 5"),
    (("hurwitz", "8..20", "--cap", "5"), 4,
     "norm 8 exceeds the enumeration cap 5"),
    (("icosian", "9999..10002"), 4,
     "norm 10001 exceeds the enumeration cap 10000"),
    (("lipschitz-q", "1..20000"), 3,
     "enumeration by reduced norm needs a maximal order"),
    (("lipschitz-r5", "20000..20001"), 4,
     "norm 20000 exceeds the enumeration cap 10000"),
    (("hurwitz", "1000001", "--cap", "2000000"), 4,
     "series length 1000001 exceeds the cap 1000000"),
    (("octahedral", "1..5", "--cap", "5"), 0, ""),
])
def test_count_refuses_its_range_before_counting(capsys, monkeypatch, argv,
                                                 code, err):
    # the first m the enumeration refuses is named, and nothing is counted;
    # a range it takes is counted, here as its counting series says
    calls = []
    monkeypatch.setattr("csmod.cli.count_csms", lambda order, m, cap:
                        calls.append(m) or coefficient(
                            CASE_OF_FIELD[order.field_tag], m))
    assert main(["count", "--order", *argv]) == code
    out, errtext = capsys.readouterr()
    assert errtext == (f"error: {err}\n" if err else "")
    if code:
        assert out == "" and calls == []
    else:
        assert calls == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_count_mismatch_exits_1(capsys, monkeypatch, fmt):
    # the table keeps its mismatched rows, and stderr names the first one
    count_csms = csmod.cli.count_csms
    monkeypatch.setattr("csmod.cli.count_csms", lambda order, m, cap:
                        count_csms(order, m, cap) + (m in (5, 7)))
    assert main(["count", "--order", "hurwitz", "1..7", "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert err == ("error: hurwitz, m = 5: 7 distinct CSMs, the counting "
                   "series says 6\n")
    if fmt == "json":
        payload = json.loads(out)
        assert payload["rows"][4] == {"m": 5, "count": 7,
                                      "matches_series": False}
        assert payload["all_match"] is False
    else:
        assert out.splitlines()[5:] == ["     5        7  MISMATCH",
                                        "     6        0  ok",
                                        "     7        9  MISMATCH"]


# -- series --------------------------------------------------------------


def test_series_cub_table(capsys):
    code, payload = run_json(capsys, "series", "--case", "cub",
                             "--max", "19")
    assert code == 0
    rows = payload["rows"]
    assert rows[2] == {"m": 3, "f": 4, "F": 5, "ratio": "10/9"}
    assert rows[18]["F"] == 119
    assert rows[18]["ratio"] == "238/361"


def test_series_ico_matches_printed_sum(capsys):
    code, payload = run_json(capsys, "series", "--case", "ico",
                             "--max", "29")
    assert code == 0
    assert payload["rows"][28]["F"] == 226
    nonzero = {r["m"]: r["f"] for r in payload["rows"] if r["f"]}
    assert nonzero == {1: 1, 4: 5, 5: 6, 9: 10, 11: 24, 16: 20,
                       19: 40, 20: 30, 25: 30, 29: 60}


def test_series_csv_columns(capsys):
    code, out = run(capsys, "series", "--case", "oct", "--max", "4",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].strip() == "m,f,F,ratio"
    assert len(lines) == 5


def test_series_error_codes(capsys):
    assert main(["series", "--case", "cub"]) == 2
    capsys.readouterr()
    assert main(["series", "--case", "cub", "--max", "50",
                 "--cap", "10"]) == 4
    # the table is made before the first row is written
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
@settings(max_examples=300, deadline=None)
def test_ratio_text_matches_fraction(n, d):
    assert _ratio_text(n, d) == str(Fraction(n, d))


def series_reference(case, M, fmt):
    """csmod series output as a table of row dicts prints it."""
    density = residue_rho(case)
    running, table = 0, []
    for m, f in enumerate(phi_coefficients(case, M).values, 1):
        running += f
        table.append({"m": m, "f": f, "F": running,
                      "ratio": str(Fraction(2 * running, m * m))})
    if fmt == "json":
        payload = {"command": "series", "case": case, "max": M,
                   "density": density, "rows": table}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        csv.writer(out).writerows(
            [("m", "f", "F", "ratio")]
            + [(r["m"], r["f"], r["F"], r["ratio"]) for r in table])
        return out.getvalue()
    lines = [f"{'m':>6} {'f(m)':>8} {'F(m)':>10}  F(m)/(m^2/2)"]
    lines += [f"{r['m']:>6} {r['f']:>8} {r['F']:>10}  {r['ratio']}"
              for r in table]
    lines.append(f"asymptotic density: {density:.6f}")
    return "\n".join(lines) + "\n"


# both edges of the 10,000-row blocks the table is written in
@pytest.mark.parametrize("M", [1, 2, 9_999, 10_000, 10_001, 20_000])
@pytest.mark.parametrize("case", PHI_CASES)
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_series_output_matches_row_dict_rendering(capsys, fmt, case, M):
    code, out = run(capsys, "series", "--case", case, "--max", str(M),
                    "--format", fmt)
    assert code == 0
    assert out == series_reference(case, M, fmt)


def test_json_text_series_payload(capsys):
    code, out = run(capsys, "series", "--case", "ico", "--max", "300",
                    "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


class CharCounter:
    """A text sink that keeps only the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.slow
def test_series_streams_its_rows():
    # the JSON text of 200,000 rows is about 21.8 MB; a table of row
    # dicts and one string of the whole document peaked at 157 MB
    sink = CharCounter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["series", "--case", "cub", "--max", "200000",
                         "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.size > 20_000_000
    assert peak < 15_000_000


# -- spectrum ------------------------------------------------------------


def test_spectrum_examples(capsys):
    code, payload = run_json(capsys, "spectrum", "--case", "oct", "7")
    assert code == 0
    assert payload["member"] is True
    assert payload["witness"] == [3, 1]
    code, out = run(capsys, "spectrum", "--case", "oct", "7")
    assert "yes, (k,l) = (3, 1)" in out

    code, payload = run_json(capsys, "spectrum", "--case", "ico", "3")
    assert code == 0
    assert payload["member"] is False
    assert payload["witness"] is None

    code, payload = run_json(capsys, "spectrum", "--case", "cub", "9")
    assert payload["witness"] == [9, 0]


@pytest.mark.parametrize("case, m, member", [("ico", "11", "true"),
                                             ("cub", "4", "false")])
def test_spectrum_csv_writes_member_as_a_json_literal(capsys, case, m,
                                                      member):
    # as count and verify write their bool cells
    code, out = run(capsys, "spectrum", "--case", case, m, "--format", "csv")
    assert code == 0
    assert ["member", member] in list(csv.reader(io.StringIO(out)))


def test_spectrum_rejects_zero(capsys):
    assert main(["spectrum", "--case", "cub", "0"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name, answer, m, member, witness", [
    ("spectrum_member", False, "11", False, (3, 1)),    # a witness, no member
    ("spectrum_witness", None, "11", True, None),       # a member, no witness
], ids=["no-member", "no-witness"])
def test_spectrum_disagreement_exits_1(capsys, monkeypatch, fmt, name,
                                       answer, m, member, witness):
    # the prime criterion and the norm-form search are checked against
    # each other, in every format
    monkeypatch.setattr(f"csmod.cli.{name}", lambda order, m: answer)
    code = main(["spectrum", "--case", "ico", m, "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        f"error: case ico, m = {m}: member {member} by the prime criterion "
        f"but witness {witness} by the norm-form search\n")


@pytest.mark.parametrize("case", ["ico", "oct"])
def test_spectrum_refuses_an_index_past_its_cap(capsys, case):
    # the scans run to sqrt(m): a 30-digit index is refused before either
    m = "1" + "0" * 29
    started = time.perf_counter()
    assert main(["spectrum", "--case", case, m]) == 4
    assert time.perf_counter() - started < 1
    assert capsys.readouterr() == (
        "", f"error: index {m} exceeds the spectrum cap {SPECTRUM_CAP}\n")
    # the cubic answer is the parity of m, with no scan and no cap
    assert main(["spectrum", "--case", "cub", m]) == 0
    assert capsys.readouterr().out == "no\n"


# -- verify --------------------------------------------------------------


def test_verify_zeta(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "zeta")
    assert code == 0
    assert payload["pass"] is True
    assert payload["rows"][0]["checks"] == 3


def test_verify_cubic_index_seeded(capsys):
    outs = []
    for _ in range(2):
        code, out = run(capsys, "verify", "--suite", "cubic-index",
                        "--n", "6", "--seed", "11", "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["rows"][0] == {"suite": "cubic-index", "checks": 6,
                                  "failures": 0, "pass": True}


def test_verify_ideal_correspondence(capsys):
    code, payload = run_json(capsys, "verify", "--suite",
                             "ideal-correspondence", "--n", "3")
    assert code == 0
    assert payload["pass"] is True
    assert payload["rows"][0]["failures"] == 0


def test_verify_rejects_bad_n(capsys):
    assert main(["verify", "--suite", "zeta", "--n", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("suite", ["ideal-correspondence", "all"])
def test_verify_refuses_n_past_the_cap_before_any_suite(capsys, monkeypatch,
                                                         suite):
    calls = []
    monkeypatch.setattr(csmod.orders.QuatOrder, "enumerate_by_index",
                        lambda order, m, cap=None: calls.append(m) or [])
    monkeypatch.setattr("csmod.cli.zeta_identity_check",
                        lambda case, m: calls.append(case) or True)
    assert main(["verify", "--suite", suite, "--n", "10001"]) == 4
    assert capsys.readouterr() == (
        "", "error: norm 10001 exceeds the enumeration cap 10000\n")
    assert calls == []


@pytest.mark.parametrize("n, code", [(10001, 4), (10000, 0)])
def test_verify_caps_the_cubic_index_suite(capsys, monkeypatch, n, code):
    # an n past the cap is refused before any check; at the cap the
    # suite runs, here on stand-ins for its two indices
    calls = []
    monkeypatch.setattr("csmod.cli.sigma_index",
                        lambda order, q: calls.append(q) or 1)
    monkeypatch.setattr("csmod.cli.csm_bruteforce", lambda g, q: (None, 1))
    assert main(["verify", "--suite", "cubic-index", "--n", str(n)]) == code
    out, err = capsys.readouterr()
    if code:
        assert (out, err) == ("", "error: suite cubic-index: --n 10001 "
                                  "exceeds the cap 10000\n")
        assert calls == []
    else:
        assert out == "suite cubic-index: pass (10000 checks, 0 failures)\n"
        assert len(calls) == n


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_names_the_witness_of_a_failing_correspondence(
        capsys, monkeypatch, fmt):
    # one identity patched to fail on the icosian generators of norm 4
    def check(order, q):
        report = verify_ideal_correspondence(order, q)
        if order.name == "icosian" and report.norm_value == 4:
            return report._replace(order_index_matches=False)
        return report
    monkeypatch.setattr("csmod.cli.verify_ideal_correspondence", check)
    code = main(["verify", "--suite", "ideal-correspondence", "--n", "4",
                 "--format", fmt])
    out, err = capsys.readouterr()
    assert code == 1
    generators = icosian().enumerate_by_index(4)
    assert err == (f"error: suite ideal-correspondence: icosian, m = 4, "
                   f"generator {format_quat(generators[0])}: "
                   f"order_index_matches false\n")
    failures = len(generators)
    if fmt == "json":
        assert json.loads(out)["rows"][0]["failures"] == failures
        assert json.loads(out)["pass"] is False
    else:
        assert out.endswith(f"FAIL (21 checks, {failures} failures)\n")


def test_verify_names_the_witness_of_a_failing_cubic_index(capsys,
                                                           monkeypatch):
    # the second fcc intersection is patched to miss the formula by one
    fcc, seen = standard_module("fcc"), []

    def brute(gamma, q):
        common, index = csm_bruteforce(gamma, q)
        if gamma is fcc:
            seen.append((q, index))
            if len(seen) == 2:
                return common, index + 1
        return common, index
    monkeypatch.setattr("csmod.cli.csm_bruteforce", brute)
    code = main(["verify", "--suite", "cubic-index", "--n", "5",
                 "--seed", "3"])
    assert code == 1
    q, index = seen[1]
    assert capsys.readouterr() == (
        "suite cubic-index: FAIL (5 checks, 1 failures)\n",
        f"error: suite cubic-index: generator {format_quat(q)} on fcc: "
        f"index {index + 1} by intersection, {index} by the formula\n")


def test_verify_names_the_witness_of_each_failing_suite(capsys,
                                                        monkeypatch):
    monkeypatch.setattr("csmod.cli.zeta_identity_check",
                        lambda case, m: case == "cub")
    monkeypatch.setattr("csmod.cli.sigma_index", lambda order, q: 2)
    monkeypatch.setattr("csmod.cli.csm_bruteforce", lambda g, q: (None, 1))
    code = main(["verify", "--suite", "all", "--n", "2", "--format", "csv"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out.splitlines()[1:] == [
        "ideal-correspondence,6,0,true", "cubic-index,2,2,false",
        "zeta,3,2,false"]
    lines = err.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"error: suite cubic-index: generator \S+ on "
                        r"cubic: index 1 by intersection, 2 by the formula",
                        lines[0])
    assert lines[1] == ("error: suite zeta: case ico, M = 2: the zeta "
                        "identity fails")


# -- JSON output -----------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("sigma", "--order", "hurwitz", "1"),               # axis null
    ("sigma", "--order", "hurwitz", "\uff11+i"),        # echoed escaped
    ("sigma", "--order", "octahedral", "1/2,1/2*w,1/2; 1/2*w,0,-1/2*w; "
                                       "-1/2,1/2*w,-1/2"),
    ("count", "--order", "icosian", "1..4"),
    ("verify", "--suite", "zeta", "--n", "30"),
    ("spectrum", "--case", "ico", "3"),                 # witness null
    ("spectrum", "--case", "oct", "7"),
    ("intersect", "mb", "mf"),
])
def test_json_output_is_json_dumps_with_indent_2(capsys, argv):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    if "\uff11+i" in argv:
        assert '"rotation": "\\uff11+i",' in out
    if argv[0] == "sigma" and argv[-1] == "1":
        assert '"axis": null,' in out


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example({"a": [], "b": {}, "c": [[], {}], "d": [True, False, None, -7]})
def test_json_layout_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


# -- intersect -----------------------------------------------------------


def test_intersect_cubic_chain(capsys):
    code, payload = run_json(capsys, "intersect", "bcc", "fcc")
    assert code == 0
    assert payload["index_in_first"]["absolute"] == 4
    assert payload["index_in_second"]["absolute"] == 1
    assert len(payload["basis"]) == 3


def test_intersect_icosahedral_pair(capsys):
    code, payload = run_json(capsys, "intersect", "mb", "mf")
    assert code == 0
    assert payload["index_in_first"]["absolute"] == 4
    assert payload["index_in_second"]["absolute"] == 1


def test_intersect_mixed_fields_rejected(capsys):
    assert main(["intersect", "cubic", "mb"]) == 3
    capsys.readouterr()


def test_intersect_unknown_key_is_usage_error(capsys):
    assert main(["intersect", "bcc", "hexagonal"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: csmod intersect")
    assert "invalid choice: 'hexagonal'" in captured.err


def test_help_returns_zero(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: csmod")
    assert main(["count", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: csmod count")


def test_parser_is_built_once(capsys):
    assert _build_parser() is _build_parser()
    assert main(["intersect", "bcc", "hexagonal"]) == 2
    assert run(capsys, "spectrum", "--case", "oct", "7")[0] == 0


# -- config file ---------------------------------------------------------


def test_config_file_sets_defaults(tmp_path, capsys):
    path = tmp_path / "csmod.conf"
    path.write_text("# comment\norder=octahedral\nformat=json\n")
    code, out = run(capsys, "count", "2", "--config", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == "octahedral"
    assert payload["rows"][0]["count"] == 3


def test_config_flag_overrides_file(tmp_path, capsys):
    path = tmp_path / "csmod.conf"
    path.write_text("order=octahedral\n")
    code, payload = run_json(capsys, "count", "3", "--config", str(path),
                             "--order", "hurwitz")
    assert code == 0
    assert payload["order"] == "hurwitz"
    assert payload["rows"][0]["count"] == 4


def test_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("colour=blue\n")
    assert main(["count", "3", "--config", str(bad)]) == 2
    capsys.readouterr()
    assert main(["count", "3", "--config", str(tmp_path / "nope.conf")]) == 2
    capsys.readouterr()
    worse = tmp_path / "worse.conf"
    worse.write_text("workers=zero\n")
    assert main(["count", "3", "--config", str(worse)]) == 2
    capsys.readouterr()
    fmt = tmp_path / "fmt.conf"
    fmt.write_text("format=yaml\n")
    assert main(["count", "3", "--config", str(fmt)]) == 2
    capsys.readouterr()
    raw = tmp_path / "raw.conf"
    raw.write_bytes(b"\xff\xfe")
    assert main(["count", "--order", "hurwitz", "1", "--config", str(raw)]) == 2
    assert "cannot read config" in capsys.readouterr().err
    # series has no --order flag, and still checks the file's order
    nowhere = tmp_path / "nowhere.conf"
    nowhere.write_text("order=nowhere\n")
    assert main(["series", "--max", "10", "--config", str(nowhere)]) == 2
    assert capsys.readouterr().err.startswith("error: order must be one of")


# Parsers are total: any text over this alphabet parses or raises
# ParseInputError, and so does a config file of any bytes.  Only a
# well-formed 3x3 matrix may be refused with DomainError, when it is not a
# rotation.
PARSE_ALPHABET = "0123456789+-*/()wijk .;,eE_"


def _parses_as_matrix(text, tag):
    rows = [row.split(",") for row in text.split(";")]
    if len(rows) != 3 or any(len(row) != 3 for row in rows):
        return False
    for row in rows:
        for entry in row:
            parse_field_elem(entry.strip(), tag)
    return True


@settings(max_examples=400, deadline=None)
@given(st.text(PARSE_ALPHABET, max_size=40), st.sampled_from(list(FieldTag)),
       st.binary(max_size=64))
@example("1,0,0;0,1,0;0,0,1", FieldTag.RATIONAL, b"\xff\xfe")
@example("1,1,0;0,1,0;0,0,1", FieldTag.ROOT_TWO, b"order=hurwitz\n\x00=1\n")
@example("(1+w)*i-(2", FieldTag.ROOT_FIVE, b"cap=3\r\nseed=\xc3\xa9")
@example("1e5", FieldTag.RATIONAL, b"")
@example("1_0/3_3*w", FieldTag.ROOT_FIVE, b"=")
def test_parsers_are_total(tmp_path_factory, text, tag, raw):
    for parse in (parse_field_elem, parse_quat):
        try:
            parse(text, tag)
        except ParseInputError:
            pass
    try:
        _parse_rotation(text, tag)
    except ParseInputError:
        pass
    except DomainError:
        assert _parses_as_matrix(text, tag)
    path = tmp_path_factory.getbasetemp() / "totality.conf"
    path.write_bytes(raw)
    try:
        loaded = _load_config(str(path))
    except ParseInputError:
        return
    assert set(loaded) <= set(_DEFAULTS)


# The character-loop parser that the term pattern of csmod.rings replaced,
# kept here as the reference: it splits the text into top-level terms one
# character at a time, then reads each term's factors.


def _split_terms(text):
    """Split on top-level + and - (keeping signs), honouring parentheses."""
    terms = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseInputError(f"unbalanced parentheses in {text!r}")
        if ch in "+-" and depth == 0 and cur and cur[-1] not in "+-*/(":
            terms.append(cur)
            cur = ch
            continue
        cur += ch
    if depth:
        raise ParseInputError(f"unbalanced parentheses in {text!r}")
    if cur:
        terms.append(cur)
    return terms


# what CPython 3.11's Fraction reads, less exponents: n, n/d, decimals (".5"
# and "1." too), "_" between digits, whitespace around, any Unicode digit
_RATIONAL_LITERAL = re.compile(r"\s*([-+]?)(?=\d|\.\d)((?:\d+(?:_\d+)*)?)"
                               r"(?:/(\d+(?:_\d+)*)|(?:\.(\d+(?:_\d+)*)?)?)\s*")


def _parse_rational(text):
    """(n, d) with d > 0 and n/d the value of a rational literal."""
    if "e" in text or "E" in text:
        raise ParseInputError(f"exponent literals are not accepted: {text!r}")
    m = _RATIONAL_LITERAL.fullmatch(text)
    if m:
        sign, num, den, dec = m.groups()
        dec = (dec or "").replace("_", "")
        try:    # int() refuses more digits than sys.get_int_max_str_digits()
            n = int(num or "0") * 10 ** len(dec) + int(dec or "0")
            d = int(den or "1") * 10 ** len(dec)
        except ValueError:
            d = 0
        if d:
            return (-n if sign == "-" else n), d
    raise ParseInputError(f"bad rational literal {text!r}")


def _signed_terms(text, stripped):
    """(sign, term) for each top-level term of stripped, the text
    without spaces, with the term's leading signs folded into sign."""
    for term in _split_terms(stripped):
        body = term.lstrip("+-")
        if not body:
            raise ParseInputError(f"dangling sign in {text!r}")
        yield (-1) ** term.count("-", 0, len(term) - len(body)), body


def loop_parse_numerators(text, tag):
    """(a, b, den), not in lowest terms, as _parse_numerators gives it."""
    stripped = text.replace(" ", "")
    if not stripped:
        raise ParseInputError("empty ring element")
    a, b, den = 0, 0, 1
    for sign, term in _signed_terms(text, stripped):
        factors = term.split("*")
        has_w = "w" in factors
        numeric = [f for f in factors if f != "w"]
        if len(factors) - len(numeric) > 1 or len(numeric) > 1:
            raise ParseInputError(f"bad term {term!r} in {text!r}")
        n, d = _parse_rational(numeric[0]) if numeric else (1, 1)
        if has_w and tag.degree == 1:
            raise ParseInputError("'w' is not available over the rationals")
        n, den = sign * n * den, den * d
        a, b = (a * d, b * d + n) if has_w else (a * d + n, b * d)
    return a, b, den


def _strip_outer_parens(text):
    if not (text.startswith("(") and text.endswith(")")):
        return text
    depth = 0
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return text[1:-1] if pos == len(text) - 1 else text
    return text


LOOP_UNITS = {"i": 1, "j": 2, "k": 3}


def loop_parse_quat(text, tag):
    stripped = text.replace(" ", "")
    if not stripped:
        raise ParseInputError("empty quaternion")
    nums, den = [0] * 8, 1      # the coordinates' pairs (a, b) over den
    for sign, term in _signed_terms(text, stripped):
        if term in LOOP_UNITS:
            idx, (a, b, d) = LOOP_UNITS[term], (1, 0, 1)
        elif len(term) >= 3 and term[-2] == "*" and term[-1] in LOOP_UNITS:
            idx = LOOP_UNITS[term[-1]]
            a, b, d = loop_parse_numerators(_strip_outer_parens(term[:-2]),
                                            tag)
        else:
            idx, (a, b, d) = 0, loop_parse_numerators(term, tag)
        nums = [x * d for x in nums]
        nums[2 * idx] += sign * a * den
        nums[2 * idx + 1] += sign * b * den
        den *= d
    return Quat.ratio(tag, nums, den)


def loop_parse_rotation(text, tag):
    """cli._parse_rotation as it read a matrix: each entry to a field
    element, then a Mat3K, then rotation_to_quat."""
    if ";" not in text:
        return loop_parse_quat(text, tag)
    rows = [chunk.split(",") for chunk in text.split(";")]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ParseInputError("a rotation matrix needs 3 rows of 3 "
                              "entries, rows separated by ';'")
    entries = [[FieldElem.ratio(RingElem(tag, a, b), d) for a, b, d in
                (loop_parse_numerators(e.strip(), tag) for e in row)]
               for row in rows]
    return rotation_to_quat(Mat3K(tag, entries))


def _outcome(parse, text, tag):
    """What parse makes of text: its value, or the error and message."""
    try:
        return parse(text, tag)
    except (ParseInputError, DomainError) as exc:
        return f"{type(exc).__name__}: {exc}"


# texts made of these pieces: literals of every form the grammar has,
# exponents, w, units, operators, parentheses, spaces, Unicode digits and
# whitespace, and junk
PARSE_PIECES = ["0", "1", "7", "12", "1/2", "3/0", "4/6", ".5", "1.", "0.25",
                "1_0", "2__0", "_", "\u0663", "\u0661/\u0664", "\uff11",
                "1e3", "e", "E", "w", "*", "/", "+", "-", "--", "+-", "(",
                ")", " ", "\t", "\u3000", "\n", "i", "j", "k", ".", "x",
                "*w", "w*", "*i", ")*j"]
piece_texts = st.lists(st.sampled_from(PARSE_PIECES), max_size=12).map("".join)
matrix_texts = st.lists(piece_texts, min_size=9, max_size=9).map(
    lambda e: "; ".join(",".join(e[r:r + 3]) for r in (0, 3, 6)))


@settings(max_examples=600, deadline=None)
@given(st.one_of(piece_texts, matrix_texts, st.text(PARSE_ALPHABET + "\t",
                                                    max_size=30)),
       st.sampled_from(list(FieldTag)))
@example("w*-3+1/2", FieldTag.ROOT_FIVE)
@example("w*\t-3", FieldTag.ROOT_FIVE)
@example("w* -3", FieldTag.ROOT_TWO)
@example("3\t*w-\t2", FieldTag.ROOT_TWO)
@example("w\n", FieldTag.ROOT_TWO)
@example("1\n", FieldTag.RATIONAL)
@example("(1+w)*i-((2))*j+(w*-1)*k", FieldTag.ROOT_FIVE)
@example("()*i", FieldTag.RATIONAL)
@example("(1)(2)*i", FieldTag.RATIONAL)
@example("w+1)", FieldTag.RATIONAL)
@example("\uff11+i", FieldTag.RATIONAL)
@example("1" * 5000 + "/2*i", FieldTag.RATIONAL)
@example("1,0,0; 0,3/5,-4/5; 0,4/5,3/5", FieldTag.RATIONAL)
@example("1,0,0; 0,-1,0; 0,0,-1", FieldTag.ROOT_TWO)
@example("1/2,1/2*w,1/2; 1/2*w,0,-1/2*w; -1/2,1/2*w,-1/2", FieldTag.ROOT_TWO)
@example("1,1,0; 0,1,0; 0,0,1", FieldTag.ROOT_FIVE)
@example("1,0,0; 0,1,0; 0,0,1e3", FieldTag.RATIONAL)
def test_term_patterns_match_the_character_loop(text, tag):
    # the same numerators for a field element, the same quaternion, and
    # for a matrix the same quaternion; and the same errors and messages
    for new, old in ((_parse_numerators, loop_parse_numerators),
                     (parse_quat, loop_parse_quat),
                     (_parse_rotation, loop_parse_rotation)):
        assert _outcome(new, text, tag) == _outcome(old, text, tag)


# The parsers against the Fraction-based ones they replaced, kept here as
# the reference: equal values, or ParseInputError with equal messages.


def _old_parse_rational(text):
    if "e" in text or "E" in text:
        raise ParseInputError(f"exponent literals are not accepted: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseInputError(f"bad rational literal {text!r}") from exc


def old_parse_field_elem(text, tag):
    stripped = text.replace(" ", "")
    if not stripped:
        raise ParseInputError("empty ring element")
    a = b = Fraction(0)
    for sign, term in _signed_terms(text, stripped):
        factors = term.split("*")
        has_w = "w" in factors
        numeric = [f for f in factors if f != "w"]
        if len(factors) - len(numeric) > 1 or len(numeric) > 1:
            raise ParseInputError(f"bad term {term!r} in {text!r}")
        coeff = _old_parse_rational(numeric[0]) if numeric else Fraction(1)
        if has_w:
            if tag.degree == 1:
                raise ParseInputError("'w' is not available over the rationals")
            b += sign * coeff
        else:
            a += sign * coeff
    return FieldElem(tag, a, b)


def old_parse_quat(text, tag):
    stripped = text.replace(" ", "")
    if not stripped:
        raise ParseInputError("empty quaternion")
    coords = [FieldElem(tag, 0) for _ in range(4)]
    units = {"i": 1, "j": 2, "k": 3}
    for sign, term in _signed_terms(text, stripped):
        if term in units:
            idx, coeff = units[term], FieldElem(tag, 1)
        elif len(term) >= 3 and term[-2] == "*" and term[-1] in units:
            idx = units[term[-1]]
            coeff = old_parse_field_elem(_strip_outer_parens(term[:-2]), tag)
        else:
            idx, coeff = 0, old_parse_field_elem(term, tag)
        coords[idx] = coords[idx] + (-coeff if sign < 0 else coeff)
    return Quat(tag, *coords)


def _parse_outcome(parse, text, tag):
    try:
        return parse(text, tag)
    except ParseInputError as exc:
        return f"ParseInputError: {exc}"


@settings(max_examples=500, deadline=None)
@given(st.text(PARSE_ALPHABET + ".", max_size=40),
       st.sampled_from(list(FieldTag)))
@example(".5", FieldTag.RATIONAL)
@example("1.", FieldTag.RATIONAL)
@example("1/0", FieldTag.ROOT_TWO)
@example("1.d", FieldTag.ROOT_FIVE)
@example("0/7*w", FieldTag.ROOT_FIVE)
@example("1_0/3_3*w", FieldTag.ROOT_FIVE)
@example("-.5*w+1./2", FieldTag.ROOT_TWO)
@example("(1_0/3_3-.5*w)*i-1.*j+k", FieldTag.ROOT_FIVE)
@example("1_0.2_5*w", FieldTag.RATIONAL)
@example("w+1/2", FieldTag.ROOT_TWO)
@example("1/3*w-1/2+.5*w-2/7", FieldTag.ROOT_FIVE)
@example("(1/2*w+1/3)*i-1/5*j+1/7*k-2/9", FieldTag.ROOT_FIVE)
@example("1" * 5000, FieldTag.RATIONAL)     # past int()'s digit limit
@example("0." + "1" * 5000, FieldTag.RATIONAL)
@example("1" * 3000 + "." + "2" * 3000, FieldTag.ROOT_TWO)
def test_parsers_match_the_fraction_reference(text, tag):
    if "_" in text and sys.version_info < (3, 11):
        # Fraction reads "_" between digits from 3.11 on; the parser does
        # on every version (test_underscores_between_digits in test_rings)
        return
    for new, old in ((parse_field_elem, old_parse_field_elem),
                     (parse_quat, old_parse_quat)):
        assert _parse_outcome(new, text, tag) == _parse_outcome(old, text, tag)


# -- installed entry points ------------------------------------------------


def child_env():
    """The environment with the directory that holds csmod first on the
    child's import path, so the tests need no install."""
    src = str(pathlib.Path(csmod.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    path = src if not inherited else os.pathsep.join([src, inherited])
    return dict(os.environ, PYTHONPATH=path)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "csmod", "spectrum", "--case", "oct", "7"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0
    assert "(3, 1)" in proc.stdout


# a CLI run must not pay for these: dataclasses pulls in inspect, only
# count --workers N (N > 1) needs multiprocessing, csv only the CSV
# output of the commands other than series, and parsing and printing run
# on integers, without fractions (which imports decimal)
START_UP_PROBE = """
import sys
import csmod.cli
from csmod.orders import hurwitz, icosian, octahedral
hurwitz(); icosian(); octahedral()
codes = [csmod.cli.main(["count", "--order", "hurwitz", "3"]),
         csmod.cli.main(["sigma", "--order", "icosian", "--format", "json",
                         "--", "1+w*i+j"]),
         csmod.cli.main(["series", "--case", "oct", "--max", "100",
                         "--format", "csv"])]
print(*codes, sorted({"csv", "dataclasses", "decimal", "fractions",
                      "inspect", "multiprocessing"} & set(sys.modules)))
"""


def test_start_up_imports_no_dataclasses_inspect_or_multiprocessing():
    proc = subprocess.run([sys.executable, "-c", START_UP_PROBE],
                          capture_output=True, text=True, timeout=120,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 0 0 []"


# json loads only where JSON is written: not at start-up, and not for the
# orders or a text count; numbers only where a field element meets a
# rational that is not an int
JSON_PROBE = """
import sys
import csmod.cli
from csmod.orders import hurwitz, icosian, octahedral
hurwitz(); icosian(); octahedral()
loaded = "json" in sys.modules
code = csmod.cli.main(["count", "--order", "hurwitz", "3"])
print(code, loaded, "json" in sys.modules, "numbers" in sys.modules)
"""


def test_start_up_leaves_json_unloaded():
    proc = subprocess.run([sys.executable, "-c", JSON_PROBE],
                          capture_output=True, text=True, timeout=120,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False False False"


def test_module_entry_point_error_code():
    proc = subprocess.run(
        [sys.executable, "-m", "csmod", "count", "--order", "lipschitz-q",
         "3"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 3
    assert "maximal" in proc.stderr


def test_module_entry_point_closed_pipe_exits_141():
    # the reader takes one line and goes: the next block cannot be written
    with subprocess.Popen(
            [sys.executable, "-m", "csmod", "series", "--case", "cub",
             "--max", "300000"], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=child_env()) as proc:
        assert proc.stdout.readline().split() == [b"m", b"f(m)", b"F(m)",
                                                  b"F(m)/(m^2/2)"]
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert err == b""


def test_module_entry_point_usage_error_code():
    proc = subprocess.run(
        [sys.executable, "-m", "csmod", "intersect", "bcc", "hexagonal"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 2
    assert "invalid choice: 'hexagonal'" in proc.stderr


def test_module_entry_point_help_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "csmod", "--help"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: csmod")


@pytest.mark.parametrize("rotation, sigma", LEADING_MINUS[:2])
def test_module_entry_point_leading_minus(rotation, sigma):
    proc = subprocess.run(
        [sys.executable, "-m", "csmod", "sigma", "--order", "hurwitz",
         rotation], capture_output=True, text=True, timeout=120,
        env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert f"coincidence index:  {sigma}\n" in proc.stdout
