"""Byte-for-byte regression of CLI output against recorded golden files.

tests/data/sigma_golden.json holds `csmod sigma --format json` runs on
seeded rotations of all six orders (quaternion text, matrix text,
negative scalar parts, a few refusals), and sigma_text_golden.json and
sigma_csv_golden.json the same runs with `--format text` and `--format
csv`; tests/data/intersect_golden.json
holds `csmod intersect --format json` on every pair of standard modules.
Each entry records argv, exit code and stdout.  To re-record after an
intended output change, run

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import pathlib
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from csmod.cli import main
from csmod.csm import MODULE_KEYS
from csmod.orders import ORDER_KEYS, order_by_key
from csmod.quat import cayley_matrix, format_quat
from csmod.rings import RingElem

DATA = pathlib.Path(__file__).parent / "data"
SIGMA_GOLDEN = DATA / "sigma_golden.json"
SIGMA_TEXT_GOLDEN = DATA / "sigma_text_golden.json"
SIGMA_CSV_GOLDEN = DATA / "sigma_csv_golden.json"
INTERSECT_GOLDEN = DATA / "intersect_golden.json"

SIGMA_PER_ORDER = 20
SIGMA_SEED = 20061
# rotations that every order must refuse, and the identity
SIGMA_EXTRA = ("0", "1", "1,1,0; 0,1,0; 0,0,1")


def _run(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def _sigma_rotations(order, rng):
    """Seeded rotation texts for one order: random integer combinations of
    the order's Z-basis, every fourth given as its rotation matrix."""
    tag = order.field_tag
    omega = RingElem.omega(tag).to_field()
    zbasis = list(order.basis)
    if tag.degree == 2:
        zbasis += [b * omega for b in order.basis]
    texts = []
    while len(texts) < SIGMA_PER_ORDER:
        q = zbasis[0] * 0
        for b in zbasis:
            q = q + b * rng.randint(-3, 3)
        if q.is_zero():
            continue
        if len(texts) % 4 == 3:
            texts.append("; ".join(",".join(str(e) for e in row)
                                   for row in cayley_matrix(q)))
        else:
            texts.append(format_quat(q))
    return texts + list(SIGMA_EXTRA)


def sigma_argvs(fmt="json"):
    rng = random.Random(SIGMA_SEED)
    return [["sigma", "--order", key, "--format", fmt, "--", text]
            for key in ORDER_KEYS
            for text in _sigma_rotations(order_by_key(key), rng)]


def intersect_argvs():
    return [["intersect", a, b, "--format", "json"]
            for a in MODULE_KEYS for b in MODULE_KEYS]


def _record(argvs):
    entries = []
    for argv in argvs:
        code, out = _run(argv)
        entries.append({"argv": argv, "exit": code, "stdout": out})
    return entries


def _load(path):
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", [SIGMA_GOLDEN, SIGMA_TEXT_GOLDEN,
                                  SIGMA_CSV_GOLDEN, INTERSECT_GOLDEN],
                         ids=["sigma", "sigma-text", "sigma-csv",
                              "intersect"])
def test_cli_output_matches_golden(path):
    entries = _load(path)
    assert entries
    for entry in entries:
        code, out = _run(entry["argv"])
        assert (code, out) == (entry["exit"], entry["stdout"]), entry["argv"]


def test_sigma_golden_covers_the_orders_and_inputs():
    argvs = [e["argv"] for e in _load(SIGMA_GOLDEN)]
    assert {a[2] for a in argvs} == set(ORDER_KEYS)
    texts = [a[-1] for a in argvs]
    assert sum(";" in t for t in texts) >= 6 * SIGMA_PER_ORDER // 4
    assert sum(t.startswith("-") for t in texts) >= 6
    assert {e["exit"] for e in _load(SIGMA_GOLDEN)} == {0, 3}


def test_sigma_goldens_run_the_same_rotations_in_each_format():
    argvs = [e["argv"] for e in _load(SIGMA_GOLDEN)]
    for path, fmt in ((SIGMA_TEXT_GOLDEN, "text"), (SIGMA_CSV_GOLDEN, "csv")):
        assert [e["argv"] for e in _load(path)] == [
            a[:4] + [fmt] + a[5:] for a in argvs]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    DATA.mkdir(exist_ok=True)
    for path, argvs in ((SIGMA_GOLDEN, sigma_argvs()),
                        (SIGMA_TEXT_GOLDEN, sigma_argvs("text")),
                        (SIGMA_CSV_GOLDEN, sigma_argvs("csv")),
                        (INTERSECT_GOLDEN, intersect_argvs())):
        path.write_text(json.dumps(_record(argvs), indent=1) + "\n",
                        encoding="utf-8")
