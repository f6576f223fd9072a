"""Command-line front end.

Subcommands: sigma, count, series, spectrum, verify, intersect.  Output
is human text by default; --format json is the stable machine
interface, --format csv emits flat tables.  Exit codes: 0 success,
1 verification failure, 2 argument or input parse failure, 3 domain
error, 4 resource-cap refusal, 141 output pipe closed by its reader
(as for a process stopped by SIGPIPE; nothing is printed).
"""

import argparse
import os
import random
import re
import sys
from functools import lru_cache
from itertools import accumulate, islice
from math import gcd, lcm

from .csm import (MODULE_KEYS, count_csms, csm_bruteforce, gamma_of,
                  quat_of_rotation, sigma_index, spectrum_member,
                  spectrum_witness, standard_module,
                  verify_ideal_correspondence)
from .errors import CsmodError, ParseInputError, ResourceCapError
from .modlat import index_K, intersect
from .orders import (DEFAULT_ENUM_CAP, ORDER_KEYS, hurwitz, icosian,
                     octahedral, order_by_key)
from .quat import Quat, axis_angle, format_quat, parse_quat
from .rings import _parse_numerators
from .series import (CASE_OF_FIELD, PHI_CASES, phi_coefficients, residue_rho,
                     zeta_identity_check)

_FORMATS = ("text", "json", "csv")

# each setting's default: a command reads a setting from its flag, else
# from the config file, else from here
_DEFAULTS = {"order": "hurwitz", "case": "cub", "max": None, "cap": None,
             "format": "text", "seed": 0, "workers": 1}
# the integer settings and their least values (None: no bound)
_INTEGER_KEYS = {"max": 1, "cap": 1, "workers": 1, "seed": None}


def _integer(key, text, low):
    """The integer setting key read from text, at least low unless None."""
    try:
        value = int(text)
    except ValueError:
        raise ParseInputError(f"{key} needs an integer, got {text!r}")
    if low is not None and value < low:
        raise ParseInputError(f"{key} must be at least {low}")
    return value


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseInputError(f"cannot read config {path}: {exc}")
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or key not in _DEFAULTS:
            raise ParseInputError(
                f"{path}:{lineno}: expected key=value with key in "
                f"{tuple(_DEFAULTS)}")
        out[key] = value
    return out


def _settle(args) -> None:
    """Set every key of _DEFAULTS on args, the namespace of a command."""
    fromfile = _load_config(args.config) if args.config else {}
    for key, default in _DEFAULTS.items():
        value = getattr(args, key, None)
        if value is None:
            value = fromfile.get(key)
        if value is None:
            value = default
        elif key in _INTEGER_KEYS:
            value = _integer(key, value, _INTEGER_KEYS[key])
        setattr(args, key, value)
    for key, allowed in (("format", _FORMATS), ("order", ORDER_KEYS),
                         ("case", PHI_CASES)):
        if getattr(args, key) not in allowed:
            raise ParseInputError(f"{key} must be one of {allowed}")


# -- output -------------------------------------------------------------


def _json_text(value) -> str:
    """json.dumps(value, indent=2) for a str, int, finite float, bool or
    None, or a list or dict (str keys) of them: the same text, laid out
    here with the C string encoder, where indent= would select json's
    pure-Python encoder."""
    # json loads only where JSON is written
    from json.encoder import encode_basestring_ascii
    return _json_layout(value, "\n", encode_basestring_ascii)


def _json_layout(value, indent: str, text) -> str:
    """_json_text of value, with text the string encoder and indent the
    newline and indentation of value's line."""
    if isinstance(value, str):
        return text(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        parts, ends = [text(key) + ": " + (text(v) if v.__class__ is str
                                            else _json_layout(v, inner, text))
                       for key, v in value.items()], "{}"
    else:
        parts, ends = [text(v) if v.__class__ is str
                       else _json_layout(v, inner, text) for v in value], "[]"
    return (ends[0] + inner + ("," + inner).join(parts) + indent + ends[1]
            if parts else ends)


def _emit(args, payload: dict, text) -> None:
    """Write a command's result in args.format: the payload as JSON or
    CSV, else the lines of text.  CSV writes a payload's rows as a table
    under their keys, and any other payload as field/value pairs, with
    bool, list and dict cells as JSON."""
    if args.format == "json":
        print(_json_text(payload))
    elif args.format == "csv":
        import csv      # only CSV output needs it
        import json     # for its bool, list and dict cells
        rows = payload.get("rows") or [{"field": key, "value": value}
                                       for key, value in payload.items()
                                       if key != "command"]
        writer = csv.writer(sys.stdout)
        writer.writerow(rows[0])
        writer.writerows([json.dumps(v) if isinstance(v, (bool, list, dict))
                          else v for v in row.values()] for row in rows)
    else:
        for line in text:
            print(line)


# -- sigma --------------------------------------------------------------


def _parse_rotation(text: str, tag):
    if ";" in text:
        rows = [chunk.split(",") for chunk in text.split(";")]
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ParseInputError("a rotation matrix needs 3 rows of 3 "
                                  "entries, rows separated by ';'")
        # the entries' numerators over one common denominator
        entries = [_parse_numerators(e.strip(), tag) for row in rows
                   for e in row]
        den = lcm(*(d for *_, d in entries))
        return quat_of_rotation(tag, [x * (den // d) for a, b, d in entries
                                      for x in (a, b)], den)
    return parse_quat(text, tag)


def cmd_sigma(args) -> int:
    order = order_by_key(args.order)
    q = _parse_rotation(args.rotation, order.field_tag)
    q_star = order.reduce_generator(q)
    generator = format_quat(q_star)
    submodule, sigma = csm_bruteforce(gamma_of(order), q)
    if order.maximal:
        # the index formula, on the generator reduced above
        by_formula = q_star.nr().to_ring().norm_abs()
        if by_formula != sigma:
            print(f"error: rotation {args.rotation!r}, reduced generator "
                  f"{generator}: index {sigma} by intersection "
                  f"but {by_formula} by the formula", file=sys.stderr)
            return 1
    if q.is_scalar():
        axis, cos = None, "1"
    else:
        axis_vec, cos_elem = axis_angle(q)
        axis, cos = [str(e) for e in axis_vec], str(cos_elem)
    # each form only for its format: str(submodule) alone costs about 3 %
    # of a JSON sigma
    if args.format == "text":
        _emit(args, None, [
            f"order:              {order.name}",
            f"reduced generator:  {generator}",
            f"coincidence index:  {sigma}",
            f"axis:               {'(identity rotation)' if axis is None else '(' + ', '.join(axis) + ')'}",
            f"cos(angle):         {cos}",
            f"csm basis:          {submodule}",
        ])
        return 0
    _emit(args, {
        "command": "sigma",
        "order": order.name,
        "rotation": args.rotation,
        "reduced_generator": generator,
        "sigma": sigma,
        "axis": axis,
        "cos_angle": cos,
        "csm_basis": submodule.json_columns(),
    }, None)
    return 0


# -- count --------------------------------------------------------------


def _parse_index_range(text: str):
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            bounds = int(lo), int(hi)
        else:
            bounds = int(text), int(text)
    except ValueError:
        raise ParseInputError(f"expected an index or a..b range, got {text!r}")
    if bounds[0] < 1 or bounds[1] < bounds[0]:
        raise ParseInputError(f"bad index range {text!r}")
    return bounds


def _count_task(task):
    key, m, cap = task
    return m, count_csms(order_by_key(key), m, cap)


def cmd_count(args) -> int:
    order = order_by_key(args.order)
    lo, hi = _parse_index_range(args.indices)
    # the caps, and a non-maximal order, are refused before any count
    order.check_indices(lo, hi, args.cap)
    series = phi_coefficients(CASE_OF_FIELD[order.field_tag], hi)
    tasks = [(order.name, m, args.cap) for m in range(lo, hi + 1)]
    if args.workers > 1 and len(tasks) > 1:
        from multiprocessing import Pool    # a slow import: only here
        with Pool(min(args.workers, len(tasks), os.cpu_count() or 1)) as pool:
            counted = pool.map(_count_task, tasks)
    else:
        counted = [_count_task(task) for task in tasks]
    table = [{"m": m, "count": count,
              "matches_series": series.at(m) == count}
             for m, count in counted]
    payload = {
        "command": "count",
        "order": order.name,
        "range": [lo, hi],
        "rows": table,
        "all_match": all(r["matches_series"] for r in table),
    }
    text = [f"{'m':>6} {'count':>8}  series"]
    text += [f"{r['m']:>6} {r['count']:>8}  "
             f"{'ok' if r['matches_series'] else 'MISMATCH'}" for r in table]
    _emit(args, payload, text)
    for r in table:
        if not r["matches_series"]:
            print(f"error: {order.name}, m = {r['m']}: {r['count']} distinct "
                  f"CSMs, the counting series says {series.at(r['m'])}",
                  file=sys.stderr)
            return 1
    return 0


# -- series -------------------------------------------------------------


# csmod series writes its table this many rows at a time, so that it
# never holds more than one block of rows and their text
_SERIES_BLOCK = 10_000

# one row as json.dumps(payload, indent=2) lays it out
_SERIES_JSON_ROW = ('    {\n      "m": %d,\n      "f": %d,\n      "F": %d,\n'
                    '      "ratio": "%s"\n    }')


def _series_blocks(values):
    """The rows (m, f(m), F(m), F(m)/(m^2/2)), _SERIES_BLOCK at a time:
    F the running sum, the ratio in lowest terms as rings._ratio_text
    prints it.  A block is a zip over its columns, so that no row is a
    tuple of its own: one GC-tracked object per row sets off collections
    that, with large tables alive, cost as much as the formatting."""
    running = accumulate(values)
    for start in range(0, len(values), _SERIES_BLOCK):
        fs = values[start:start + _SERIES_BLOCK]
        ms = range(start + 1, start + 1 + len(fs))
        totals = list(islice(running, len(fs)))
        ratios = []
        for m, total in zip(ms, totals):
            n, d = 2 * total, m * m
            g = gcd(n, d)
            ratios.append(f"{n // g}/{d // g}" if d != g else str(n // g))
        yield zip(ms, fs, totals, ratios)


def cmd_series(args) -> int:
    if args.max is None:
        raise ParseInputError("series needs --max")
    # the whole table first: cap and domain errors come before any output
    values = phi_coefficients(args.case, args.max, args.cap).values
    density = residue_rho(args.case)
    # each format's head, row template, separator between rows, and tail
    if args.format == "json":
        head = _json_text({"command": "series", "case": args.case,
                           "max": args.max, "density": density})[:-2]
        head += ',\n  "rows": [\n'
        row, sep, tail = _SERIES_JSON_ROW, ",\n", "\n  ]\n}\n"
    elif args.format == "csv":
        # csv.writer's bytes: no cell, an int or an n/d ratio, is quoted
        head, row, sep, tail = "m,f,F,ratio\r\n", "%d,%d,%d,%s\r\n", "", ""
    else:
        head = f"{'m':>6} {'f(m)':>8} {'F(m)':>10}  F(m)/(m^2/2)\n"
        row, sep = "%6d %8d %10d  %s\n", ""
        tail = f"asymptotic density: {density:.6f}\n"
    # sys.stdout is read at each write: callers may redirect it
    sys.stdout.write(head)
    joint = ""
    for block in _series_blocks(values):
        sys.stdout.write(joint + sep.join(map(row.__mod__, block)))
        joint = sep
    sys.stdout.write(tail)
    return 0


# -- spectrum -----------------------------------------------------------


def cmd_spectrum(args) -> int:
    # the first maximal order over the case's field, in key order
    order = next(o for o in map(order_by_key, ORDER_KEYS)
                 if o.maximal and CASE_OF_FIELD[o.field_tag] == args.case)
    member = spectrum_member(order, args.index)
    witness = spectrum_witness(order, args.index)
    if member != (witness is not None):
        print(f"error: case {args.case}, m = {args.index}: member "
              f"{member} by the prime criterion but witness {witness} "
              f"by the norm-form search", file=sys.stderr)
        return 1
    payload = {
        "command": "spectrum",
        "case": args.case,
        "m": args.index,
        "member": member,
        "witness": list(witness) if witness else None,
    }
    if member:
        text = [f"yes, (k,l) = ({witness[0]}, {witness[1]})"]
    else:
        text = ["no"]
    _emit(args, payload, text)
    return 0


# -- verify -------------------------------------------------------------


# A suite yields, per check, None when it holds and else its witness:
# the text of the error line cmd_verify writes for the suite's first one.


def _suite_ideal_correspondence(n, seed):
    for factory in (hurwitz, icosian, octahedral):
        order = factory()
        for m in range(1, (n or 10) + 1):
            for q in order.enumerate_by_index(m):
                report = verify_ideal_correspondence(order, q).as_dict()
                yield next((f"{order.name}, m = {m}, generator "
                            f"{format_quat(q)}: {key} false"
                            for key, ok in report.items() if ok is False),
                           None)


def _suite_cubic_index(n, seed):
    wanted = n if n is not None else 100
    rng = random.Random(seed)
    order = hurwitz()
    lattices = [(k, standard_module(k)) for k in ("cubic", "fcc", "bcc")]
    den, rows = order.module.den, order.module.pairs
    while wanted:
        coeffs = [rng.randint(-4, 4) for _ in rows]
        num = [sum(c * x for c, x in zip(coeffs, col))
               for col in zip(*rows)]
        if not any(num):
            continue
        q = Quat.ratio(order.field_tag, num, den)
        sigma = sigma_index(order, q)
        if sigma > 99:
            continue
        wanted -= 1
        yield next((f"generator {format_quat(q)} on {key}: index {index} "
                    f"by intersection, {sigma} by the formula"
                    for key, g in lattices
                    if (index := csm_bruteforce(g, q)[1]) != sigma), None)


def _suite_zeta(n, seed):
    for case, default_m in (("cub", 100), ("ico", 50), ("oct", 50)):
        top = n if n is not None else default_m
        yield (None if zeta_identity_check(case, top)
               else f"case {case}, M = {top}: the zeta identity fails")


_SUITES = {
    "ideal-correspondence": _suite_ideal_correspondence,
    "cubic-index": _suite_cubic_index,
    "zeta": _suite_zeta,
}


def cmd_verify(args) -> int:
    if args.n is not None and args.n < 1:
        raise ParseInputError("--n must be at least 1")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    if "ideal-correspondence" in names:     # its caps, before any suite
        for factory in (hurwitz, icosian, octahedral):
            factory().check_indices(1, args.n or 10)
    if "cubic-index" in names and (args.n or 0) > DEFAULT_ENUM_CAP:
        raise ResourceCapError(f"suite cubic-index: --n {args.n} exceeds "
                               f"the cap {DEFAULT_ENUM_CAP}")
    table, errors = [], []
    for name in names:
        outcomes = list(_SUITES[name](args.n, args.seed))
        failed = [w for w in outcomes if w is not None]
        table.append({"suite": name, "checks": len(outcomes),
                      "failures": len(failed), "pass": not failed})
        if failed:
            errors.append(f"error: suite {name}: {failed[0]}")
    payload = {
        "command": "verify",
        "seed": args.seed,
        "rows": table,
        "pass": all(r["pass"] for r in table),
    }
    text = [f"suite {r['suite']}: "
            f"{'pass' if r['pass'] else 'FAIL'} "
            f"({r['checks']} checks, {r['failures']} failures)"
            for r in table]
    _emit(args, payload, text)
    for line in errors:
        print(line, file=sys.stderr)
    return 0 if payload["pass"] else 1


# -- intersect ----------------------------------------------------------


def cmd_intersect(args) -> int:
    first = standard_module(args.first)
    second = standard_module(args.second)
    common = intersect(first, second)
    in_first = index_K(first, common)
    in_second = index_K(second, common)
    payload = {
        "command": "intersect",
        "first": args.first,
        "second": args.second,
        "basis": common.json_columns(),
        "index_in_first": {"generator": str(in_first.generator),
                           "absolute": in_first.absolute},
        "index_in_second": {"generator": str(in_second.generator),
                            "absolute": in_second.absolute},
    }
    text = [
        f"intersection of {args.first} and {args.second}:",
        f"  basis:  {common}",
        f"  index in {args.first}: {in_first} (absolute {in_first.absolute})",
        f"  index in {args.second}: {in_second} "
        f"(absolute {in_second.absolute})",
    ]
    _emit(args, payload, text)
    return 0


# -- wiring -------------------------------------------------------------


def _add_common(parser, *, order=False, case=False):
    parser.add_argument("--format", choices=_FORMATS, default=None)
    parser.add_argument("--config", default=None, metavar="PATH")
    if order:
        parser.add_argument("--order", choices=ORDER_KEYS, default=None)
    if case:
        parser.add_argument("--case", choices=PHI_CASES, default=None)


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="csmod",
        description="Coincidence site modules of cubic, icosahedral and "
                    "octahedral module families.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", help="coincidence index of one rotation")
    p.add_argument("rotation", help="quaternion text, or a 3x3 matrix as "
                                    "'a,b,c; d,e,f; g,h,i'")
    _add_common(p, order=True)
    p.set_defaults(func=cmd_sigma)
    # argparse reads any "-..." that is neither an option nor a negative
    # number as an unknown option, so "-1/2+i" would need a "--" before
    # it; widening its negative-number pattern to every such token keeps
    # a leading minus positional.  Set after the options are added, so
    # that none of them (-h included) counts as a negative number.
    p._negative_number_matcher = re.compile(r"^-[^-]")

    p = sub.add_parser("count", help="count distinct coincidence submodules")
    p.add_argument("indices", help="index m, or a range a..b")
    p.add_argument("--cap", default=None)
    p.add_argument("--workers", default=None)
    _add_common(p, order=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("series", help="counting-series table")
    p.add_argument("--max", default=None)
    p.add_argument("--cap", default=None)
    _add_common(p, case=True)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("spectrum", help="does an index occur at all")
    p.add_argument("index", type=int)
    _add_common(p, case=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", choices=("all",) + tuple(_SUITES),
                   default="all")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("intersect", help="intersect two standard modules")
    p.add_argument("first", choices=MODULE_KEYS)
    p.add_argument("second", choices=MODULE_KEYS)
    _add_common(p)
    p.set_defaults(func=cmd_intersect)

    return parser


# the exit code of each error class, and 3 for any other CsmodError
_EXIT_CODES = {ParseInputError: 2, ResourceCapError: 4}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error or help; hand back its code
        return exc.code
    try:
        _settle(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone (csmod ... | head).  Point stdout at devnull
        # so that the flush at exit cannot fail again, and exit as a
        # process stopped by SIGPIPE does.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except CsmodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES.items()
                     if isinstance(exc, cls)), 3)
