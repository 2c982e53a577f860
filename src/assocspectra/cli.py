"""Command-line front end: enumeration, counting, spectra, closure checks, gallery.

Exit codes: 0 success (or CLOSED), 1 closure violation, 2 usage or schema
error, 3 cap exceeded, 4 unsupported operation.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal

from .errors import CapExceededError, UnsupportedOperationError
from .groupoids import (
    GALLERY_ENTRIES,
    TruncatedRing,
    dump_groupoid,
    fine_spectrum,
    gallery,
    load_groupoid,
)
from .insertion import catalan, count_m, format_tuple, from_tuple, to_tuple
from .spectra import (
    SpectrumPrefix,
    _bit_sequence,
    build_prefix,
    dldr_sigma,
    format_partition,
    left_factor_sigma,
    parse_spectrum_prefix,
    sigma_a,
    tail_tuple_sigma,
    tau,
    verify_closed,
)
from .terms import enumerate_bracketings, render_bracketing


def cmd_enum(args) -> int:
    if args.format == "infix" and args.p != 2:
        raise ValueError("infix output needs --p 2")
    for t in enumerate_bracketings(args.n, args.p, max_count=args.max_bracketings):
        if args.format == "tuple":
            print(format_tuple(to_tuple(t)))
        else:
            print(render_bracketing(t, args.format))
    return 0


def cmd_count(args) -> int:
    if args.kind == "catalan":
        value = catalan(args.n, args.p)
    else:
        if args.k is None:
            raise ValueError("count m needs --k")
        value = count_m(args.n, args.k, args.p)
    print(Decimal(value))  # str() of an int stops at the interpreter's digit limit
    return 0


def cmd_spectrum(args) -> int:
    if args.max_n < 0:
        raise ValueError(f"horizon must be nonnegative, got {args.max_n}")
    with open(args.table, encoding="utf-8") as fh:
        g = load_groupoid(json.load(fh))
    partitions, code = [], 0
    try:
        for pi in fine_spectrum(g, args.max_n, max_cells=args.max_cells,
                                max_count=args.max_bracketings):
            partitions.append(pi)
            print(f"n={pi.level} classes={pi.num_classes}")
    except CapExceededError:
        code = 3
    if args.fine:
        for pi in partitions:
            print()
            print(format_partition(pi))
    if code:
        print(f"# truncated at n={len(partitions)}")
    return code


def _int_param(param: str, name: str) -> int:
    if not param:
        raise ValueError(f"builtin {name!r} needs a parameter, e.g. {name}:2")
    try:
        return int(param)
    except ValueError:
        raise ValueError(f"bad parameter {param!r} for builtin {name!r}") from None


_BINARY_BUILTINS = {"sigma_a", "left_factor", "dldr", "tau"}


def _builtin_prefix(text: str, max_n: int | None, p: int,
                    max_count: int | None) -> SpectrumPrefix:
    name, _, param = text.partition(":")
    if name in _BINARY_BUILTINS and p != 2:
        raise ValueError(f"builtin {name} is binary only")
    if name == "sigma_a":
        if not param:
            raise ValueError("builtin sigma_a needs a bit string, e.g. sigma_a:000001")
        horizon = len(_bit_sequence(param)) - 1  # every bit is checked, built or not
        if max_n is not None:
            _check_horizon(max_n, horizon, "bit string")
            param = param[:max(max_n, 4) + 1]
        return _cut(sigma_a(param, max_count=max_count), max_n, "bit string")
    if max_n is None:
        raise ValueError(f"builtin {name!r} needs --max-n")
    if name == "left_factor":
        k = _int_param(param, name)
        return build_prefix(lambda n: left_factor_sigma(n, k, max_count=max_count), max_n)
    if name == "tail":
        k = _int_param(param, name)
        return build_prefix(lambda n: tail_tuple_sigma(n, k, p, max_count=max_count), max_n)
    if param:
        raise ValueError(f"builtin {name!r} takes no parameter")
    if name == "dldr":
        return build_prefix(lambda n: dldr_sigma(n, max_count=max_count), max_n)
    if name == "tau":
        return build_prefix(lambda n: tau(n, max_count=max_count), max_n)
    raise ValueError(f"unknown builtin {text!r}; expected left_factor:k, tail:k, dldr, tau "
                     "or sigma_a:bits")


def _cut(sigma: SpectrumPrefix, max_n: int | None, source: str) -> SpectrumPrefix:
    """The levels 0..max_n of ``sigma``, or all of it when ``max_n`` is ``None``."""
    if max_n is None:
        return sigma
    _check_horizon(max_n, sigma.horizon, source)
    return SpectrumPrefix(sigma.partitions[:max_n + 1])


def _check_horizon(max_n: int, horizon: int, source: str) -> None:
    if max_n > horizon:
        raise ValueError(f"--max-n {max_n} exceeds the {source} horizon {horizon}")


def cmd_verify(args) -> int:
    if args.builtin:
        sigma = _builtin_prefix(args.builtin, args.max_n, args.p, args.max_bracketings)
    else:
        with open(args.file, encoding="utf-8") as fh:
            sigma = _cut(parse_spectrum_prefix(fh.read(), max_count=args.max_bracketings),
                         args.max_n, "file")
    report = verify_closed(sigma)
    if report.closed:
        print("CLOSED")
        return 0
    s, t = (render_bracketing(from_tuple(u, sigma.arity)) for u in report.witness)
    print(f"VIOLATION at n={report.level}: {s} ~ {t} required")
    return 1


_GALLERY_PARAMS = {"polyk": "k", "const_assoc": "m", "truncated_ring": "truncation"}


def _parse_gallery_ref(text: str) -> tuple[str, dict]:
    name, _, param = text.partition(":")
    if not param:
        return name, {}
    if name not in _GALLERY_PARAMS:
        raise ValueError(f"gallery entry {name!r} takes no parameter")
    try:
        return name, {_GALLERY_PARAMS[name]: int(param)}
    except ValueError:
        raise ValueError(f"bad parameter {param!r} for gallery entry {name!r}") from None


def cmd_gallery_list(args) -> int:
    for name, size, description in GALLERY_ENTRIES:
        print(f"{name} ({size})  {description}")
    return 0


def cmd_gallery_emit(args) -> int:
    name, params = _parse_gallery_ref(args.name)
    g = gallery(name, **params)
    if isinstance(g, TruncatedRing):
        raise UnsupportedOperationError(
            "truncated_ring is evaluation-only and has no finite table to emit")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(dump_groupoid(g), fh)
        fh.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assocspectra",
        description="Associative and fine spectra of finite p-ary groupoids.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enum", help="list the bracketings of one level")
    p_enum.add_argument("--p", type=int, required=True, help="arity")
    p_enum.add_argument("--n", type=int, required=True, help="occurrence number")
    p_enum.add_argument("--format", choices=("prefix", "infix", "tuple"), default="prefix")
    p_enum.add_argument("--max-bracketings", type=int, default=None,
                        help="per-level enumeration cap")
    p_enum.set_defaults(func=cmd_enum)

    p_count = sub.add_parser("count", help="exact level and tuple-family counts")
    p_count.add_argument("kind", choices=("catalan", "m"))
    p_count.add_argument("--p", type=int, required=True)
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--k", type=int, default=None, help="bound offset for kind=m")
    p_count.set_defaults(func=cmd_count)

    p_spec = sub.add_parser("spectrum", help="associative spectrum of a groupoid table")
    p_spec.add_argument("table", help="groupoid document (JSON)")
    p_spec.add_argument("--max-n", type=int, required=True)
    p_spec.add_argument("--fine", action="store_true", help="append the partition blocks")
    p_spec.add_argument("--max-cells", type=int, default=None, help="per-level cell cap")
    p_spec.add_argument("--max-bracketings", type=int, default=None)
    p_spec.set_defaults(func=cmd_spectrum)

    p_verify = sub.add_parser("verify", help="closure check of a spectrum prefix")
    source = p_verify.add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin",
                        help="left_factor:k | tail:k | dldr | tau | sigma_a:bits")
    source.add_argument("--file", help="spectrum prefix file (partition blocks)")
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument("--p", type=int, default=2, help="arity for builtin tail")
    p_verify.add_argument("--max-bracketings", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_gal = sub.add_parser("gallery", help="list or emit the built-in groupoids")
    gal_sub = p_gal.add_subparsers(dest="gallery_command", required=True)
    gal_list = gal_sub.add_parser("list", help="names, sizes, one-line summaries")
    gal_list.set_defaults(func=cmd_gallery_list)
    gal_emit = gal_sub.add_parser("emit", help="write a groupoid document")
    gal_emit.add_argument("name", help="entry name, parameters after a colon (polyk:3)")
    gal_emit.add_argument("out", help="output file")
    gal_emit.set_defaults(func=cmd_gallery_emit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UnsupportedOperationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # ParseError and SchemaError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
