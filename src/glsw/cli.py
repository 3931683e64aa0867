"""Command-line front end: catalog lookups, decomposition runs, and the
named verification suites, with machine-readable reports.

Reports go to stdout as canonical JSON (sorted keys, no trailing spaces) or
as flattened tab-separated rows; error messages go to stderr.  Exit codes:
0 success / suite passed, 1 suite failed, 2 usage error, 3 a decomposition
failed its certificate (its cover summands do not fold back).  ``decompose``
is exact; only ``verify`` takes a seed (``--seed``, default 0), and only
``verify stability`` takes ``--caps``.
"""

from __future__ import annotations

import argparse
import json
import sys

from glsw.quivers import catalog_affine
from glsw import decomposition as D, stability as S, suites

SCHEMA_VERSION = 1


def _parse_caps(text):
    caps = {}
    for item in text.split(","):
        key, _, value = item.partition("=")
        if key not in ("dim", "enum") or not value.isdigit():
            raise argparse.ArgumentTypeError(
                f"caps must look like dim=8,enum=1000000 (got {text!r})"
            )
        caps[key] = int(value)
    return caps


def _parse_vector(text):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"vector must be a comma list (got {text!r})")


def _add_format(parser):
    parser.add_argument("--format", choices=("json", "tsv"), default="json")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="glsw", description="affine valued-quiver module workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="print a catalog quiver and its root data")
    cat.add_argument("family")
    cat.add_argument("rank", nargs="?", type=int, default=None)
    _add_format(cat)

    dec = sub.add_parser("decompose", help="split a rank vector as m*eta + w")
    dec.add_argument("family")
    dec.add_argument("rank", nargs="?", type=int, default=None)
    dec.add_argument("-v", "--vector", type=_parse_vector, required=True)
    _add_format(dec)

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("suite")
    ver.add_argument("--seed", type=int, default=0, help="base random seed")
    _add_format(ver)
    ver.add_argument(
        "--caps",
        type=_parse_caps,
        default={},
        help="submodule search caps of the stability suite, e.g. dim=8,enum=1000000",
    )
    return parser


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}{key}.")
    elif isinstance(obj, (list, tuple)):
        for k, item in enumerate(obj):
            yield from _flatten(item, f"{prefix}{k}.")
    else:
        yield prefix.rstrip("."), obj


def _emit(report, fmt):
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")))
        sys.stdout.write("\n")
    else:
        for path, value in _flatten(report):
            sys.stdout.write(f"{path}\t{value}\n")


def cmd_catalog(args):
    try:
        q = catalog_affine(args.family, args.rank)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    theta = S.defect_weight(q)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "catalog",
        "family": args.family,
        "rank": args.rank,
        "quiver": q.to_json_dict(),
        "null_root": q.null_root(),
        "tier": q.catalog_tier,
        "extending_vertex": q.extending_vertex,
        "defect_weight": [str(c) for c in theta.coords],
        "coxeter": q.coxeter_transformation(),
    }
    _emit(report, args.format)
    return 0


def cmd_decompose(args):
    try:
        q = catalog_affine(args.family, args.rank)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if len(args.vector) != q.n:
        print(
            f"vector length {len(args.vector)} does not match {q.n} vertices",
            file=sys.stderr,
        )
        return 2
    try:
        rep = D.folded_decomposition(q, args.vector)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    except D.CertificationError as exc:
        report = {
            "schema": SCHEMA_VERSION,
            "command": "decompose",
            "certified": False,
            "error": str(exc),
        }
        _emit(report, args.format)
        return 3
    report = {
        "schema": SCHEMA_VERSION,
        "command": "decompose",
        "certified": True,
        "family": args.family,
        "rank": args.rank,
    }
    report.update(rep)
    _emit(report, args.format)
    return 0


def cmd_verify(args):
    if args.suite not in suites.SUITES:
        choices = ", ".join(sorted(suites.SUITES))
        print(f"unknown suite {args.suite!r} (choose from {choices})", file=sys.stderr)
        return 2
    # caps not given keep the defaults of stability.DEFAULT_CONFIG
    config = {f"{key}_cap": value for key, value in args.caps.items()}
    config["seed"] = args.seed
    report = suites.run_suite(args.suite, config)
    report["schema"] = SCHEMA_VERSION
    report["command"] = "verify"
    _emit(report, args.format)
    return 0 if report["passed"] else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.caps and args.suite != "stability":
        parser.error("--caps is read only by the stability suite")
    if args.command == "catalog":
        return cmd_catalog(args)
    if args.command == "decompose":
        return cmd_decompose(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
