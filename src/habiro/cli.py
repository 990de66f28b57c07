"""Command-line front end over the expansion, cross-check, and verdict layers."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import cache
from pathlib import Path

from habiro.asym import profile_for_family, ratio_diagnostics
from habiro.exact import PRECISION_CAP, PrecisionCapError
from habiro.families import FAMILIES, FamilySpec, cached_expansion, identity_for
from habiro.qseries import TruncatedSeries, binomial_transform, transform_g, transform_h
from habiro.signcheck import verify_positivity
# perfbench/tracing.py wraps b_sequence here, so it stays bound though nothing
# calls it: the theta route goes from C to xi in one xi_from_theta pass.
from habiro.thetaside import b_sequence, c_sequence, xi_from_theta

# transform -> function that computes the row; asym's main terms take the same
# names.  Each function reads the module global when called, so rebinding
# transform_g or transform_h on this module reaches both expand and asym.
TRANSFORM_ROWS = {
    "one-minus-q": lambda xi: xi,
    "inv-one-plus-q": lambda xi: transform_g(xi),
    "ratio": lambda xi: transform_h(xi),
}


class _Parser(argparse.ArgumentParser):
    """Parser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _span(text: str) -> tuple[int, int]:
    """Parse '3' or '1:10' into an inclusive integer range."""
    lo, sep, hi = text.partition(":")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if sep else lo_i
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer range: {text!r}")
    if hi_i < lo_i:
        raise argparse.ArgumentTypeError(f"empty range: {text!r}")
    return lo_i, hi_i


def _samples(text: str) -> list[int]:
    try:
        out = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not out:
        raise argparse.ArgumentTypeError("need at least one sample index")
    if min(out) < 1:
        raise argparse.ArgumentTypeError(f"sample index n must be at least 1: {text!r}")
    return out


def _decimal_digits(c: int) -> int:
    """len(str(abs(c))) without building the string, which CPython refuses past
    4,300 digits.  With b the bit length of c, the length is L or L + 1 for
    L = floor(b log10 2); the 40-digit log10 2 below gets L exactly unless
    b log10 2 lies within b/10**40 of an integer."""
    c = abs(c) or 1
    length = c.bit_length() * 3010299956639811952137388947244930267681 // 10**40
    return length + (c >= 10**length)


def _precision_cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if cap < 1:
        raise argparse.ArgumentTypeError(f"precision cap must be at least 1 bit: {text!r}")
    return cap


@cache  # parsing does not mutate the parser, so repeated main() calls share one
def _build_parser() -> _Parser:
    parser = _Parser(prog="habiro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, spans: bool = False):
        p.add_argument("--family", required=True, choices=FAMILIES)
        if spans:
            for name in ("t", "m", "k"):
                p.add_argument(f"--{name}", type=_span, default=None,
                               help="single value or inclusive lo:hi range")
            p.add_argument("--ell", type=int, default=None)
        else:
            for name in ("t", "m", "ell", "k"):
                p.add_argument(f"--{name}", type=int, default=None)
        p.add_argument("--format", choices=_WRITERS)
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--precision-cap", type=_precision_cap, default=PRECISION_CAP)

    p = sub.add_parser("expand", help="coefficient sequence of a family")
    common(p)
    p.add_argument("--transform", choices=TRANSFORM_ROWS, default="one-minus-q")
    p.add_argument("-N", type=int, required=True, help="last coefficient index")
    p.set_defaults(handler=cmd_expand, format="plain")

    p = sub.add_parser("crosscheck", help="compare the two coefficient routes")
    common(p)
    p.add_argument("-N", type=int, required=True)
    p.set_defaults(handler=cmd_crosscheck, format="plain")

    p = sub.add_parser("verify", help="positivity verdicts over a parameter range")
    common(p, spans=True)
    p.set_defaults(handler=cmd_verify, format="plain")

    p = sub.add_parser("asym", help="exact-to-main-term ratio diagnostics")
    common(p)
    p.add_argument("--transform", choices=TRANSFORM_ROWS, default="one-minus-q")
    p.add_argument("-N", type=int, default=None,
                   help="direct-expansion order; defaults to the theta-side route")
    p.add_argument("--samples", type=_samples, required=True)
    p.set_defaults(handler=cmd_asym, format="csv")

    return parser


def _spec_from_args(args) -> FamilySpec:
    params = {name: getattr(args, name) for name in ("t", "m", "ell", "k")
              if getattr(args, name) is not None}
    return FamilySpec(args.family, **params)


def _cache_dir(args) -> Path:
    if args.cache_dir is not None:
        return Path(args.cache_dir)
    env = os.environ.get("HABIRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "habiro"


# --format value -> how _emit writes the form of a result built for that format
_WRITERS = {
    "csv": lambda rows: csv.writer(
        sys.stdout, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows),
    "json": lambda value: sys.stdout.write(json.dumps(value) + "\n"),
    "plain": lambda text: sys.stdout.write(text + "\n"),
}


def _emit(args, **forms) -> None:
    """Write a result in the format args name.  A subcommand passes one function
    per format that builds the result's form in it (plain text, CSV rows header
    first, a JSON value), so only the chosen form is built."""
    _WRITERS[args.format](forms[args.format]())


def _transform_row(
    spec: FamilySpec, xi: TruncatedSeries, transform: str, published: bool
) -> TruncatedSeries:
    """The row a transform names.

    The published inv-one-plus-q rows of habiro-g follow the unsigned binomial
    convention, so expand (published=True) prints binomial_transform there.
    The inv-one-plus-q main term describes the alternating row, which asym
    diagnoses.
    """
    if published and spec.kind == "habiro-g" and transform == "inv-one-plus-q":
        return binomial_transform(xi)
    return TRANSFORM_ROWS[transform](xi)


def _theta_series(spec: FamilySpec, order: int) -> TruncatedSeries:
    ident = identity_for(spec)
    return xi_from_theta(c_sequence(ident, order), order, ident.a, ident.b)


def cmd_expand(args) -> int:
    spec = _spec_from_args(args)
    xi = cached_expansion(spec, args.N, _cache_dir(args))
    row = _transform_row(spec, xi, args.transform, published=True)
    coeffs = row.integer_coeffs()
    _emit(args,
          plain=lambda: ", ".join(str(c) for c in coeffs),
          csv=lambda: [("n", "coefficient")] + [(str(n), str(c)) for n, c in enumerate(coeffs)],
          json=lambda: {"family": spec.kind, "params": spec.params(), "transform": args.transform,
                        "N": args.N, "coefficients": [str(c) for c in coeffs]})
    return 0


def cmd_crosscheck(args) -> int:
    spec = _spec_from_args(args)
    # The direct row is always expanded afresh: a stale or corrupt cache row
    # must not stand in for one side of the oracle.  The cache is only checked
    # and extended.
    direct = cached_expansion(spec, args.N, _cache_dir(args), fresh=True).integer_coeffs()
    theta = _theta_series(spec, args.N).integer_coeffs()
    bad = next((n for n, (x, y) in enumerate(zip(direct, theta)) if x != y), None)
    header = ("status", "index", "direct", "theta")

    def result(**fields):
        return {"family": spec.kind, "params": spec.params(), "N": args.N, **fields}

    if bad is None:
        _emit(args, plain=lambda: f"pass: {args.N + 1} coefficients agree",
              csv=lambda: [header, ("pass", "", "", "")],
              json=lambda: result(status="pass", checked=args.N + 1))
        return 0
    x, y = direct[bad], theta[bad]
    _emit(args, plain=lambda: f"mismatch at n={bad}: direct {x}, theta-side {y}",
          csv=lambda: [header, ("mismatch", str(bad), str(x), str(y))],
          json=lambda: result(status="mismatch", index=bad, direct=str(x), theta=str(y)))
    return 2


def _verify_specs(args) -> tuple[str, bool, list[FamilySpec]]:
    """Expand the range flags into concrete specs, plus the varied-parameter name
    and whether the sweep runs every ell of each m (torus2 without --ell).

    Every spec goes through FamilySpec, which rejects a missing parameter and
    one the family does not take.
    """
    kind = args.family
    varied = next(iter(FAMILIES[kind].params), "")  # the parameter a range sweeps
    given = {name: getattr(args, name) for name in ("t", "m", "ell", "k")
             if getattr(args, name) is not None}
    span = given.pop(varied, None)
    if span is None:
        # fishburn; any other family lacks its varied parameter and is rejected
        return varied, False, [FamilySpec(kind, **given)]
    every_ell = kind == "torus2" and args.ell is None
    specs = []
    for v in range(span[0], span[1] + 1):
        if every_ell:
            # m < 1 still reaches FamilySpec, which rejects it
            specs.extend(FamilySpec(kind, m=v, ell=ell, **given) for ell in range(max(v, 1)))
        else:
            specs.append(FamilySpec(kind, **given, **{varied: v}))
    return varied, every_ell, specs


def _verdict_json(spec: FamilySpec, v) -> dict:
    out = {"family": spec.kind, "params": spec.params(), "N_used": v.n_used,
           "checks": v.checks, "verdict": v.verdict}
    if note := v.note:
        out["note"] = note
    return out


def cmd_verify(args) -> int:
    varied, every_ell, specs = _verify_specs(args)
    verdicts = [verify_positivity(spec, cap=args.precision_cap) for spec in specs]

    def shown(v) -> str:
        return "-" if v.verdict == "undecided-at-precision-cap" else str(v.n_used)

    def plain() -> str:
        if every_ell:
            # one row per m, check counts across ell, mirroring the table layout
            by_m: dict[int, list[str]] = {}
            for spec, v in zip(specs, verdicts):
                by_m.setdefault(spec.m, []).append(shown(v))
            lines = [f"m={m}: " + " ".join(counts) for m, counts in by_m.items()]
        else:
            lines = ["N: " + " ".join(shown(v) for v in verdicts)]
            if varied:  # fishburn varies nothing
                lines.insert(0, f"{varied}: " + " ".join(str(s.params()[varied]) for s in specs))
        bad = [f"{spec.label()}: {v.verdict}"
               for spec, v in zip(specs, verdicts) if v.verdict != "proved-positive"]
        return "\n".join(lines + (bad or ["verdict: all proved-positive"]))

    _emit(args, plain=plain,
          csv=lambda: [("family", "N", "verdict")] + [
              (spec.label(), shown(v), v.verdict) for spec, v in zip(specs, verdicts)],
          json=lambda: [_verdict_json(spec, v) for spec, v in zip(specs, verdicts)])
    if any(v.verdict == "condition-failed" for v in verdicts):
        return 2
    if any(v.verdict == "undecided-at-precision-cap" for v in verdicts):
        return 3
    return 0


def cmd_asym(args) -> int:
    spec = _spec_from_args(args)
    samples = args.samples
    profile = profile_for_family(spec, cap=args.precision_cap)
    top = max(samples)
    if args.N is not None:
        if args.N < top:
            raise ValueError("-N must cover the largest sample index")
        series = cached_expansion(spec, args.N, _cache_dir(args))
    else:
        series = _theta_series(spec, top)
    series = _transform_row(spec, series, args.transform, published=False)
    table = [(sample.n, _decimal_digits(series.coefficient(sample.n)),
              None if sample.ratio is None else abs(sample.ratio).log().mid_float())
             for sample in ratio_diagnostics(series, profile, samples, which=args.transform)]

    def cells():
        return [(str(n), str(d), "" if r is None else repr(r)) for n, d, r in table]

    _emit(args,
          plain=lambda: "\n".join("n={} digits={} log_ratio={}".format(*row) for row in cells()),
          csv=lambda: [("n", "digits", "log_ratio")] + cells(),
          json=lambda: {"family": spec.kind, "params": spec.params(), "transform": args.transform,
                        "samples": [{"n": n, "digits": d, "log_ratio": r} for n, d, r in table]})
    return 0


# Options whose value may start with '-': asym's sample list and verify's spans.
_DASHED_VALUES = ("--samples", "--t", "--m", "--k")


def _join_dashed_values(argv: list[str]) -> list[str]:
    """Join a '-'-led value such as '-3,4' or '-3:5' to a preceding option of
    _DASHED_VALUES, or an abbreviation of one.  argparse takes that word for an
    option (only a bare negative number passes as a value), so the value check
    would never see it."""
    out: list[str] = []
    for word in argv:
        flag = out[-1] if out else ""
        if (len(flag) > 2 and any(name.startswith(flag) for name in _DASHED_VALUES)
                and word[:1] == "-" and word[1:2].isdigit()):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(_join_dashed_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args)
    except PrecisionCapError as err:
        print(f"habiro: undecided at precision cap: {err}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError, OSError) as err:
        print(f"habiro: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
