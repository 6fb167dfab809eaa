"""Command-line front end, on the standard library's argparse.

Usage:
    oddsrule analyze 0,0,0.5,0,0            # threshold, V_n, bound report
    oddsrule analyze --file probs.json      # {"p": [...]} or one per line
    oddsrule secretary 10                   # analyze the record sequence
    oddsrule oracle-check 0.5,0.5           # cross-check all oracles
    oddsrule simulate 0,0,0.5,0,0 --trials 100000 --seed 7
    oddsrule extremal case2 --n 4 --s 1     # bound-attaining sequences
    oddsrule sweep --n 10 --s 2:8 --rs 0.5,1,2 -o table.csv

Exit codes: 0 success, 2 invalid input or usage, 3 internal verification
failure.  Each option that takes a value takes the next token, also one
that starts with '-' ('--rs -1,2').
Machine-readable output (json / csv) prints floats with 17 significant
digits so binary doubles round-trip, and is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import __version__, bounds, core, extremal
from .errors import (
    InconsistentInput, InternalBoundViolation, InvalidArgument, OddsRuleError, TooLarge,
)

EXIT_INPUT = 2
EXIT_VERIFY = 3

DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 42

# list elements formatted per piece of output, so that no string of a
# whole length-n list is built
CHUNK = 4096


def fmt17(x: float) -> str:
    """17 significant digits: enough to reproduce the exact double."""
    return format(float(x), ".17g")


def fmt_human(x: float) -> str:
    return format(float(x), ".12g")


def render_json(doc, indent: int = 0) -> str:
    """Deterministic JSON with .17g floats (json.dumps would use repr).

    Lists and tuples must hold floats: a bool, int, str or None element
    raises.  Non-finite floats render as the strings "inf", "-inf" and
    "nan".
    """
    return "".join(_json_pieces(doc, indent))


def _json_pieces(doc, indent: int = 0):
    """Yield the text of render_json(doc, indent) in pieces: a list comes
    CHUNK elements a piece."""
    pad = "  " * indent
    if isinstance(doc, dict):
        if not doc:
            yield "{}"
            return
        lead = "{\n"
        for k, v in doc.items():
            yield f'{lead}{pad}  {json.dumps(str(k))}: '
            yield from _json_pieces(v, indent + 1)
            lead = ",\n"
        yield "\n" + pad + "}"
    elif isinstance(doc, (list, tuple)):
        if not doc:
            yield "[]"
            return
        yield f"[\n{pad}  "
        for body in _list_pieces(doc, "%.17g", f",\n{pad}  "):
            # "inf", "-inf" and "nan" as JSON strings; a finite value has no "n"
            yield re.sub("-inf|inf|nan", r'"\g<0>"', body) if "n" in body else body
        yield f"\n{pad}]"
    elif isinstance(doc, float):
        yield fmt17(doc) if math.isfinite(doc) else f'"{doc}"'
    else:
        yield json.dumps(doc)  # bool, None, int and str; TypeError for the rest


def _list_pieces(values, spec: str, sep: str):
    """Yield sep.join(spec % x for x in values), CHUNK values a piece, each
    piece from one C-level % pass.  float.__float__ is the TypeError guard:
    it takes no bool, int, str or None."""
    lead = ""
    for i in range(0, len(values), CHUNK):
        chunk = values[i:i + CHUNK]
        yield lead + sep.join([spec] * len(chunk)) % tuple(map(float.__float__, chunk))
        lead = sep


def _print_json(doc) -> None:
    """Write render_json(doc) and a newline to stdout, piece by piece."""
    sys.stdout.writelines(_json_pieces(doc))
    sys.stdout.write("\n")


class UsageError(Exception):
    """Bad command-line syntax: reported under the command's usage line,
    exit code 2."""


def _fail(msg: str, code: int = EXIT_INPUT) -> None:
    sys.stdout.flush()  # what was printed comes first in a merged stream
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------- input


def positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not in the range x>=1.")
    return value


def add_input_options(sub: argparse.ArgumentParser) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("probs", nargs="?", metavar="PROBS",
                        help="Comma-separated probabilities p_1..p_n. Give exactly one input: "
                        "PROBS, --file, --secretary or --extremal.")
    source.add_argument("--file", "-f", dest="file_path", metavar="PATH",
                        help='Read probabilities from a file: JSON {"p": [...]} or one per line.')
    source.add_argument("--secretary", dest="secretary_n", type=positive_int, metavar="N",
                        help="Use the builtin record sequence p_j = 1/j of length N.")
    source.add_argument("--extremal", dest="extremal_spec", metavar="SPEC",
                        help="Use a builtin extremal generator, e.g. 'case2:n=6,s=3' or "
                        "'upper:n=5,s=3,rs=1'.")


def add_format_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", dest="output_format", choices=("text", "json"),
                     default="text", help="(default: text)")


def add_monte_carlo_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--trials", type=positive_int, default=DEFAULT_TRIALS,
                     help=f"(default: {DEFAULT_TRIALS})")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"(default: {DEFAULT_SEED})")


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse {what}: {exc}")


def _parse_file(path: str) -> list[float]:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    stripped = text.lstrip()
    try:
        if stripped.startswith("{"):
            p = json.loads(text)["p"]
            if not isinstance(p, list):
                raise ValueError(f'"p" must be a JSON array, got {type(p).__name__}')
            if bool in map(type, p):  # float() would read true and false as 1 and 0
                i = [type(x) for x in p].index(bool)
                raise ValueError(f"entry {i + 1} is {json.dumps(p[i])}, not a number")
            return list(map(float, p))
        return [float(line) for line in text.splitlines() if line.strip()]
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UsageError(f"cannot parse {path}: {exc}")


def _parse_extremal_spec(spec: str) -> extremal.ExtremalConfig:
    family, _, args = spec.partition(":")
    params: dict[str, float] = {}
    try:
        for item in filter(None, args.split(",")):
            key, _, value = item.partition("=")
            key = key.strip()
            if key in params:
                raise ValueError(f"repeated key {key!r}")
            params[key] = int(value) if key in ("n", "s") else float(value)
        return _generate_extremal(family, params)
    except ValueError as exc:
        raise UsageError(f"bad extremal spec {spec!r}: {exc}")


# family -> (generator, its keys in argument order, how many are required)
EXTREMAL_FAMILIES = {
    "upper": (extremal.upper_extremal, ("n", "s", "rs"), 3),
    "case1": (extremal.lower_extremal_case1, ("n", "rs"), 2),
    "case2": (extremal.lower_extremal_case2, ("n", "s"), 2),
    "case3": (extremal.lower_near_extremal_case3, ("n", "s", "alpha"), 2),
}


def _generate_extremal(family: str, params: dict) -> extremal.ExtremalConfig:
    """Raises InvalidArgument when the family or the keys do not fit."""
    if family not in EXTREMAL_FAMILIES:
        raise InvalidArgument(f"unknown extremal family {family!r}")
    generator, keys, required = EXTREMAL_FAMILIES[family]
    unknown = [key for key in params if key not in keys]
    if unknown:
        raise InvalidArgument(
            f"unknown key {', '.join(unknown)}; family {family!r} takes {', '.join(keys)}"
        )
    missing = [key for key in keys[:required] if key not in params]
    if missing:
        raise InvalidArgument(f"family {family!r} needs {', '.join(missing)}")
    return generator(*(params[key] for key in keys if key in params))


def resolve_sequence(args: argparse.Namespace) -> core.OddsSequence:
    """The validated sequence named by the one input argparse let through."""
    if args.secretary_n is not None:
        return core.secretary_sequence(args.secretary_n)
    if args.extremal_spec is not None:
        return _parse_extremal_spec(args.extremal_spec).seq
    if args.probs is None:
        return core.validate_probabilities(_parse_file(args.file_path))
    return core.validate_probabilities(_parse_floats(args.probs, "PROBS"))


# ---------------------------------------------------------------- analyze


def _analysis_document(seq: core.OddsSequence) -> dict:
    report = bounds.bound_report(seq)
    t = core.threshold(seq)
    # a bound that fails raises in bound_report, so both are "satisfied"
    return {
        "n": seq.n,
        "p": seq.p,
        "odds": seq.r,
        "suffix_sums": seq.R,
        "s": t.s,
        "R_s": t.R_s,
        "boundary_flag": t.boundary_flag,
        "v_n": report.v_n,
        "v_n_odds_ratio": core.win_probability(seq, t).product_form,
        "bounds": {
            "upper": {
                "value": report.upper,
                "satisfied": True,
                "equality": report.equality["upper"],
            },
            "lower": {
                "value": report.lower,
                "case": report.lower_case,
                "strict": report.lower_strict,
                "satisfied": True,
                "equality": report.equality["lower"],
            },
            "corollary": {
                "value": report.corollary,
                "applicable": report.corollary_applicable,
                "equality": report.equality.get("corollary"),
            },
            "one_over_e": {
                "value": report.e_bound,
                "applicable": report.e_bound_applicable,
            },
            "allaart_islas": {
                "value": report.allaart_islas,
                "applicable": report.e_bound_applicable,
                "equality": report.equality.get("allaart_islas"),
            },
        },
    }


def _print_analysis_text(doc: dict) -> None:
    print(f"n             {doc['n']}")
    for label, key in (("p", "p"), ("odds", "odds"), ("suffix sums", "suffix_sums")):
        sys.stdout.write(f"{label:<14}")
        sys.stdout.writelines(_list_pieces(doc[key], "%.12g", ", "))
        sys.stdout.write("\n")
    print(f"s             {doc['s']}")
    print(f"R_s           {fmt_human(doc['R_s'])}")
    print(f"boundary      {'yes' if doc['boundary_flag'] else 'no'}")
    print(f"V_n           {fmt_human(doc['v_n'])}")
    ratio = doc["v_n_odds_ratio"]
    print("V_n (ratio)   "
          + (fmt_human(ratio) if ratio is not None else "n/a (window has p = 1)"))
    b = doc["bounds"]
    eq = "  [equality]" if b["upper"]["equality"] else ""
    print(f"upper         {fmt_human(b['upper']['value'])}{eq}")
    low = b["lower"]
    strict = ", strict" if low["strict"] else ""
    eq = "  [equality]" if low["equality"] else ""
    print(f"lower         {fmt_human(low['value'])}  (case {low['case']}{strict}){eq}")
    cor = b["corollary"]
    applicable = "" if cor["applicable"] else "  [not applicable: s = 1]"
    print(f"corollary     {fmt_human(cor['value'])}{applicable}")
    e = b["one_over_e"]
    applicable = "" if e["applicable"] else "  [not applicable: R_1 < 1]"
    print(f"1/e           {fmt_human(e['value'])}{applicable}")
    ai = b["allaart_islas"]
    eq = "  [equality]" if ai.get("equality") else ""
    applicable = "" if ai["applicable"] else "  [not applicable: R_1 < 1]"
    print(f"allaart-islas {fmt_human(ai['value'])}{applicable}{eq}")


# ---------------------------------------------------------------- commands


def analyze(args: argparse.Namespace) -> None:
    """Threshold, win probability and full bound report for a sequence."""
    doc = _analysis_document(resolve_sequence(args))
    if args.output_format == "json":
        _print_json(doc)
    else:
        _print_analysis_text(doc)


def oracle_check(args: argparse.Namespace) -> None:
    """Cross-check the closed form against every independent oracle.

    Exits 0 when all exact oracles agree within 1e-12 and the Monte
    Carlo estimate lands within 4 standard errors of V_n; exits 3
    otherwise (which would signal a bug, not a property of the input).
    """
    # this docstring is the command's --help text; the verdict itself is
    # oracle.cross_check's, and this function only renders its record
    from . import oracle  # on first use: only oracle-check and simulate load it

    seq = resolve_sequence(args)
    c = oracle.cross_check(seq, args.trials, args.seed)
    values, sim, checks = c.values, c.simulation, c.checks
    if args.output_format == "json":
        mc = {"trials": sim.trials, "wins": sim.wins, "std_error": sim.std_error, "seed": sim.seed}
        _print_json({"n": seq.n, "s": c.s, "values": values, "monte_carlo": mc,
                     "checks": checks, "agree": c.agree})
    else:
        print(f"formula V_n            {fmt_human(values['formula'])}")
        print(f"dp optimal             {fmt_human(values['dp'])}"
              f"   {'ok' if checks['dp'] else 'MISMATCH'}")
        print(f"threshold family max   {fmt_human(values['threshold_family_max'])}"
              f"   {'ok (attained at s)' if checks['threshold_family'] else 'MISMATCH'}")
        if values["exhaustive"] is None:
            print(f"exhaustive             skipped (n > {oracle.EXHAUSTIVE_MAX_N})")
        else:
            print(f"exhaustive             {fmt_human(values['exhaustive'])}"
                  f"   {'ok' if checks['exhaustive'] else 'MISMATCH'}")
        print(f"monte carlo            {fmt_human(sim.estimate)} +/- {fmt_human(sim.std_error)}"
              f"   {'ok (4 se)' if checks['monte_carlo'] else 'OUTSIDE 4 SE'}")
    if not c.agree:
        _fail("oracle disagreement", EXIT_VERIFY)


def _parse_int_range(spec: str, name: str) -> list[int]:
    try:
        if "," in spec:
            return [int(tok) for tok in spec.split(",") if tok.strip()]
        if ":" in spec:
            parts = [int(tok) for tok in spec.split(":")]
            if len(parts) == 2:
                start, stop = parts
                step = 1
            elif len(parts) == 3:
                start, stop, step = parts
            else:
                raise ValueError("use START:STOP or START:STOP:STEP")
            # STOP is inclusive in the direction of the step
            return list(range(start, stop + (1 if step > 0 else -1), step))
        return [int(spec)]
    except ValueError as exc:
        raise UsageError(f"bad {name} range {spec!r}: {exc}")
    except OverflowError:
        # range() takes any bounds, but list() refuses a length no list reaches
        raise TooLarge(f"{name} range {spec!r} holds more than sys.maxsize values") from None


def sweep(args: argparse.Namespace) -> None:
    """Tabulate bounds over an (n, s, R_s) grid as CSV.

    Columns: n,s,R_s,case,lower,upper,corollary,v_n.  The v_n column is
    filled from the matching extremal configuration where one exists
    (case 1 at the given sum, case 2 at R_s = 1, the limiting family for
    case 3) and left empty otherwise.  Grid points outside the lower
    bound's domain (s outside [1, n], R_s NaN or negative, R_s < 1 with
    s > 1) are skipped with a notice.
    """
    ns = _parse_int_range(args.n_spec, "--n")
    ss = _parse_int_range(args.s_spec, "--s")
    grid = _parse_floats(args.rs_spec, f"--rs grid {args.rs_spec!r}")
    if not ns or not ss or not grid:
        _fail("empty sweep grid")

    lines = ["n,s,R_s,case,lower,upper,corollary,v_n"]
    for n in ns:
        for s in ss:
            for rs in grid:
                try:
                    low = bounds.lower_bound(n, s, rs)
                except InconsistentInput as exc:
                    print(f"notice: skipping inconsistent point n={n} s={s} R_s={rs}: {exc}",
                          file=sys.stderr)
                    continue
                upper = bounds.upper_bound(rs)
                corollary = bounds.corollary_bound(n, s)
                v_n = _sweep_attained_value(n, s, rs, low.case)
                lines.append(
                    ",".join(
                        [
                            str(n),
                            str(s),
                            fmt17(rs),
                            str(low.case),
                            fmt17(low.value),
                            fmt17(upper),
                            fmt17(corollary),
                            "" if v_n is None else fmt17(v_n),
                        ]
                    )
                )
    rows = len(lines) - 1
    if rows == 0:
        _fail("sweep grid produced no consistent rows")
    text = "\n".join(lines) + "\n"
    output_path = args.output_path
    if output_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(f"cannot write {output_path}: {exc}")
    print(f"wrote {rows} rows to {output_path}", file=sys.stderr)


def _sweep_attained_value(n: int, s: int, rs: float, case: int) -> float | None:
    if case == 2 and rs != 1.0:  # the case-2 family has R_s = 1 only
        return None
    generator, keys, required = EXTREMAL_FAMILIES[f"case{case}"]
    point = {"n": n, "s": s, "rs": rs}
    try:
        cfg = generator(*(point[key] for key in keys[:required]))
    except OddsRuleError:
        return None
    seq = cfg.seq
    return core.win_probability(seq, core.threshold(seq)).value


def extremal_cmd(args: argparse.Namespace) -> None:
    """Emit a bound-attaining probability sequence.

    Families: 'upper' (single-entry window, attains the upper bound),
    'case1' (constant, attains the sub-unit lower bound), 'case2'
    (equal window, attains the unit-sum lower bound), 'case3' (limiting
    family for the strict lower bound).
    """
    given = {key: getattr(args, key) for key in ("n", "s", "rs", "alpha")}
    cfg = _generate_extremal(args.family, {k: v for k, v in given.items() if v is not None})
    seq = cfg.seq
    v = core.win_probability(seq, core.threshold(seq)).value
    if args.output_format == "json":
        _print_json({
            "family": args.family,
            "p": seq.p,
            "target_bound": cfg.target_bound,
            "v_n": v,
            "attainment": cfg.attainment,
            "parameters": {key: x for key, x in cfg.parameters._asdict().items() if x is not None},
        })
    else:
        # a re-feedable p line: the shortest repr that round-trips ('0.2',
        # not '0.20000000000000001'), with 0 and 1 written as integers
        for i in range(0, seq.n, CHUNK):
            chunk = seq.p[i:i + CHUNK]
            sys.stdout.write(("," if i else "") + ",".join(["%r"] * len(chunk))
                             % tuple(map({0.0: 0, 1.0: 1}.get, chunk, chunk)))
        print()
        print(f"target     {fmt_human(cfg.target_bound)}")
        print(f"v_n        {fmt_human(v)}")
        print(f"attainment {cfg.attainment}")


def simulate(args: argparse.Namespace) -> None:
    """Monte Carlo estimate of a threshold rule's win probability."""
    from . import oracle

    seq = resolve_sequence(args)
    rule_k = core.threshold(seq).s if args.k is None else args.k
    exact = oracle.threshold_rule_value(seq, rule_k)
    sim = oracle.monte_carlo(seq, rule_k, args.trials, args.seed)
    if args.output_format == "json":
        _print_json({
            "n": seq.n,
            "k": rule_k,
            **sim._asdict(),
            "exact": exact,
        })
    else:
        print(f"k          {rule_k}")
        print(f"trials     {sim.trials}")
        print(f"wins       {sim.wins}")
        print(f"estimate   {fmt_human(sim.estimate)} +/- {fmt_human(sim.std_error)}")
        print(f"exact      {fmt_human(exact)}")
        print(f"seed       {sim.seed}")


# ---------------------------------------------------------------- parser


def _parser() -> tuple[argparse.ArgumentParser, set[str]]:
    """The parser, and the option strings that take a value."""
    parser = argparse.ArgumentParser(
        prog="oddsrule", add_help=False, allow_abbrev=False,
        description="Optimal stopping on independent indicators: the odds rule, "
        "its success probability, sharp bounds, and verification oracles.",
    )
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    parser.add_argument("--version", action="version", help="Show the version and exit.",
                        version=f"oddsrule, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name: str, run, *add_options, doc: str | None = None) -> argparse.ArgumentParser:
        doc = doc or run.__doc__ or ""
        sub = commands.add_parser(name, help=doc.partition("\n")[0], description=doc,
                                  add_help=False, allow_abbrev=False)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        sub.set_defaults(run=run, parser=sub)
        for add in add_options:
            add(sub)
        return sub

    command("analyze", analyze, add_input_options, add_format_option)
    # `secretary N` is `analyze --secretary N` under its own help text
    sub = command("secretary", analyze, add_format_option,
                  doc="Analyze the builtin record sequence p_j = 1/j (best-choice problem).")
    sub.add_argument("secretary_n", type=positive_int, metavar="N")
    command("oracle-check", oracle_check, add_input_options, add_monte_carlo_options,
            add_format_option)
    sub = command("simulate", simulate, add_input_options, add_monte_carlo_options,
                  add_format_option)
    sub.add_argument("--k", type=int, help="Threshold index; defaults to the optimal s.")
    sub = command("extremal", extremal_cmd, add_format_option)
    sub.add_argument("family", choices=EXTREMAL_FAMILIES, metavar="FAMILY",
                     help=f"One of {', '.join(EXTREMAL_FAMILIES)}.")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--s", type=int)
    sub.add_argument("--rs", type=float, help="Suffix odds sum (R_1 for case1).")
    sub.add_argument("--alpha", type=float, help="Case-3 closeness parameter in (0, 1).")
    sub = command("sweep", sweep)
    sub.add_argument("--n", dest="n_spec", required=True, metavar="RANGE",
                     help="Horizon values: '10', '2:50', '2:50:4' or '3,7,9'.")
    sub.add_argument("--s", dest="s_spec", required=True, metavar="RANGE",
                     help="Threshold values, same syntax.")
    sub.add_argument("--rs", dest="rs_spec", required=True, metavar="GRID",
                     help="Comma-separated R_s grid, e.g. '0.5,1,1.5,3'.")
    sub.add_argument("--output", "-o", dest="output_path", required=True, metavar="PATH",
                     help="CSV destination; '-' for stdout.")

    takes_value = {option for sub in commands.choices.values() for action in sub._actions
                   if action.nargs is None for option in action.option_strings}
    return parser, takes_value


def _attach_values(argv: list[str], takes_value: set[str]) -> list[str]:
    """Rewrite 'OPTION VALUE' as 'OPTION=VALUE', so that a value starting
    with '-' ('--rs -1,2') is not read as an option."""
    out, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in takes_value else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv: list[str] | None = None) -> None:
    """Run the command named in ``argv`` (default ``sys.argv[1:]``).  The
    one place that maps library errors to exit codes: 3 for a failed
    internal check (InternalBoundViolation), 2 for any other OddsRuleError,
    as for invalid usage or a request too large for memory."""
    parser, takes_value = _parser()
    argv = _attach_values(sys.argv[1:] if argv is None else argv, takes_value)
    args, extra = parser.parse_known_args(argv)
    if extra:
        # an unknown option before the command is the top-level parser's;
        # anything after it is the command's
        (parser if argv[0].startswith("-") else args.parser).error(
            f"unrecognized arguments: {' '.join(extra)}")
    try:
        args.run(args)
        sys.stdout.flush()  # here, so that a closed pipe is caught below
    except UsageError as exc:
        args.parser.error(str(exc))
    except InternalBoundViolation as exc:
        _fail(str(exc), EXIT_VERIFY)
    except OddsRuleError as exc:
        _fail(str(exc))
    except MemoryError:
        # a size such as --n 2**62 that no list of that length can hold
        _fail("not enough memory for this request")
    except BrokenPipeError:
        # the reader went away (`| head`): exit quietly, and give the
        # interpreter's last flush of stdout somewhere to go
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
