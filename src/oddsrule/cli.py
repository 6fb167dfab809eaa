"""Command-line front end.

Usage:
    oddsrule analyze 0,0,0.5,0,0            # threshold, V_n, bound report
    oddsrule analyze --file probs.json      # {"p": [...]} or one per line
    oddsrule secretary 10                   # analyze the record sequence
    oddsrule oracle-check 0.5,0.5           # cross-check all oracles
    oddsrule simulate 0,0,0.5,0,0 --trials 100000 --seed 7
    oddsrule extremal case2 --n 4 --s 1     # bound-attaining sequences
    oddsrule sweep --n 10 --s 2:8 --rs 0.5,1,2 -o table.csv

Exit codes: 0 success, 2 invalid input, 3 internal verification failure.
Machine-readable output (json / csv) prints floats with 17 significant
digits so binary doubles round-trip, and is byte-identical across runs.
"""

from __future__ import annotations

import json
import math
import sys

import click

from . import __version__, bounds, core, extremal, oracle
from .errors import InconsistentInput, IndexOutOfRange, InternalBoundViolation
from .errors import InvalidArgument, OddsRuleError

EXIT_INPUT = 2
EXIT_VERIFY = 3

ORACLE_TOL = 1e-12
DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 42


def fmt17(x: float) -> str:
    """17 significant digits: enough to reproduce the exact double."""
    return format(float(x), ".17g")


def fmt_human(x: float) -> str:
    return format(float(x), ".12g")


def fmt_prob(x: float) -> str:
    """Shortest representation that still round-trips, for re-feedable
    probability lists ('0.2' rather than '0.20000000000000001')."""
    if x == int(x):
        return str(int(x))
    return repr(float(x))


def _json_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return fmt17(v)
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot render {type(v)!r}")


def render_json(doc, indent: int = 0) -> str:
    """Deterministic JSON with .17g floats (json.dumps would use repr)."""
    pad = "  " * indent
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        body = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}'
            for k, v in doc.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        body = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in doc)
        return "[\n" + body + "\n" + pad + "]"
    return _json_scalar(doc)


def _fail(msg: str, code: int = EXIT_INPUT) -> None:
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


# ---------------------------------------------------------------- input


def input_options(f):
    f = click.argument("probs", required=False)(f)
    f = click.option(
        "--file", "-f", "file_path", type=click.Path(),
        help="Read probabilities from a file: JSON {\"p\": [...]} or one per line.",
    )(f)
    f = click.option(
        "--secretary", "secretary_n", type=click.IntRange(min=1), metavar="N",
        help="Use the builtin record sequence p_j = 1/j of length N.",
    )(f)
    f = click.option(
        "--extremal", "extremal_spec", metavar="SPEC",
        help="Use a builtin extremal generator, e.g. 'case2:n=6,s=3' or "
        "'upper:n=5,s=3,rs=1'.",
    )(f)
    return f


format_option = click.option(
    "--format", "output_format", type=click.Choice(["text", "json"]),
    default="text", show_default=True,
)


def monte_carlo_options(f):
    f = click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)(f)
    return click.option(
        "--trials", type=click.IntRange(min=1), default=DEFAULT_TRIALS, show_default=True
    )(f)


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise click.UsageError(f"cannot parse {what}: {exc}")


def _parse_file(path: str) -> list[float]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")
    stripped = text.lstrip()
    try:
        if stripped.startswith("{"):
            doc = json.loads(text)
            return [float(x) for x in doc["p"]]
        return [float(line) for line in text.splitlines() if line.strip()]
    except (ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"cannot parse {path}: {exc}")


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
        raise click.UsageError(f"bad extremal spec {spec!r}: {exc}")


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


def resolve_sequence(probs, file_path, secretary_n, extremal_spec) -> core.OddsSequence:
    """The validated sequence named by the one input given; invalid input
    exits with code 2."""
    given = [
        x for x in (probs, file_path, secretary_n, extremal_spec) if x is not None
    ]
    if len(given) != 1:
        raise click.UsageError(
            "provide exactly one input: inline PROBS, --file, --secretary or --extremal"
        )
    try:
        if secretary_n is not None:
            return core.secretary_sequence(secretary_n)
        if extremal_spec is not None:
            return _parse_extremal_spec(extremal_spec).seq
        p = _parse_file(file_path) if probs is None else _parse_floats(probs, "PROBS")
        return core.validate_probabilities(p)
    except OddsRuleError as exc:
        _fail(str(exc))


# ---------------------------------------------------------------- analyze


def _analysis_document(seq: core.OddsSequence) -> dict:
    report = bounds.bound_report(seq)
    return {
        "n": seq.n,
        "p": list(seq.p),
        "odds": list(seq.r),
        "suffix_sums": list(seq.R),
        "s": report.s,
        "R_s": report.R_s,
        "boundary_flag": report.boundary_flag,
        "v_n": report.v_n,
        "v_n_odds_ratio": report.product_form,
        "bounds": {
            "upper": {
                "value": report.upper,
                "satisfied": report.satisfied["upper"],
                "equality": report.equality["upper"],
            },
            "lower": {
                "value": report.lower,
                "case": report.lower_case,
                "strict": report.lower_strict,
                "satisfied": report.satisfied["lower"],
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


def _echo_analysis_text(doc: dict) -> None:
    click.echo(f"n             {doc['n']}")
    click.echo("p             " + ", ".join(fmt_human(x) for x in doc["p"]))
    click.echo("odds          " + ", ".join(fmt_human(x) for x in doc["odds"]))
    click.echo("suffix sums   " + ", ".join(fmt_human(x) for x in doc["suffix_sums"]))
    click.echo(f"s             {doc['s']}")
    click.echo(f"R_s           {fmt_human(doc['R_s'])}")
    click.echo(f"boundary      {'yes' if doc['boundary_flag'] else 'no'}")
    click.echo(f"V_n           {fmt_human(doc['v_n'])}")
    ratio = doc["v_n_odds_ratio"]
    click.echo(
        "V_n (ratio)   "
        + (fmt_human(ratio) if ratio is not None else "n/a (window has p = 1)")
    )
    b = doc["bounds"]
    eq = "  [equality]" if b["upper"]["equality"] else ""
    click.echo(f"upper         {fmt_human(b['upper']['value'])}{eq}")
    low = b["lower"]
    strict = ", strict" if low["strict"] else ""
    eq = "  [equality]" if low["equality"] else ""
    click.echo(
        f"lower         {fmt_human(low['value'])}  (case {low['case']}{strict}){eq}"
    )
    cor = b["corollary"]
    applicable = "" if cor["applicable"] else "  [not applicable: s = 1]"
    click.echo(f"corollary     {fmt_human(cor['value'])}{applicable}")
    e = b["one_over_e"]
    applicable = "" if e["applicable"] else "  [not applicable: R_1 < 1]"
    click.echo(f"1/e           {fmt_human(e['value'])}{applicable}")
    ai = b["allaart_islas"]
    eq = "  [equality]" if ai.get("equality") else ""
    applicable = "" if ai["applicable"] else "  [not applicable: R_1 < 1]"
    click.echo(f"allaart-islas {fmt_human(ai['value'])}{applicable}{eq}")


def _run_analysis(seq: core.OddsSequence, output_format: str) -> None:
    try:
        doc = _analysis_document(seq)
    except InternalBoundViolation as exc:
        _fail(str(exc), EXIT_VERIFY)
    if output_format == "json":
        click.echo(render_json(doc))
    else:
        _echo_analysis_text(doc)


# ---------------------------------------------------------------- commands


@click.group()
@click.version_option(version=__version__, prog_name="oddsrule")
def main():
    """Optimal stopping on independent indicators: the odds rule, its
    success probability, sharp bounds, and verification oracles."""


@main.command()
@input_options
@format_option
def analyze(probs, file_path, secretary_n, extremal_spec, output_format):
    """Threshold, win probability and full bound report for a sequence."""
    _run_analysis(
        resolve_sequence(probs, file_path, secretary_n, extremal_spec), output_format
    )


@main.command()
@click.argument("n", type=click.IntRange(min=1))
@format_option
def secretary(n, output_format):
    """Analyze the builtin record sequence p_j = 1/j (best-choice problem)."""
    _run_analysis(core.secretary_sequence(n), output_format)


@main.command("oracle-check")
@input_options
@monte_carlo_options
@format_option
def oracle_check(probs, file_path, secretary_n, extremal_spec, trials, seed, output_format):
    """Cross-check the closed form against every independent oracle.

    Exits 0 when all exact oracles agree within 1e-12 and the Monte
    Carlo estimate lands within 4 standard errors; exits 3 otherwise
    (which would signal a bug, not a property of the input).
    """
    seq = resolve_sequence(probs, file_path, secretary_n, extremal_spec)
    t = core.threshold(seq)
    v = core.win_probability(seq, t).value

    dp = oracle.dp_optimal_value(seq)
    family = oracle.threshold_rule_values(seq)
    best = max(family)
    checks = {
        "dp": abs(dp.value - v) <= ORACLE_TOL,
        "threshold_family": abs(best - v) <= ORACLE_TOL
        and family[t.s - 1] >= best - ORACLE_TOL,
    }
    rows = {
        "formula": v,
        "dp": dp.value,
        "threshold_family_max": best,
    }
    if seq.n <= oracle.EXHAUSTIVE_MAX_N:
        exhaustive = oracle.exhaustive_value(seq, t.s)
        rows["exhaustive"] = exhaustive
        checks["exhaustive"] = abs(exhaustive - v) <= ORACLE_TOL
    else:
        rows["exhaustive"] = None
    sim = oracle.monte_carlo(seq, t.s, trials, seed)
    rows["monte_carlo"] = sim.estimate
    margin = 4.0 * sim.std_error
    checks["monte_carlo"] = abs(sim.estimate - v) <= margin if margin > 0 else sim.estimate == v

    doc = {
        "n": seq.n,
        "s": t.s,
        "values": rows,
        "monte_carlo": {
            "trials": sim.trials,
            "wins": sim.wins,
            "std_error": sim.std_error,
            "seed": sim.seed,
        },
        "checks": checks,
        "agree": all(checks.values()),
    }
    if output_format == "json":
        click.echo(render_json(doc))
    else:
        click.echo(f"formula V_n            {fmt_human(v)}")
        click.echo(
            f"dp optimal             {fmt_human(dp.value)}"
            f"   {'ok' if checks['dp'] else 'MISMATCH'}"
        )
        click.echo(
            f"threshold family max   {fmt_human(best)}"
            f"   {'ok (attained at s)' if checks['threshold_family'] else 'MISMATCH'}"
        )
        if rows["exhaustive"] is None:
            click.echo(
                f"exhaustive             skipped (n > {oracle.EXHAUSTIVE_MAX_N})"
            )
        else:
            click.echo(
                f"exhaustive             {fmt_human(rows['exhaustive'])}"
                f"   {'ok' if checks['exhaustive'] else 'MISMATCH'}"
            )
        click.echo(
            f"monte carlo            {fmt_human(sim.estimate)}"
            f" +/- {fmt_human(sim.std_error)}"
            f"   {'ok (4 se)' if checks['monte_carlo'] else 'OUTSIDE 4 SE'}"
        )
    if not doc["agree"]:
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
            return list(range(start, stop + 1, step))
        return [int(spec)]
    except ValueError as exc:
        raise click.UsageError(f"bad {name} range {spec!r}: {exc}")


@main.command()
@click.option("--n", "n_spec", required=True, metavar="RANGE",
              help="Horizon values: '10', '2:50', '2:50:4' or '3,7,9'.")
@click.option("--s", "s_spec", required=True, metavar="RANGE",
              help="Threshold values, same syntax.")
@click.option("--rs", "rs_spec", required=True, metavar="GRID",
              help="Comma-separated R_s grid, e.g. '0.5,1,1.5,3'.")
@click.option("--output", "-o", "output_path", required=True,
              type=click.Path(allow_dash=True))
def sweep(n_spec, s_spec, rs_spec, output_path):
    """Tabulate bounds over an (n, s, R_s) grid as CSV.

    Columns: n,s,R_s,case,lower,upper,corollary,v_n.  The v_n column is
    filled from the matching extremal configuration where one exists
    (case 1 at the given sum, case 2 at R_s = 1, the limiting family for
    case 3) and left empty otherwise.  Grid points outside the lower
    bound's domain (s outside [1, n], R_s NaN or negative, R_s < 1 with
    s > 1) are skipped with a notice.
    """
    ns = _parse_int_range(n_spec, "--n")
    ss = _parse_int_range(s_spec, "--s")
    grid = _parse_floats(rs_spec, f"--rs grid {rs_spec!r}")
    if not ns or not ss or not grid:
        _fail("empty sweep grid")

    lines = ["n,s,R_s,case,lower,upper,corollary,v_n"]
    rows = 0
    for n in ns:
        for s in ss:
            for rs in grid:
                try:
                    low = bounds.lower_bound(n, s, rs)
                except InconsistentInput as exc:
                    click.echo(
                        f"notice: skipping inconsistent point n={n} s={s} "
                        f"R_s={rs}: {exc}",
                        err=True,
                    )
                    continue
                upper = core.odds_to_prob(rs)
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
                rows += 1
    if rows == 0:
        _fail("sweep grid produced no consistent rows")
    text = "\n".join(lines) + "\n"
    if output_path == "-":
        click.echo(text, nl=False)
        return
    try:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(f"cannot write {output_path}: {exc}")
    click.echo(f"wrote {rows} rows to {output_path}", err=True)


def _sweep_attained_value(n: int, s: int, rs: float, case: int) -> float | None:
    try:
        if case == 1:
            cfg = extremal.lower_extremal_case1(n, rs)
        elif case == 2 and rs == 1.0:
            cfg = extremal.lower_extremal_case2(n, s)
        elif case == 3:
            cfg = extremal.lower_near_extremal_case3(n, s)
        else:
            return None
    except OddsRuleError:
        return None
    seq = cfg.seq
    return core.win_probability(seq, core.threshold(seq)).value


@main.command("extremal")
@click.argument("family", type=click.Choice(list(EXTREMAL_FAMILIES)))
@click.option("--n", type=int, required=True)
@click.option("--s", type=int)
@click.option("--rs", type=float, help="Suffix odds sum (R_1 for case1).")
@click.option("--alpha", type=float, help="Case-3 closeness parameter in (0, 1).")
@format_option
def extremal_cmd(family, output_format, **params):
    """Emit a bound-attaining probability sequence.

    Families: 'upper' (single-entry window, attains the upper bound),
    'case1' (constant, attains the sub-unit lower bound), 'case2'
    (equal window, attains the unit-sum lower bound), 'case3' (limiting
    family for the strict lower bound).
    """
    try:
        cfg = _generate_extremal(family, {k: v for k, v in params.items() if v is not None})
    except OddsRuleError as exc:
        _fail(str(exc))
    seq = cfg.seq
    v = core.win_probability(seq, core.threshold(seq)).value
    if output_format == "json":
        params = {
            "n": cfg.parameters.n,
            "s": cfg.parameters.s,
            "R_s": cfg.parameters.R_s,
        }
        if cfg.parameters.alpha is not None:
            params["alpha"] = cfg.parameters.alpha
        click.echo(
            render_json(
                {
                    "family": family,
                    "p": list(seq.p),
                    "target_bound": cfg.target_bound,
                    "v_n": v,
                    "attainment": cfg.attainment,
                    "parameters": params,
                }
            )
        )
    else:
        click.echo(",".join(fmt_prob(x) for x in seq.p))
        click.echo(f"target     {fmt_human(cfg.target_bound)}")
        click.echo(f"v_n        {fmt_human(v)}")
        click.echo(f"attainment {cfg.attainment}")


@main.command()
@input_options
@click.option("--k", type=int, default=None,
              help="Threshold index; defaults to the optimal s.")
@monte_carlo_options
@format_option
def simulate(probs, file_path, secretary_n, extremal_spec, k, trials, seed, output_format):
    """Monte Carlo estimate of a threshold rule's win probability."""
    seq = resolve_sequence(probs, file_path, secretary_n, extremal_spec)
    rule_k = core.threshold(seq).s if k is None else k
    try:
        exact = oracle.threshold_rule_value(seq, rule_k)
    except IndexOutOfRange as exc:
        _fail(str(exc))
    sim = oracle.monte_carlo(seq, rule_k, trials, seed)
    if output_format == "json":
        click.echo(
            render_json(
                {
                    "n": seq.n,
                    "k": rule_k,
                    "trials": sim.trials,
                    "wins": sim.wins,
                    "estimate": sim.estimate,
                    "std_error": sim.std_error,
                    "seed": sim.seed,
                    "exact": exact,
                }
            )
        )
    else:
        click.echo(f"k          {rule_k}")
        click.echo(f"trials     {sim.trials}")
        click.echo(f"wins       {sim.wins}")
        click.echo(f"estimate   {fmt_human(sim.estimate)} +/- {fmt_human(sim.std_error)}")
        click.echo(f"exact      {fmt_human(exact)}")
        click.echo(f"seed       {sim.seed}")


if __name__ == "__main__":
    main()
