"""Command-line frontend: data ingestion, configuration, and CSV emission.

Loss data lives in two CSV files per cell: a counts file (``year,count``)
listing every observation year including zero-count ones, and an events
file (``year,amount``) whose per-year rows must tally to the counts file.
Every CSV the commands read or write goes through ``_read_csv`` or
``_write_csv``, and every emitted CSV is byte-stable under a fixed seed.

Exit codes: 0 success, 2 validation failure, 3 computation failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import capital as capital_mod
from . import experiments as exp_mod
from .bayes import InsufficientDataError, NIXParams
from .capital import CellModel, LossData
from .distributions import (GammaParams, LognormalParams, ParetoParams, PointParams, RngStream,
                            severity_tail)
from .mc_engine import NonFiniteLossError, usable_cpus

__all__ = ["main"]

EXIT_VALIDATION = 2
EXIT_COMPUTATION = 3

SEED_ENV_VAR = "RISKCAP_SEED"

DEFAULT_Q = 0.999
DEFAULT_K = 10**6
DEFAULT_GAMMA = 0.95
DEFAULT_M_GRID = (5, 10, 15, 20, 40, 60, 80, 100, 200, 400)
#: The horizon over which ``experiment`` refuses a true point whose losses may overflow.
EXPERIMENT_OVERFLOW_YEARS = 10**6

#: The keys a config may hold, and those a config cell may hold; any other is refused.
CONFIG_KEYS = {"cells", "seed", "q", "K", "gamma", "mode"}
CELL_KEYS = {"id", "severity_family", "counts_file", "events_file", "threshold_L", "freq_prior",
             "sev_prior", "truncation", "enforce_finite_mean"}

CAPITAL_COLUMNS = ["cell_id", "mode", "q", "K", "value", "ci_lower", "ci_upper", "warnings"]
CAPITAL_TYPES = (str, str, float, int, float, float, float, str)


class ValidationError(Exception):
    """Bad configuration or malformed input data."""


# ---------------------------------------------------------------------------
# Numbers

#: The spelling of a number in a CSV field, a command-line flag or a seed: ASCII only,
#: where ``int`` and ``float`` also take spaces, a "+", digit underscores and non-ASCII digits.
_NUMBER = {int: re.compile(r"-?[0-9]+"),
           float: re.compile(r"-?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|inf|nan)")}


def _parse(source, kind, text):
    """``kind`` (int or float) of ``text`` spelt as ``_NUMBER`` has it; any other
    spelling raises ValidationError naming ``source``."""
    if not _NUMBER[kind].fullmatch(text):
        noun = "integer" if kind is int else "number"
        raise ValidationError(f"{source} must be a decimal {noun} in ASCII, "
                              f"without '+', '_' or spaces, got {text!r}")
    try:
        return kind(text)
    except ValueError:  # int() refuses more than sys.get_int_max_str_digits() digits
        raise ValidationError(f"{source} has too many digits ({len(text)})") from None


def _real(value) -> bool:
    """Whether ``value`` is an int or float that a double holds: finite, and not a
    bool, which Python takes as 0 or 1. ``abs(value) <= max`` is exact for an int."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _checked(name, value, least=None):
    """``value`` if it is a probability in (0, 1), or with ``least`` an integer >= ``least``."""
    if _real(value) and (0 < value < 1 if least is None else value == int(value) >= least):
        return value if least is None else int(value)
    what = "in (0, 1)" if least is None else f"an integer >= {least}"
    raise ValidationError(f"{name} must be {what}, got {value!r}")


# ---------------------------------------------------------------------------
# CSV I/O


def _read_csv(path, header, types):
    """(line number, typed fields, raw row) of each data row of a CSV file.

    Lines starting with ``#`` are skipped, but the numbers are the file's own:
    a row is numbered by the line it starts on, even if a quoted field spans
    lines. The first other line must be ``header``; a row with another field
    count, or a number field that ``_parse`` refuses, is malformed. A file
    that cannot be opened or decoded raises ValidationError naming it.
    """
    try:
        with open(path, newline="") as fh:
            kept = [(n, line) for n, line in enumerate(fh, start=1) if not line.startswith("#")]
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"{path}: cannot read: {e}")
    reader = csv.reader(line for _, line in kept)

    def numbered():
        start = 0  # lines the reader has consumed: the next row starts on kept[start]
        for row in reader:
            yield kept[start][0], row
            start = reader.line_num

    rows = numbered()
    first = next(rows, (None, None))[1]
    if first != header:
        raise ValidationError(f"{path}: expected header {','.join(header)!r}, got {first}")
    for n, row in rows:
        try:  # zip(strict=True) raises ValueError on a row of another length
            fields = [f if t is str else _parse(path, t, f)
                      for t, f in zip(types, row, strict=True)]
        except (ValueError, ValidationError):
            raise ValidationError(f"{path}:{n}: malformed row {row!r}")
        yield n, fields, row


def _write_csv(path, header, rows, comments=()):
    """Write ``# comment`` lines, the header and the rows of a CSV file.

    A float is written as its ``repr``, which reads back to the same float,
    and None as an empty field.
    """
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)


def load_loss_data(counts_path, events_path) -> LossData:
    """Read and cross-validate the two-file loss format.

    Each counts row opens its year's entry (line, count, amounts); each events
    row appends its amount to its year's entry. Years come out sorted, and the
    amounts of a year in events-file order.
    """
    table = {}
    for i, (year, count), _ in _read_csv(counts_path, ["year", "count"], (int, int)):
        if count < 0:
            raise ValidationError(f"{counts_path}:{i}: negative count {count}")
        if year in table:
            raise ValidationError(f"{counts_path}:{i}: duplicate year {year}")
        table[year] = (i, count, [])
    if not table:
        raise ValidationError(f"{counts_path}: no observation years")
    for i, (year, amount), _ in _read_csv(events_path, ["year", "amount"], (int, float)):
        if not math.isfinite(amount):
            raise ValidationError(f"{events_path}:{i}: non-finite amount {amount}")
        if not amount > 0:
            raise ValidationError(f"{events_path}:{i}: non-positive amount {amount}")
        if year not in table:
            raise ValidationError(
                f"{events_path}:{i}: event year {year} missing from counts file {counts_path} "
                "(zero-count years must still appear in counts)"
            )
        table[year][2].append(amount)
    for year, (i, count, amounts) in table.items():
        if len(amounts) != count:
            raise ValidationError(f"{counts_path}:{i}: tally mismatch for year {year}: "
                                  f"counts file says {count}, {events_path} has {len(amounts)}")
    entries = [table[y] for y in sorted(table)]
    return LossData(annual_counts=np.array([count for _, count, _ in entries]),
                    severities=np.array([a for _, _, amounts in entries for a in amounts]))


# ---------------------------------------------------------------------------
# Config


def _load_cell(c) -> tuple[CellModel, LossData]:
    """A config cell's model and loss history; a malformed cell names itself."""
    name = c.get("id", "cell")
    try:
        for key in ("severity_family", "counts_file", "events_file"):
            if key not in c:
                raise ValidationError(f"cell {name!r}: missing {key}")
        for key in c:
            if key not in CELL_KEYS:
                raise ValueError(f"unknown key {key!r}")
        for key in ("counts_file", "events_file"):  # open() would take 0 as stdin
            if not isinstance(c[key], str):
                raise TypeError(f"{key} must be a file path string, got {json.dumps(c[key])}")
        family = c["severity_family"]

        def number(field, value, default=None):  # ``default`` stands for null
            if value is None:
                return default
            if not _real(value):
                raise TypeError(f"{field} must be a number, got {json.dumps(value)}")
            return float(value)

        def prior(kind, key):
            return kind(**{k: number(f"{key} {k}", v) for k, v in c[key].items()})

        # Read by presence: a prior given as {} is refused, not taken as flat.
        freq_prior = sev_prior = truncation = None
        if c.get("freq_prior") is not None:
            freq_prior = prior(GammaParams, "freq_prior")
        if c.get("sev_prior") is not None:
            sev_prior = prior(NIXParams if family == "lognormal" else GammaParams, "sev_prior")
        if c.get("truncation") is not None:
            truncation = {p: (number(f"truncation of {p}", lo, -math.inf),
                              number(f"truncation of {p}", hi, math.inf))
                          for p, (lo, hi) in c["truncation"].items()}
        model = CellModel(
            cell_id=name,
            severity_family=family,
            threshold_L=number("threshold_L", c.get("threshold_L")),
            freq_prior=freq_prior,
            sev_prior=sev_prior,
            truncation=truncation,
            enforce_finite_mean=c.get("enforce_finite_mean", False),
        )
    except (AttributeError, TypeError, ValueError) as e:
        raise ValidationError(f"cell {name!r}: invalid config: {e}")
    return model, load_loss_data(c["counts_file"], c["events_file"])


def load_config(path) -> dict:
    """The config at ``path``: its keys are among ``CONFIG_KEYS``, and its cells are
    objects with distinct ids, each a non-empty string (``cell`` when left out)."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as e:  # also bad UTF-8, and an int past int()'s digit limit
        raise ValidationError(f"cannot read config {path}: {e}")
    if not isinstance(cfg, dict) or not isinstance(cfg.get("cells"), list) or not cfg["cells"]:
        raise ValidationError("config must define at least one cell")
    for key in cfg:
        if key not in CONFIG_KEYS:
            raise ValidationError(f"{path}: unknown key {key!r}")
    first = {}  # a cell's random streams derive from its id
    for pos, c in enumerate(cfg["cells"], start=1):
        if not isinstance(c, dict):
            raise ValidationError(f"{path}: cell {pos} must be an object, got {json.dumps(c)}")
        cell_id = c.get("id", "cell")
        if not isinstance(cell_id, str) or not cell_id:
            raise ValidationError(
                f"{path}: cell {pos}: id must be a non-empty string, got {json.dumps(cell_id)}")
        if first.setdefault(cell_id, pos) != pos:
            raise ValidationError(
                f"{path}: cells {first[cell_id]} and {pos} share the id {cell_id!r}")
    return cfg


def _resolve_seed(flag_seed, config_seed=None):
    """Seed precedence: flag, then RISKCAP_SEED env var, then config, then clock."""
    env = os.environ.get(SEED_ENV_VAR)
    for source, value in (("--seed", flag_seed), (SEED_ENV_VAR, env), ("config seed", config_seed)):
        if value is not None:
            return _checked(source, _parse(source, int, value) if isinstance(value, str) else value,
                            least=0)
    return time.time_ns() % 2**63


# ---------------------------------------------------------------------------
# Commands


def cmd_simulate(args):
    seed = _resolve_seed(args.seed)
    years = _checked("--years", args.years, least=1)
    model = _true_model_from_args(args, args.family, years)
    data = exp_mod.generate_synthetic(model, years, RngStream(seed).substream("simulate"))
    years = np.arange(1, data.years + 1)
    _write_csv(args.counts_out, ["year", "count"], zip(years, data.annual_counts))
    _write_csv(args.events_out, ["year", "amount"],
               zip(np.repeat(years, data.annual_counts), data.severities))
    print(f"# seed={seed}")
    print(
        f"wrote {data.years} years ({int(data.severities.size)} events) "
        f"to {args.counts_out} and {args.events_out}"
    )
    return 0


def _fmt(x, digits=4):
    return f"{x:.{digits}g}"


def cmd_fit(args):
    cells = [_load_cell(c) for c in load_config(args.config)["cells"]]
    rows = []
    for model, data in cells:
        no_mle = None
        try:
            mle = capital_mod.fit_mle(model, data)
        except InsufficientDataError as e:  # informative priors may still carry the cell
            mle, no_mle = None, e
        try:
            posteriors = capital_mod.fit_posteriors(model, data)
        except InsufficientDataError as e:
            raise no_mle or e
        summary = capital_mod.fit_summary(mle, *posteriors)

        print(f"cell {model.cell_id} ({model.severity_family} severity, "
              f"{data.years} years, {data.severities.size} events)")
        if no_mle is not None:
            print(f"  no MLE ({no_mle}); posterior intervals only")
        for name, (estimate, lo, hi) in summary.items():
            shown = "" if estimate is None else _fmt(estimate) + " "
            print(f"  {name + ':':7} {shown}({_fmt(lo)}, {_fmt(hi)})")
            rows.append([model.cell_id, name, estimate, lo, hi])
    if args.csv:
        _write_csv(args.csv, ["cell_id", "parameter", "estimate", "ci_lower", "ci_upper"], rows)
    return 0


def cmd_capital(args):
    cfg = load_config(args.config)
    q = args.q if args.q is not None else cfg.get("q", DEFAULT_Q)
    K = args.K if args.K is not None else cfg.get("K", DEFAULT_K)
    gamma = args.gamma if args.gamma is not None else cfg.get("gamma", DEFAULT_GAMMA)
    mode = args.mode if args.mode is not None else cfg.get("mode", "both")
    seed = _resolve_seed(args.seed, cfg.get("seed"))
    q, gamma = _checked("q", q), _checked("gamma", gamma)
    K = _checked("K", K, least=1)
    workers = _checked("--workers", args.workers, least=1)
    if mode not in ("conditional", "predictive", "both"):
        raise ValidationError(f"mode must be conditional, predictive, or both, got {mode!r}")

    cells = [_load_cell(c) for c in cfg["cells"]]  # every cell is read before any is simulated
    reports = []
    for model, data in cells:
        for m, run in (("conditional", capital_mod.conditional_capital),
                       ("predictive", capital_mod.predictive_capital)):
            try:
                if mode in (m, "both"):
                    reports.append(run(model, data, q, K, gamma, seed, workers=workers))
            except InsufficientDataError:  # names its cell already, and exits 2
                raise
            except ValueError as e:  # a computation failure, such as non-finite losses
                raise ValueError(f"cell {model.cell_id!r} [{m}]: {e}") from e

    if args.csv:
        rows = [[r.cell_id, r.mode, r.estimate.q, r.estimate.K, r.estimate.value,
                 r.estimate.ci_lower, r.estimate.ci_upper, "; ".join(r.warnings)] for r in reports]
        _write_csv(args.csv, CAPITAL_COLUMNS, rows, comments=[f"seed={seed}"])
    print(f"# seed={seed}")
    for r in reports:
        e = r.estimate
        line = (
            f"{r.cell_id} [{r.mode}] Q_{e.q:g} = {_fmt(e.value)} "
            f"(CI {_fmt(e.ci_lower)}, {_fmt(e.ci_upper)} at {e.ci_level:g}, K={e.K})"
        )
        print(line)
        for msg in r.warnings:
            print(f"  warning: {msg}")
    return 0


def _read_capital(path):
    """The rows of a capital CSV, as written by ``capital``, each a dict by column.

    Each row also carries its ``path:line`` as ``source``.
    """
    rows = []
    for i, fields, row in _read_csv(path, CAPITAL_COLUMNS, CAPITAL_TYPES):
        if not all(map(_real, fields[2:7])):  # q, K, value and the interval
            raise ValidationError(f"{path}:{i}: non-finite number in row {row!r}")
        rows.append(dict(zip(CAPITAL_COLUMNS, fields), source=f"{path}:{i}"))
    if not rows:
        raise ValidationError(f"{path}: no capital rows")
    return rows


def cmd_aggregate(args):
    rows = []
    for path in args.inputs:
        rows.extend(_read_capital(path))
    modes = {r["mode"] for r in rows}
    qs = {r["q"] for r in rows}
    if len(modes) > 1 or len(qs) > 1:
        raise ValidationError(
            f"cannot aggregate mixed inputs: modes={sorted(modes)}, q={sorted(qs)}"
        )
    first = {}
    for r in rows:
        if first.setdefault(r["cell_id"], r) is not r:
            raise ValidationError(
                f"{r['source']}: cell {r['cell_id']!r} already entered from "
                f"{first[r['cell_id']]['source']}; each cell enters the bank total once"
            )
    total = sum(r["value"] for r in rows)
    if args.out:
        table = [[r[c] for c in CAPITAL_COLUMNS] for r in rows]
        table.append(["TOTAL", rows[0]["mode"], rows[0]["q"], None, total, None, None,
                      capital_mod.AGGREGATION_NOTE])
        _write_csv(args.out, CAPITAL_COLUMNS, table)
    print(f"bank total [{rows[0]['mode']}] Q_{rows[0]['q']:g} = {_fmt(total)}")
    print(f"note: {capital_mod.AGGREGATION_NOTE}")
    return 0


def _true_model_from_args(args, family: str, years: int) -> PointParams:
    """The true point of ``simulate`` and ``experiment``, refused if over ``years``
    years it expects more than 1e-6 losses above the largest double."""
    try:
        if family == "lognormal":
            # A product, not **2, which raises OverflowError past 1e154.
            sev = LognormalParams(mu=args.mu0, sigma_sq=args.sigma0 * args.sigma0)
        else:
            sev = ParetoParams(xi=args.xi0, threshold_L=args.threshold_L)
    except ValueError as e:
        raise ValidationError(f"invalid true model: {e}")
    try:
        point = PointParams(lam=args.lambda0, severity=sev)
    except ValueError as e:
        raise ValidationError(f"invalid true model: --lambda0: {e}")
    p = severity_tail(np.array([sys.float_info.max]), **point.sampler_args())[0]
    flags = "--mu0, --sigma0" if family == "lognormal" else "--xi0, --threshold-L"
    expected = point.lam * years * p  # losses above the largest double over the run
    if expected > 1e-6:
        raise ValidationError(
            f"invalid true model: {flags} put a loss above the largest double with chance {p:.3g}, "
            f"so {expected:.3g} losses would overflow at --lambda0 {args.lambda0:g} "
            f"over {years:g} simulated years (at most 1e-06 allowed)")
    return point


#: What ``experiment`` suggests when a synthetic history is too short to fit or simulate.
MORE_DATA = "raise --lambda0 or the smallest --m-grid year count"


def cmd_experiment(args):
    seed = _resolve_seed(args.seed)
    model = _true_model_from_args(args, args.severity, EXPERIMENT_OVERFLOW_YEARS)
    K = _checked("--K", 10**5 if args.K is None else args.K, least=1)
    _checked("--q", args.q)

    try:
        if args.which == "track":
            if args.m_grid != sorted(args.m_grid):
                shown = ",".join(map(str, args.m_grid))
                raise ValidationError(f"--m-grid must be ascending for track, got {shown!r}")
            if args.R is not None:
                raise ValidationError(
                    "--R applies to experiment bias only; track runs one realization")
            records = exp_mod.single_realization_track(model, args.m_grid, args.q, K, seed,
                                                       usable_cpus())
            params = ("mu", "sigma", "lambda") if args.severity == "lognormal" else ("xi", "lambda")
            header = (["M", "K"] + [f"{p}_{end}" for p in params for end in ("hat", "lo", "hi")]
                      + ["q_conditional", "q_predictive"])
            rows = [[r.M, r.K_data, *(v for p in params for v in r.estimates[p]),
                     r.q_conditional, r.q_predictive] for r in records]
            _write_csv(args.out, header, rows, comments=[f"seed={seed}"])
            print(f"# seed={seed}")
            print(f"wrote {len(records)} rows to {args.out} (quantiles in thousands)")
        else:
            R = _checked("--R", 20 if args.R is None else args.R, least=1)
            curve = exp_mod.bias_study(model, args.m_grid, R, args.q, K, seed,
                                       workers=usable_cpus())
            comments = [f"seed={seed}", f"realizations={curve.realizations}",
                        f"reference_quantile={curve.reference_quantile!r}"]
            _write_csv(args.out, ["M", "relative_bias"], curve.points, comments)
            print(f"# seed={seed}")
            print(f"wrote {len(curve.points)} rows to {args.out} (R={R}, K={K})")
    except InsufficientDataError as e:  # a synthetic history too thin to fit
        raise ValidationError(f"{e}; {MORE_DATA}")
    except NonFiniteLossError as e:  # a fit so loose that its simulated losses overflow
        raise NonFiniteLossError(f"{e}; {MORE_DATA}") from e
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point


def _number(flag, kind):
    """The argparse ``type`` of a number flag. ``_parse``'s ValidationError passes
    argparse, so ``main`` exits 2 naming the flag."""
    return lambda text: _parse(flag, kind, text)


def _year_grid(text):
    """The argparse ``type`` of ``--m-grid``: comma-separated year counts, each spelt as
    ``_NUMBER`` has it, at least 1 and not repeated. Any other grid raises ValidationError,
    as ``_number``'s does."""
    try:
        grid = [_parse("--m-grid", int, m) for m in text.split(",")]
    except ValidationError:
        raise ValidationError(f"--m-grid must be comma-separated integers, got {text!r}")
    grid = [_checked("--m-grid year count", m, least=1) for m in grid]
    repeated = [m for i, m in enumerate(grid) if m in grid[:i]]
    if repeated:  # its rows would come from one stream, each a copy of the first
        raise ValidationError(f"--m-grid repeats the year count {repeated[0]}, got {text!r}")
    return grid


def _add_true_point_flags(parser, lambda0):
    """The true point's flags; ``--lambda0`` is required when its default is None."""
    parser.add_argument("--lambda0", type=_number("--lambda0", float), required=lambda0 is None,
                        default=lambda0)
    for flag, default in ("--mu0", 1.0), ("--sigma0", 2.0), ("--xi0", 2.0), ("--threshold-L", 1.0):
        parser.add_argument(flag, type=_number(flag, float), default=default)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="riskcap", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write synthetic loss files")
    sim.add_argument("--family", choices=["lognormal", "pareto"], required=True)
    _add_true_point_flags(sim, lambda0=None)
    sim.add_argument("--years", type=_number("--years", int), required=True)
    sim.add_argument("--seed")
    sim.add_argument("--counts-out", required=True)
    sim.add_argument("--events-out", required=True)
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="MLEs and posterior summaries")
    fit.add_argument("--config", required=True)
    fit.add_argument("--csv")
    fit.set_defaults(func=cmd_fit)

    cap = sub.add_parser("capital", help="conditional and/or predictive capital")
    cap.add_argument("--config", required=True)
    cap.add_argument("--q", type=_number("--q", float))
    cap.add_argument("--K", type=_number("--K", int))
    cap.add_argument("--gamma", type=_number("--gamma", float))
    cap.add_argument("--mode", choices=["conditional", "predictive", "both"])
    cap.add_argument("--seed")
    cap.add_argument(
        "--workers", type=_number("--workers", int), default=usable_cpus(),
        help="threads to simulate on (default: the usable CPUs); outputs do not depend on it",
    )
    cap.add_argument("--csv")
    cap.set_defaults(func=cmd_capital)

    exp = sub.add_parser("experiment", help="synthetic bias studies")
    exp.add_argument("which", choices=["track", "bias"])
    exp.add_argument("--severity", choices=["lognormal", "pareto"], default="lognormal")
    _add_true_point_flags(exp, lambda0=10.0)
    # A list, as _year_grid gives, so that track's sorted() check holds for it.
    exp.add_argument("--m-grid", type=_year_grid, default=list(DEFAULT_M_GRID),
                     help="comma-separated year counts")
    exp.add_argument("--q", type=_number("--q", float), default=DEFAULT_Q)
    exp.add_argument("--K", type=_number("--K", int), help="simulations per quantile (default 1e5)")
    exp.add_argument("--R", type=_number("--R", int), help="realizations, bias only (default 20)")
    exp.add_argument("--seed")
    exp.add_argument("--out", required=True)
    exp.set_defaults(func=cmd_experiment)

    agg = sub.add_parser("aggregate", help="sum per-cell capital CSVs")
    agg.add_argument("inputs", nargs="+")
    agg.add_argument("--out")
    agg.set_defaults(func=cmd_aggregate)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValidationError, InsufficientDataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_COMPUTATION


if __name__ == "__main__":
    sys.exit(main())
