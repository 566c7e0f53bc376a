"""Runs one workload in this process and prints its record as one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py --workload capital-ln --seed 1 \\
        --seconds 25 --trace 0 --workdir WORKDIR --spans SPANS.json

``run.py`` starts it in a fresh interpreter, so the process's peak RSS is
the workload's alone. Every riskcap call goes through ``riskcap.cli.main``
in-process, on inputs written by :mod:`workloads`.

With ``--trace 0`` the record holds the end-to-end metrics of untraced calls.
With ``--trace 1`` each round runs every call kind untraced, runs the capital
calls again on one worker, and then runs every call kind traced with the same
seeds; the record holds the per-layer metrics from the spans, and the spans
are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import checks
import workloads as wl
from tracer import Tracer, self_times, union_length
from workloads import CAPITAL_MODES, WORKERS

import riskcap.bayes
import riskcap.capital
import riskcap.cli
import riskcap.estimators
import riskcap.experiments
import riskcap.mc_engine
from riskcap.distributions import RngStream

#: Rounds of the primary call kinds, at least; two give a study its
#: same-seed pair.
MIN_ROUNDS = 2
#: Share of the run's call time given to the secondary call kinds.
SECONDARY_SHARE = 0.2
MIN_SECONDARY_ROUNDS = 4
#: Relative CI half-width that ``time_to_1pct_s`` scales to.
TARGET_HALFWIDTH = 0.01


@dataclass
class Call:
    kind: str
    seed: int
    workers: int
    wall: float
    output: bytes
    problems: list
    sim_years: int = 0
    rows: list = field(default_factory=list)


class Runner:
    def __init__(self, workload: wl.Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.config, self.histories = wl.write_inputs(workload, seed, workdir / "inputs")
        self.sla = {
            cell.id: checks.sla_quantile(cell.family, wl.mle(cell, counts, amounts),
                                         threshold_L=cell.threshold_L)
            for cell, counts, amounts in self.histories
        }
        study = workload.study
        self.study_sla = checks.sla_quantile(study.severity, wl.study_params(study),
                                             threshold_L=study.threshold_L)
        k_reference = inspect.signature(riskcap.experiments.bias_study).parameters["K_reference"]
        self.study_years = wl.sim_years_of_study(study, k_reference.default)
        self.kinds = CAPITAL_MODES + ("study",)
        self.calls: list[Call] = []
        self._outputs = 0

    @property
    def failed(self) -> list:
        return [c for c in self.calls if c.problems]

    def seed_for(self, kind: str, index: int) -> int:
        # Study calls come in same-seed pairs, which double as the determinism check.
        return wl.program_seed(self.seed, index // 2 if kind == "study" else index)

    def call(self, kind: str, seed: int, workers: int = WORKERS, tracer: Tracer | None = None) -> Call:
        out = self.workdir / f"out-{self._outputs}.csv"
        self._outputs += 1
        if kind == "study":
            argv = wl.study_argv(self.workload.study, seed, out)
        else:
            argv = wl.capital_argv(self.config, kind, workers, seed, out)
        console = io.StringIO()
        span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
        problems = []
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console), span:
                code = riskcap.cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception:
            code = None
            problems.append(traceback.format_exc())
        wall = time.perf_counter() - start
        if code != 0 and not problems:
            problems.append(f"exit code {code}: {console.getvalue()[-400:]}")
        output = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        c = Call(kind, seed, workers, wall, output, problems)
        if not problems:
            self._check(c)
        self.calls.append(c)
        return c

    def _check(self, c: Call):
        text = c.output.decode(errors="replace")
        if c.kind == "study":
            study = self.workload.study
            _, c.problems = checks.parse_study_csv(text, study.m_grid, self.study_sla, study.anchor)
            c.sim_years = self.study_years
            return
        expected = [(cell.id, c.kind) for cell in self.workload.cells]
        c.rows, c.problems = checks.parse_capital_csv(text, expected, wl.CAPITAL_K)
        c.sim_years = sum(row["K"] for row in c.rows)
        if c.kind == "conditional" and not c.problems:
            for row in c.rows:
                c.problems += checks.sla_problems(row, self.sla[row["cell_id"]],
                                                  f"{row['cell_id']} conditional")

    @staticmethod
    def same_output(reference: Call, other: Call, what: str):
        if reference.output != other.output:
            other.problems.append(f"{other.kind}: CSV differs from the reference ({what})")

    def warm_up(self) -> dict:
        """One capital call per mode before timing, so lazy set-up is done;
        it reruns later with the same seed as the determinism reference."""
        return {m: self.call(m, self.seed_for(m, 0)) for m in CAPITAL_MODES}

    def check_worker_counts(self, reference: dict) -> dict:
        """Rerun the given capital calls on one worker; outputs must not change."""
        single = {}
        for mode, ref in reference.items():
            single[mode] = self.call(mode, ref.seed, workers=1)
            self.same_output(ref, single[mode], "1 worker against 2")
        return single

    def measure(self, seconds: float) -> dict:
        """Closed loop of untraced calls; returns the timed calls by kind.

        Secondary rounds run whenever their share of the time spent falls
        below SECONDARY_SHARE, so every kind samples the whole run: the host's
        speed drifts over seconds, and a block at the start would see only
        one stretch of it.
        """
        warm = self.warm_up()
        timed = {k: [] for k in self.kinds}
        primary = self.workload.primary
        secondary = [k for k in self.kinds if k not in primary]
        spent = {"primary": 0.0, "secondary": 0.0}
        rounds = {"primary": 0, "secondary": 0}
        deadline = time.perf_counter() + seconds
        while True:
            short = {side: rounds[side] < least
                     for side, least in (("primary", MIN_ROUNDS), ("secondary", MIN_SECONDARY_ROUNDS))}
            if time.perf_counter() >= deadline:
                if not any(short.values()):
                    break
                side = "primary" if short["primary"] else "secondary"
            elif spent["secondary"] < SECONDARY_SHARE * sum(spent.values()):
                side = "secondary"
            else:
                side = "primary"
            for k in secondary if side == "secondary" else primary:
                c = self.call(k, self.seed_for(k, rounds[side]))
                timed[k].append(c)
                spent[side] += c.wall
            rounds[side] += 1
        for mode in CAPITAL_MODES:
            self.same_output(warm[mode], timed[mode][0], "rerun with the same seed")
        self.check_worker_counts({m: timed[m][0] for m in CAPITAL_MODES})
        studies = timed["study"]
        for a, b in zip(studies[0::2], studies[1::2]):
            self.same_output(a, b, "rerun with the same seed")
        return timed

    def trace(self, seconds: float) -> tuple[list, list]:
        """Rounds of untraced, one-worker and traced calls; returns the
        per-round layer metrics and all spans."""
        warm = self.warm_up()
        start = time.perf_counter()
        rounds, spans = [], []
        r = 0
        while r < 1 or time.perf_counter() < start + seconds:
            seeds = {k: self.seed_for(k, 2 * r) for k in self.kinds}
            plain = {k: self.call(k, seeds[k]) for k in self.kinds}
            if r == 0:
                for mode in CAPITAL_MODES:
                    self.same_output(warm[mode], plain[mode], "rerun with the same seed")
            single = self.check_worker_counts({m: plain[m] for m in CAPITAL_MODES})
            tracer = Tracer()
            with tracer.installed(trace_targets()):
                traced = {k: self.call(k, seeds[k], tracer=tracer) for k in self.kinds}
            for k in self.kinds:
                self.same_output(plain[k], traced[k], "traced against untraced")
            metrics = layer_metrics(tracer.spans)
            capital_wall = sum(plain[m].wall for m in CAPITAL_MODES)
            metrics["mc_engine.thread_speedup"] = sum(c.wall for c in single.values()) / capital_wall
            metrics["trace.overhead_ratio"] = (
                sum(c.wall for c in traced.values()) / sum(c.wall for c in plain.values())
            )
            rounds.append(metrics)
            spans.append(tracer.dump())
            r += 1
        return rounds, spans

    def input_properties(self) -> list:
        """Years, events, lambda-hat and computed posterior acceptance per cell."""
        props = []
        for cell, counts, amounts in self.histories:
            model = riskcap.capital.CellModel(
                cell_id=cell.id,
                severity_family=cell.family,
                threshold_L=cell.threshold_L if cell.family == "pareto" else None,
                truncation=(None if cell.sigma_sq_max is None
                            else {"sigma_sq": (-math.inf, cell.sigma_sq_max)}),
                enforce_finite_mean=cell.enforce_finite_mean,
            )
            data = riskcap.capital.LossData(annual_counts=counts, severities=amounts)
            posteriors = riskcap.capital.fit_posteriors(model, data)
            acceptance = math.prod(truncation_acceptance(s) for s in posteriors if s.truncation)
            props.append({
                "cell": cell.id,
                "years": cell.years,
                "events": int(counts.sum()),
                "lambda_hat": float(counts.mean()),
                "mle": wl.mle(cell, counts, amounts),
                "sla_quantile": self.sla[cell.id],
                "computed_acceptance": acceptance,
            })
        return props


def _loss_sample_attrs(attrs, args, result):
    attrs["K"] = int(args["K"])
    attrs["nonfinite"] = int(np.count_nonzero(~np.isfinite(result.values)))


def _posterior_attrs(attrs, args, result):
    size = args.get("size")
    attrs["draws"] = 1 if size is None else int(size)
    if args["state"].truncation:
        attrs["state"] = args["state"]


def trace_targets() -> list:
    """The module-boundary functions to wrap, patched where callers look them up."""
    cli, capital, exp = riskcap.cli, riskcap.capital, riskcap.experiments
    est, bayes, mc = riskcap.estimators, riskcap.bayes, riskcap.mc_engine
    cond, pred = "mc_engine.simulate_conditional_sample", "mc_engine.simulate_predictive_sample"
    return [
        (cli, "load_config", "cli.load", None),
        (cli, "load_loss_data", "cli.load", None),
        (capital, "conditional_capital", "capital.conditional_capital", None),
        (capital, "predictive_capital", "capital.predictive_capital", None),
        (capital, "fit_mle", "capital.fit", None),
        (capital, "fit_posteriors", "capital.fit", None),
        (est, "mle_poisson", "estimators.mle", None),
        (est, "mle_lognormal", "estimators.mle", None),
        (est, "mle_pareto", "estimators.mle", None),
        (capital, "simulate_conditional_sample", cond, _loss_sample_attrs),
        (capital, "simulate_predictive_sample", pred, _loss_sample_attrs),
        (exp, "simulate_conditional_sample", cond, _loss_sample_attrs),
        (exp, "simulate_predictive_sample", pred, _loss_sample_attrs),
        (capital, "estimate_quantile", "mc_engine.quantile", None),
        (exp, "empirical_quantile", "mc_engine.quantile", None),
        (mc, "sample_posterior", "bayes.sample_posterior", _posterior_attrs),
        (bayes, "sample_posterior", "bayes.sample_posterior", _posterior_attrs),
        (bayes, "credible_interval", "bayes.credible_interval", None),
        (exp, "bias_study", "experiments.bias_study", None),
        (exp, "generate_synthetic", "experiments.generate_synthetic", None),
        (RngStream, "substream", "distributions.substream", None),
        (RngStream, "generator", "distributions.generator", None),
    ]


def truncation_acceptance(state) -> float:
    """Posterior mass inside the truncation bounds, computed analytically.

    This is the acceptance rate of rejection sampling from the untruncated
    posterior. Bounds on ``mu`` are not used by any workload.
    """
    from scipy import stats

    p = state.params
    if state.family == "lognormal":
        if "mu" in state.truncation:
            raise ValueError("acceptance of a mu truncation is not computed")
        lo, hi = state.bounds("sigma_sq")
        # sigma_sq = beta / W with W ~ chi2(nu)
        w = stats.chi2(p.dof_nu)
        upper = p.scale_beta / lo if lo > 0 else math.inf
        return float(w.cdf(upper) - w.cdf(p.scale_beta / hi))
    lo, hi = state.bounds(state.param_names[0])
    dist = stats.gamma(p.shape, scale=p.scale)
    return float(dist.cdf(hi) - dist.cdf(max(lo, 0.0)))


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced round.

    ``*_s`` metrics are the wall time covered by a layer's spans (concurrent
    spans counted once); ``*self_s`` metrics sum each span's self time.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = self_times(spans)

    def covered(*names):
        return union_length([(s.start, s.end) for n in names for s in by_name.get(n, ())])

    def self_sum(*names):
        return sum(selfs[s.id] for n in names for s in by_name.get(n, ()))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    cond, pred = "mc_engine.simulate_conditional_sample", "mc_engine.simulate_predictive_sample"
    years = attr_sum(cond, "K") + attr_sum(pred, "K")
    truncated = {id(s.attrs["state"]): s.attrs["state"]
                 for s in by_name.get("bayes.sample_posterior", ()) if "state" in s.attrs}
    return {
        "mc_engine.conditional_s": covered(cond),
        "mc_engine.predictive_self_s": self_sum(pred),
        "mc_engine.years_per_s": years / covered(cond, pred),
        "mc_engine.sim_years": years,
        "mc_engine.quantile_s": covered("mc_engine.quantile"),
        "mc_engine.nonfinite_losses": attr_sum(cond, "nonfinite") + attr_sum(pred, "nonfinite"),
        "bayes.sample_posterior_s": covered("bayes.sample_posterior"),
        "bayes.posterior_draws": attr_sum("bayes.sample_posterior", "draws"),
        "bayes.credible_interval_s": covered("bayes.credible_interval"),
        "bayes.truncation_acceptance": min(
            (truncation_acceptance(s) for s in truncated.values()), default=1.0
        ),
        "capital.fit_s": covered("capital.fit"),
        "capital.self_s": self_sum("capital.conditional_capital", "capital.predictive_capital"),
        "estimators.mle_s": covered("estimators.mle"),
        "distributions.substream_calls": count("distributions.substream"),
        "distributions.substream_s": covered("distributions.substream"),
        "distributions.generator_init_s": covered("distributions.generator"),
        "experiments.generate_synthetic_s": covered("experiments.generate_synthetic"),
        "experiments.self_s": self_sum("experiments.bias_study"),
        "experiments.realizations": count("experiments.generate_synthetic"),
        "cli.load_s": covered("cli.load"),
        "cli.self_s": self_sum("cli.main"),
    }


def halfwidth_factor(call: Call) -> float:
    """Sum over the call's rows of (relative CI half-width / 1%)^2: the
    factor by which K, and so the wall time, must grow for a 1% half-width
    on every row at the O(1/sqrt(K)) rate."""
    return sum((checks.relative_halfwidth(row) / TARGET_HALFWIDTH) ** 2 for row in call.rows)


def end_to_end_metrics(timed: dict) -> dict:
    calls = [c for kind_calls in timed.values() for c in kind_calls]

    def median_wall(kind):
        return statistics.median(c.wall for c in timed[kind])

    return {
        "conditional_s": median_wall("conditional"),
        "predictive_s": median_wall("predictive"),
        "study_s": median_wall("study"),
        "sim_years_per_s": sum(c.sim_years for c in calls) / sum(c.wall for c in calls),
        "time_to_1pct_s": sum(
            median_wall(mode) * statistics.median(halfwidth_factor(c) for c in timed[mode])
            for mode in CAPITAL_MODES
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def timing_summary(timed: dict) -> dict:
    return {
        kind: {
            "n": len(calls),
            "median_s": statistics.median(c.wall for c in calls),
            "min_s": min(c.wall for c in calls),
            "max_s": max(c.wall for c in calls),
            "walls_s": [round(c.wall, 6) for c in calls],
        }
        for kind, calls in timed.items()
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--spans", type=Path, required=True)
    args = p.parse_args(argv)

    workload = wl.WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, args.workdir)
    record = {
        "K": wl.CAPITAL_K,
        "lambda0": [cell.lambda0 for cell in workload.cells],
        "workers": WORKERS,
        "study": {"m_grid": workload.study.m_grid, "R": workload.study.R, "K": workload.study.K},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "inputs": runner.input_properties(),
    }
    if args.trace:
        rounds, spans = runner.trace(args.seconds)
        record["metrics"] = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
        record["trace_rounds"] = len(rounds)
        args.spans.write_text(json.dumps({
            "columns": ["name", "start", "end", "id", "parent", "thread", "attrs"],
            "rounds": spans,
        }))
    else:
        timed = runner.measure(args.seconds)
        record["metrics"] = end_to_end_metrics(timed)
        record["calls"] = timing_summary(timed)
    failed = runner.failed
    record.update(
        attempted=len(runner.calls),
        failed=len(failed),
        error_rate=len(failed) / len(runner.calls),
        problems=[f"{c.kind} seed={c.seed} workers={c.workers}: {msg}"
                  for c in failed[:5] for msg in c.problems[:2]],
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
