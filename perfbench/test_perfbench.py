"""Tests of the benchmark's own code: span arithmetic, the SLA, the input
generator and the output checks. They run no Monte Carlo."""

import math
import threading
import types

import pytest

import checks
import workloads as wl
from tracer import Span, Tracer, self_times, union_length


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)


def test_self_time_counts_overlapping_thread_spans_once():
    parent = Span(1, "p", 0.0, 10.0, None, thread=1)
    spans = [
        parent,
        Span(2, "c", 1.0, 5.0, 1, thread=2),
        Span(3, "c", 3.0, 7.0, 1, thread=3),  # overlaps span 2 on another thread
        Span(4, "c", 8.0, 9.0, 1, thread=2),
        Span(5, "g", 2.0, 4.0, 2, thread=2),  # grandchild: inside span 2 already
        Span(6, "c", 9.5, 12.0, 1, thread=3),  # runs past the parent: clipped
    ]
    selfs = self_times(spans)
    # children cover [1, 7] + [8, 9] + [9.5, 10] = 7.5 of the parent's 10
    assert selfs[1] == pytest.approx(2.5)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[5] == pytest.approx(2.0)


def test_worker_thread_spans_take_the_callers_open_span_as_parent():
    tracer = Tracer()
    with tracer.span("outer"):
        done = []

        def batch():
            with tracer.span("batch"):
                with tracer.span("draw"):
                    pass
            done.append(True)

        threads = [threading.Thread(target=batch) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads) and len(done) == 3
    by_id = {s.id: s for s in tracer.spans}
    outer = next(s for s in tracer.spans if s.name == "outer")
    for s in tracer.spans:
        if s.name == "batch":
            assert s.parent == outer.id and s.thread != outer.thread
        if s.name == "draw":
            assert by_id[s.parent].name == "batch" and by_id[s.parent].thread == s.thread


def test_installed_wrappers_record_spans_and_are_removed():
    class Stream:
        @property
        def value(self):
            return 7

    module = types.SimpleNamespace(f=lambda x, size=None: x * 2)
    original_f, original_prop = module.f, Stream.__dict__["value"]
    tracer = Tracer()

    def after(attrs, args, result):
        attrs["size"] = args.get("size")

    targets = [(module, "f", "mod.f", after), (Stream, "value", "stream.value", None)]
    with tracer.installed(targets):
        assert module.f(3, size=4) == 6
        assert Stream().value == 7
    assert module.f is original_f and Stream.__dict__["value"] is original_prop
    assert [(s.name, s.attrs) for s in tracer.spans] == [
        ("mod.f", {"size": 4}), ("stream.value", {})
    ]


def test_sla_matches_hand_computed_values():
    # Pareto, lambda=2, xi=2, L=1, q=0.999: 0.0005**-0.5 + 2 * 2/(2-1)
    assert checks.sla_quantile("pareto", {"lambda": 2.0, "xi": 2.0}) == pytest.approx(
        44.721359549995796 + 4.0, rel=1e-12
    )
    # Lognormal, lambda=10, mu=1, sigma=2: the standard normal 0.9999 quantile
    # is 3.7190164854556804; exp(1 + 2 * 3.71901648545568) = 4619.46, plus
    # the mean correction 10 * exp(1 + 4/2) = 200.855.
    sla = checks.sla_quantile("lognormal", {"lambda": 10.0, "mu": 1.0, "sigma_sq": 4.0})
    assert sla == pytest.approx(4619.459 + 200.855, abs=0.01)


def _read(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_are_deterministic_per_seed(tmp_path, name):
    workload = wl.WORKLOADS[name]
    wl.write_inputs(workload, 5, tmp_path / "a")
    wl.write_inputs(workload, 5, tmp_path / "b")
    wl.write_inputs(workload, 6, tmp_path / "c")
    a, b, c = _read(tmp_path / "a"), _read(tmp_path / "b"), _read(tmp_path / "c")
    events = [n for n in a if n.endswith("-events.csv")]
    assert all(a[n] == b[n] for n in events)
    assert all(a[n] != c[n] for n in events)
    assert wl.program_seed(5, 0) == wl.program_seed(5, 0) != wl.program_seed(6, 0)


def test_inputs_hold_the_true_parameters_as_mle(tmp_path):
    _, histories = wl.write_inputs(wl.WORKLOADS["capital-tail"], 9, tmp_path)
    for cell, counts, amounts in histories:
        assert counts.size == cell.years and counts.sum() == amounts.size == 40
        est = wl.mle(cell, counts, amounts)
        assert est["lambda"] == cell.lambda0
        if cell.family == "pareto":
            assert est["xi"] == pytest.approx(cell.xi0, rel=1e-12)
        else:
            assert est["mu"] == pytest.approx(cell.mu0, rel=1e-12)
            assert est["sigma_sq"] == pytest.approx(cell.sigma0**2, rel=1e-12)


GOOD_CSV = (
    "# seed=1\n"
    "cell_id,mode,q,K,value,ci_lower,ci_upper,warnings\n"
    "ln-ref,conditional,0.999,1000000,4830.5,4690.1,4975.2,\n"
)


def _problems(text):
    rows, problems = checks.parse_capital_csv(text, [("ln-ref", "conditional")], 10**6)
    sla = checks.sla_quantile("lognormal", {"lambda": 10.0, "mu": 1.0, "sigma_sq": 4.0})
    return problems or [p for r in rows for p in checks.sla_problems(r, sla, "ln-ref")]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: t.replace("4830.5", "nan"),
        lambda t: t.replace("4830.5", "inf"),
        lambda t: t.replace("4690.1", "4900.0"),  # value below ci_lower
        lambda t: t.replace("1000000", "1000"),
        lambda t: t.replace(",4975.2,", ","),  # a field missing
        lambda t: t.replace("ci_upper", "upper"),
        lambda t: t.replace("ln-ref,conditional", "ln-ref,predictive"),
        lambda t: t.replace("4830.5,4690.1,4975.2", "9830.5,9690.1,9975.2"),  # far from SLA
        lambda t: t.split("cell_id")[0],  # truncated file
    ],
)
def test_corrupted_capital_csv_is_an_error(corrupt):
    assert _problems(GOOD_CSV) == []
    assert _problems(corrupt(GOOD_CSV))


GOOD_STUDY = (
    "# seed=1\n# realizations=20\n# reference_quantile=4865.2\n"
    "M,relative_bias\n5,2.2\n40,0.12\n400,0.03\n"
)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: t.replace("0.12", "inf"),
        lambda t: t.replace("4865.2", "5300.0"),  # outside 4900 +/- 6%
        lambda t: t.replace("400,0.03\n", ""),
        lambda t: t.replace("# reference_quantile=4865.2\n", ""),
    ],
)
def test_corrupted_study_csv_is_an_error(corrupt):
    sla = checks.sla_quantile("lognormal", {"lambda": 10.0, "mu": 1.0, "sigma_sq": 4.0})
    assert checks.parse_study_csv(GOOD_STUDY, (5, 40, 400), sla, 4900.0)[1] == []
    assert checks.parse_study_csv(corrupt(GOOD_STUDY), (5, 40, 400), sla, 4900.0)[1]


def test_relative_halfwidth():
    row = {"value": 100.0, "ci_lower": 97.0, "ci_upper": 105.0}
    assert math.isclose(checks.relative_halfwidth(row), 0.04)


def test_runner_counts_a_corrupted_output_as_failed(tmp_path):
    import worker
    runner = worker.Runner(wl.WORKLOADS["capital-ln"], 1, tmp_path)
    for text in (GOOD_CSV, GOOD_CSV.replace("4830.5", "nan")):
        call = worker.Call("conditional", 1, 2, 0.3, text.encode(), [])
        runner._check(call)
        runner.calls.append(call)
    assert runner.failed == [runner.calls[1]]
    assert math.isclose(worker.halfwidth_factor(runner.calls[0]),
                        (((4975.2 - 4690.1) / 2 / 4830.5) / 0.01) ** 2)
