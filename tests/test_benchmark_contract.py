"""riskcap's real output passes the benchmark's own checks.

Each call runs the benchmark's argv through ``riskcap.cli.main`` and checks
the CSV as the benchmark does: the header and rows of a capital CSV, the
conditional rows against the single-loss approximation, and the study's
reference against its band. bias-desk is left out, because its study alone
takes seconds.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["capital-ln", "capital-tail"])
def test_every_call_kind_passes_the_benchmark_checks(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker
    from workloads import WORKLOADS

    runner = worker.Runner(WORKLOADS[name], 1, tmp_path)
    for kind in runner.kinds:
        call = runner.call(kind, runner.seed_for(kind, 0))
        assert call.problems == [], f"{name} {kind}"
