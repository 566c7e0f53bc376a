"""The benchmark's tracer patches riskcap functions by name, where callers
look them up; a refactor that moves or renames one would silently break
``perfbench/run.py --trace 1``."""

import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def targets(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker

    return worker.trace_targets()


def test_every_trace_target_resolves(targets):
    for owner, attr, _, _ in targets:
        inspect.getattr_static(owner, attr)  # raises AttributeError if gone


def test_trace_hooks_bind_their_arguments(targets):
    # The after-hooks read these arguments from the bound call.
    needs = {"simulate_conditional_sample": {"K"}, "simulate_predictive_sample": {"K"},
             "sample_posterior": {"state", "size"}}
    checked = set()
    for owner, attr, _, after in targets:
        if after is None:
            continue
        params = set(inspect.signature(inspect.getattr_static(owner, attr)).parameters)
        assert needs[attr] <= params, f"{owner.__name__}.{attr}"
        checked.add(attr)
    assert checked == set(needs)
