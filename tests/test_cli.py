import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import riskcap
from riskcap import cli
from riskcap.cli import (
    EXIT_COMPUTATION,
    EXIT_VALIDATION,
    ValidationError,
    load_loss_data,
    main,
    read_capital_csv,
    resolve_seed,
)


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def loss_files(tmp_path):
    counts = _write(tmp_path / "counts.csv", "year,count\n1,2\n2,3\n")
    events = _write(
        tmp_path / "events.csv",
        "year,amount\n1,2.5\n1,10.0\n2,1.5\n2,3.0\n2,7.0\n",
    )
    return counts, events


@pytest.fixture
def config_file(tmp_path, loss_files):
    counts, events = loss_files
    cfg = {
        "seed": 99,
        "cells": [
            {
                "id": "cell-a",
                "severity_family": "lognormal",
                "counts_file": counts,
                "events_file": events,
            }
        ],
    }
    return _write(tmp_path / "config.json", json.dumps(cfg))


def test_load_loss_data(loss_files):
    data = load_loss_data(*loss_files)
    assert list(data.annual_counts) == [2, 3]
    assert data.severities.size == 5


def test_counts_file_validation(tmp_path):
    bad = _write(tmp_path / "c.csv", "year,count\n1,-2\n")
    with pytest.raises(ValidationError, match=":2:"):
        cli.read_counts_file(bad)
    badh = _write(tmp_path / "h.csv", "yr,n\n1,2\n")
    with pytest.raises(ValidationError, match="header"):
        cli.read_counts_file(badh)


def test_events_file_validation(tmp_path):
    bad = _write(tmp_path / "e.csv", "year,amount\n1,0.0\n")
    with pytest.raises(ValidationError, match=":2:"):
        cli.read_events_file(bad)


def test_tally_mismatch(tmp_path):
    counts = _write(tmp_path / "c.csv", "year,count\n1,2\n")
    events = _write(tmp_path / "e.csv", "year,amount\n1,2.5\n")
    with pytest.raises(ValidationError, match="tally mismatch"):
        load_loss_data(counts, events)


def test_event_year_missing_from_counts(tmp_path):
    counts = _write(tmp_path / "c.csv", "year,count\n1,1\n")
    events = _write(tmp_path / "e.csv", "year,amount\n1,2.5\n7,1.0\n")
    with pytest.raises(ValidationError, match="missing from counts"):
        load_loss_data(counts, events)


def test_seed_precedence(monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
    assert resolve_seed(7) == 7  # flag wins
    assert resolve_seed(None) == 123  # env next
    assert resolve_seed(None, 55) == 123  # env also beats a config default
    monkeypatch.delenv(cli.SEED_ENV_VAR)
    assert resolve_seed(None, 55) == 55  # config before the clock
    assert resolve_seed(None) >= 0  # time-derived fallback

    monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
    with pytest.raises(ValidationError):
        resolve_seed(None)


def test_negative_seed_exit_code(tmp_path, config_file, monkeypatch, capsys):
    out = str(tmp_path / "bias.csv")
    argv = ["experiment", "bias", "--m-grid", "5", "--R", "1", "--K", "1000", "--out", out]
    assert main(argv + ["--seed", "-1"]) == EXIT_VALIDATION
    assert "--seed" in capsys.readouterr().err

    monkeypatch.setenv(cli.SEED_ENV_VAR, "-5")
    assert main(argv) == EXIT_VALIDATION
    assert cli.SEED_ENV_VAR in capsys.readouterr().err
    monkeypatch.delenv(cli.SEED_ENV_VAR)

    cfg = json.loads(open(config_file).read())
    for seed in (-3, 3.7, True):
        cfg["seed"] = seed
        bad = _write(tmp_path / "bad-seed.json", json.dumps(cfg))
        assert main(["capital", "--config", bad, "--K", "1000"]) == EXIT_VALIDATION
        assert "config seed" in capsys.readouterr().err


@pytest.mark.parametrize("amount", ["inf", "-inf", "nan"])
def test_non_finite_amount_exit_code(tmp_path, config_file, loss_files, amount, capsys):
    _, events = loss_files
    text = open(events).read().replace("2,3.0", f"2,{amount}")
    _write(tmp_path / "events.csv", text)
    assert main(["capital", "--config", config_file, "--K", "1000"]) == EXIT_VALIDATION
    assert f"{events}:5:" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_exit_code(config_file, workers, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["capital", "--config", config_file, "--K", "1000", "--workers", workers])
    assert exc.value.code == EXIT_VALIDATION
    assert "--workers" in capsys.readouterr().err


def test_simulate_round_trip(tmp_path):
    counts = str(tmp_path / "c.csv")
    events = str(tmp_path / "e.csv")
    rc = main(
        [
            "simulate", "--family", "lognormal", "--lambda0", "10", "--mu0", "1",
            "--sigma0", "2", "--years", "5", "--seed", "42",
            "--counts-out", counts, "--events-out", events,
        ]
    )
    assert rc == 0
    data = load_loss_data(counts, events)
    assert data.years == 5

    # fixed seed: identical files
    counts2 = str(tmp_path / "c2.csv")
    events2 = str(tmp_path / "e2.csv")
    main(
        [
            "simulate", "--family", "lognormal", "--lambda0", "10", "--years", "5",
            "--seed", "42", "--counts-out", counts2, "--events-out", events2,
        ]
    )
    assert open(counts).read() == open(counts2).read()
    assert open(events).read() == open(events2).read()


def test_fit_command(tmp_path, config_file, capsys):
    out_csv = str(tmp_path / "fit.csv")
    rc = main(["fit", "--config", config_file, "--csv", out_csv])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "lambda" in captured and "# seed=99" in captured
    lines = open(out_csv).read().splitlines()
    assert lines[0] == "# seed=99"
    assert lines[1] == "cell_id,parameter,estimate,ci_lower,ci_upper"


def test_capital_command_byte_identical(tmp_path, config_file):
    out1 = str(tmp_path / "cap1.csv")
    out2 = str(tmp_path / "cap2.csv")
    args = ["capital", "--config", config_file, "--K", "2000", "--mode", "both", "--csv"]
    assert main(args + [out1]) == 0
    assert main(args + [out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()

    rows = read_capital_csv(out1)
    assert [r["mode"] for r in rows] == ["conditional", "predictive"]
    assert all(r["ci_lower"] <= r["value"] <= r["ci_upper"] for r in rows)


def test_fit_truncated_interval_follows_seed(tmp_path, config_file):
    cfg = json.loads(open(config_file).read())
    cfg["cells"][0]["truncation"] = {"sigma_sq": [None, 2.0]}
    config = _write(tmp_path / "trunc.json", json.dumps(cfg))

    def fit_rows(seed, name):
        out = str(tmp_path / name)
        assert main(["fit", "--config", config, "--seed", str(seed), "--csv", out]) == 0
        text = open(out).read()
        return text, {line.split(",")[1]: line for line in text.splitlines()[2:]}

    text_1, rows_1 = fit_rows(1, "a.csv")
    text_1_again, _ = fit_rows(1, "b.csv")
    _, rows_2 = fit_rows(2, "c.csv")
    assert text_1 == text_1_again
    assert rows_1["sigma"] != rows_2["sigma"]
    assert rows_1["lambda"] == rows_2["lambda"]  # exact interval, no draws


def test_capital_non_finite_losses_exit_code(tmp_path, capsys):
    # Two exceedances far above the threshold give a tail-index posterior
    # Gamma(3, 0.01); draws near 0 overflow the severities to inf.
    counts = _write(tmp_path / "c.csv", "year,count\n1,1\n2,1\n")
    amount = repr(math.exp(50.0))
    events = _write(tmp_path / "e.csv", f"year,amount\n1,{amount}\n2,{amount}\n")
    cell = {"id": "p", "severity_family": "pareto", "threshold_L": 1.0,
            "counts_file": counts, "events_file": events}
    cfg = _write(tmp_path / "cfg.json", json.dumps({"seed": 1, "cells": [cell]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["capital", "--config", cfg, "--K", "10000", "--mode", "predictive"])
    assert rc == EXIT_COMPUTATION
    err = capsys.readouterr().err
    assert "non-finite values out of 10000" in err
    # riskcap reports the overflow; numpy must not warn about it on stderr.
    assert "overflow encountered" not in err
    assert [str(w.message) for w in caught if "overflow" in str(w.message)] == []


def test_cli_import_leaves_out_scipy_stats_and_optimize():
    code = (
        "import sys, riskcap.cli; "
        "print(*(m in sys.modules for m in ('scipy.special', 'scipy.stats', 'scipy.optimize')))"
    )
    src = str(Path(riskcap.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    # scipy.special is imported up front, so its cost is not moved into the first call.
    assert out.stdout.split() == ["True", "False", "False"]


def test_capital_insufficient_data_exit_code(tmp_path):
    counts = _write(tmp_path / "c.csv", "year,count\n1,2\n2,1\n")
    events = _write(tmp_path / "e.csv", "year,amount\n1,2.5\n1,3.0\n2,4.0\n")
    cfg = _write(
        tmp_path / "cfg.json",
        json.dumps(
            {
                "seed": 1,
                "cells": [
                    {
                        "id": "tiny",
                        "severity_family": "lognormal",
                        "counts_file": counts,
                        "events_file": events,
                    }
                ],
            }
        ),
    )
    rc = main(["capital", "--config", cfg, "--K", "100", "--mode", "predictive"])
    assert rc == EXIT_VALIDATION


def test_capital_bad_config_exit_code(tmp_path):
    cfg = _write(tmp_path / "cfg.json", json.dumps({"cells": []}))
    assert main(["capital", "--config", cfg]) == EXIT_VALIDATION


def test_aggregate_command(tmp_path, config_file, capsys):
    cap = str(tmp_path / "cap.csv")
    main(["capital", "--config", config_file, "--K", "2000", "--mode", "conditional", "--csv", cap])
    out = str(tmp_path / "total.csv")
    rc = main(["aggregate", cap, cap, "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "bank total" in text
    rows = read_capital_csv(cap)
    lines = open(out).read().splitlines()
    assert lines[-1].startswith("TOTAL")
    assert str(2 * rows[0]["value"]) in lines[-1] or repr(2 * rows[0]["value"]) in lines[-1]


def test_aggregate_mixed_modes_rejected(tmp_path, config_file):
    cap_c = str(tmp_path / "cap_c.csv")
    cap_p = str(tmp_path / "cap_p.csv")
    main(["capital", "--config", config_file, "--K", "2000", "--mode", "conditional", "--csv", cap_c])

    # predictive needs >= 4 severities; the fixture has 5
    main(["capital", "--config", config_file, "--K", "2000", "--mode", "predictive", "--csv", cap_p])
    assert main(["aggregate", cap_c, cap_p]) == EXIT_VALIDATION


def test_experiment_bias_single_realization(tmp_path):
    out = str(tmp_path / "bias.csv")
    rc = main(
        [
            "experiment", "bias", "--severity", "lognormal", "--m-grid", "5",
            "--R", "1", "--K", "2000", "--q", "0.99", "--seed", "3", "--out", out,
        ]
    )
    assert rc == 0
    lines = [l for l in open(out).read().splitlines() if not l.startswith("#")]
    assert lines[0] == "M,relative_bias"
    assert len(lines) == 2


def test_experiment_bias_byte_identical_across_cpu_counts(tmp_path, monkeypatch):
    # experiment runs on every usable CPU; the CSV must not depend on how many.
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        out = tmp_path / f"bias-{cpus}.csv"
        rc = main(
            [
                "experiment", "bias", "--m-grid", "5,10", "--R", "3", "--K", "2000",
                "--q", "0.99", "--seed", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_experiment_track(tmp_path):
    out = str(tmp_path / "t1.csv")
    rc = main(
        [
            "experiment", "track", "--severity", "lognormal", "--m-grid", "5,10",
            "--K", "2000", "--q", "0.99", "--seed", "3", "--out", out,
        ]
    )
    assert rc == 0
    lines = [l for l in open(out).read().splitlines() if not l.startswith("#")]
    assert lines[0].startswith("M,K,mu_hat")
    assert len(lines) == 3
