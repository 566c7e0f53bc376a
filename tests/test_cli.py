import csv
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
)


def _write(path, text):
    path.write_text(text)
    return str(path)


def _capital_rows(path):
    """The rows of a capital CSV by column, its numbers as floats."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    text = ("cell_id", "mode", "warnings")
    return [{k: v if k in text else float(v) for k, v in row.items()}
            for row in csv.DictReader(lines)]


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


def test_counts_file_validation(config_file, loss_files, capsys):
    counts, _ = loss_files
    for text, shown in [
        ("year,count\n1,-2\n2,3\n", ":2: negative count -2"),
        ("yr,n\n1,2\n2,3\n", ": expected header 'year,count'"),
        ("year,count\n1,2\n2,3,7\n", ":3: malformed row ['2', '3', '7']"),
    ]:
        _write(Path(counts), text)
        assert main(["fit", "--config", config_file]) == EXIT_VALIDATION
        assert f"{counts}{shown}" in capsys.readouterr().err


def test_events_file_validation(config_file, loss_files, capsys):
    _, events = loss_files
    for text, shown in [
        ("year,amount\n1,0.0\n1,10.0\n2,1.5\n2,3.0\n2,7.0\n", ":2: non-positive amount 0.0"),
        ("year,amount\n1,2.5\n1,10.0\n2,1.5\n2,3.0,999\n2,7.0\n",
         ":5: malformed row ['2', '3.0', '999']"),
    ]:
        _write(Path(events), text)
        assert main(["fit", "--config", config_file]) == EXIT_VALIDATION
        assert f"{events}{shown}" in capsys.readouterr().err


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


def test_seed_precedence(tmp_path, config_file, monkeypatch, capsys):
    cfg = json.loads(open(config_file).read())
    del cfg["seed"]
    no_seed = _write(tmp_path / "no-seed.json", json.dumps(cfg))
    argv = ["capital", "--K", "1000", "--mode", "conditional", "--config"]

    def seed(*args):
        assert main(argv + list(args)) == 0
        return int(capsys.readouterr().out.splitlines()[0].removeprefix("# seed="))

    monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
    assert seed(config_file, "--seed", "7") == 7  # flag wins
    assert seed(no_seed) == 123  # env next
    assert seed(config_file) == 123  # env also beats a config default
    monkeypatch.delenv(cli.SEED_ENV_VAR)
    assert seed(config_file) == 99  # config before the clock
    assert seed(no_seed) >= 0  # time-derived fallback

    monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
    assert main(argv + [no_seed]) == EXIT_VALIDATION
    assert cli.SEED_ENV_VAR in capsys.readouterr().err


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
    assert "lambda" in captured and "seed" not in captured
    lines = open(out_csv).read().splitlines()
    assert lines[0] == "cell_id,parameter,estimate,ci_lower,ci_upper"


def test_capital_command_byte_identical(tmp_path, config_file):
    out1 = str(tmp_path / "cap1.csv")
    out2 = str(tmp_path / "cap2.csv")
    args = ["capital", "--config", config_file, "--K", "2000", "--mode", "both", "--csv"]
    assert main(args + [out1]) == 0
    assert main(args + [out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()

    rows = _capital_rows(out1)
    assert [r["mode"] for r in rows] == ["conditional", "predictive"]
    assert all(r["ci_lower"] <= r["value"] <= r["ci_upper"] for r in rows)


def test_fit_csv_does_not_depend_on_the_seed(tmp_path, config_file, monkeypatch):
    # fit draws nothing: even a truncated lognormal interval is exact.
    cfg = json.loads(open(config_file).read())
    cfg["cells"][0]["truncation"] = {"sigma_sq": [None, 2.0]}
    config = _write(tmp_path / "trunc.json", json.dumps(cfg))
    texts = []
    for seed in ("1", "2"):
        monkeypatch.setenv(cli.SEED_ENV_VAR, seed)
        out = tmp_path / f"fit-{seed}.csv"
        assert main(["fit", "--config", config, "--csv", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert "cell-a,sigma," in texts[0]


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
        "print(*(m in sys.modules for m in "
        "('scipy.special', 'scipy.stats', 'scipy.optimize', 'scipy.integrate')))"
    )
    src = str(Path(riskcap.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    # scipy.special is imported up front, so its cost is not moved into the first call.
    assert out.stdout.split() == ["True", "False", "False", "False"]


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


def _capital_csv(tmp_path, config_file, cell_id, mode="conditional", q="0.999"):
    """A capital CSV of the fixture's loss history under the name ``cell_id``."""
    cfg = json.loads(open(config_file).read())
    cfg["cells"][0]["id"] = cell_id
    config = _write(tmp_path / f"{cell_id}.json", json.dumps(cfg))
    out = str(tmp_path / f"cap-{cell_id}-{mode}-{q}.csv")
    argv = ["capital", "--config", config, "--K", "2000", "--mode", mode, "--q", q, "--csv", out]
    assert main(argv) == 0
    return out


def _total(path):
    last = open(path).read().splitlines()[-1].split(",")
    assert last[0] == "TOTAL"
    return float(last[4])


def test_aggregate_command(tmp_path, config_file, capsys):
    cap_a = _capital_csv(tmp_path, config_file, "cell-a")
    cap_b = _capital_csv(tmp_path, config_file, "cell-b")
    out = str(tmp_path / "total.csv")
    rc = main(["aggregate", cap_a, cap_b, "--out", out])
    assert rc == 0
    assert "bank total" in capsys.readouterr().out
    values = [_capital_rows(cap)[0]["value"] for cap in (cap_a, cap_b)]
    lines = open(out).read().splitlines()
    assert [line.split(",")[0] for line in lines] == ["cell_id", "cell-a", "cell-b", "TOTAL"]
    assert lines[-1].split(",")[4] == repr(values[0] + values[1])


def test_aggregate_total_is_sum_of_distinct_cells(tmp_path, config_file):
    caps = [_capital_csv(tmp_path, config_file, c) for c in ("a", "b", "c")]
    values = [_capital_rows(cap)[0]["value"] for cap in caps]
    out = str(tmp_path / "total.csv")
    assert main(["aggregate", *caps, "--out", out]) == 0
    assert _total(out) == pytest.approx(sum(values), rel=1e-15)
    assert _total(out) >= max(values)
    assert main(["aggregate", caps[0], "--out", out]) == 0
    assert _total(out) == values[0]


def test_aggregate_independent_of_input_order(tmp_path, config_file):
    caps = [_capital_csv(tmp_path, config_file, c) for c in ("a", "b", "c")]
    totals = []
    for order in (caps, caps[::-1], caps[1:] + caps[:1]):
        out = str(tmp_path / "total.csv")
        assert main(["aggregate", *order, "--out", out]) == 0
        totals.append(_total(out))
    assert totals == pytest.approx([totals[0]] * 3, rel=1e-15)


def test_aggregate_rejects_repeated_cell(tmp_path, config_file, capsys):
    cap_a = _capital_csv(tmp_path, config_file, "cell-a")
    cap_b = _capital_csv(tmp_path, config_file, "cell-b")
    # Line 1 is the seed comment and line 2 the header, so the row is line 3.
    assert main(["aggregate", cap_a, cap_b, cap_a]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{cap_a}:3: cell 'cell-a' already entered from {cap_a}:3" in err

    # The same cell from another run is still the same cell.
    rerun = str(tmp_path / "rerun.csv")
    assert main(["capital", "--config", config_file, "--K", "2000", "--mode", "conditional",
                 "--seed", "5", "--csv", rerun]) == 0
    assert main(["aggregate", cap_a, rerun]) == EXIT_VALIDATION
    assert f"{rerun}:3:" in capsys.readouterr().err


def test_aggregate_mixed_q_rejected(tmp_path, config_file, capsys):
    cap_a = _capital_csv(tmp_path, config_file, "cell-a")
    cap_b = _capital_csv(tmp_path, config_file, "cell-b", q="0.99")
    assert main(["aggregate", cap_a, cap_b]) == EXIT_VALIDATION
    assert "mixed" in capsys.readouterr().err


_CAPITAL_HEADER = "# seed=1\ncell_id,mode,q,K,value,ci_lower,ci_upper,warnings\n"


@pytest.mark.parametrize(
    "rows, message",
    [
        ("a,conditional,0.999,2000\n", ":3: malformed row"),
        ("a,conditional,0.999,2000,ten,9.0,11.0,\n", ":3: malformed row"),
        ("a,conditional,0.999,2000,10.0,9.0,11.0,,extra\n", ":3: malformed row"),
        ("a,conditional,0.999,2000,10.0,9.0,11.0,\nb,conditional,0.999,2000,inf,9.0,11.0,\n",
         ":4: non-finite"),
        ("", ": no capital rows"),
    ],
    ids=["short", "non-numeric", "long", "non-finite", "empty"],
)
def test_aggregate_malformed_capital_csv_exit_code(tmp_path, rows, message, capsys):
    path = _write(tmp_path / "cap.csv", _CAPITAL_HEADER + rows)
    assert main(["aggregate", path]) == EXIT_VALIDATION
    assert f"{path}{message}" in capsys.readouterr().err


def test_row_numbers_count_comment_lines(config_file, loss_files, capsys):
    counts, _ = loss_files
    _write(Path(counts), "# seed=1\nyear,count\n1,2\n2,-1\n")
    assert main(["fit", "--config", config_file]) == EXIT_VALIDATION
    assert f"{counts}:4: negative count" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change",
    [
        {"counts_file": None},
        {"events_file": None},
        {"severity_family": None},
        {"freq_prior": {"shape": 1}},
        {"sev_prior": {"shape": 1, "scale": 2}},
        {"truncation": {"sigma_sq": [1.0]}},
        {"truncation": {"sigma_sq": 5}},
        {"truncation": {"sigma_sq": ["low", 2.0]}},
        {"truncation": [["sigma_sq", 1.0, 2.0]]},
        {"truncation": {"xi": [1.0, None]}},
        {"truncation": {"sigma_sq": [3.0, 2.0]}},
        {"enforce_finite_mean": "false"},
        {"enforce_finite_mean": True},
        {"freq_prior": {}},
        {"sev_prior": {}},
        {"sev_prior": []},
        # cell-a's 5 events leave the lognormal posterior with dof_nu = 0: improper.
        {"sev_prior": {"dof_nu": -5, "scale_beta": 1.0, "loc_theta": 0.0, "prec_phi": 1.0}},
    ],
    ids=["no-counts", "no-events", "no-family", "freq-prior", "sev-prior", "short-bound",
         "scalar-bound", "text-bound", "bounds-list", "wrong-parameter", "empty-range",
         "finite-mean-text", "finite-mean-lognormal", "freq-prior-empty", "sev-prior-empty",
         "sev-prior-list", "improper-posterior"],
)
@pytest.mark.parametrize("command", ["fit", "capital"])
def test_malformed_config_cell_exit_code(tmp_path, config_file, change, command, capsys):
    cfg = json.loads(open(config_file).read())
    cell = cfg["cells"][0]
    for key, value in change.items():
        if value is None:
            del cell[key]
        else:
            cell[key] = value
    bad = _write(tmp_path / "bad.json", json.dumps(cfg))
    argv = [command, "--config", bad] + (["--K", "1000"] if command == "capital" else [])
    assert main(argv) == EXIT_VALIDATION
    assert "cell 'cell-a'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config, shown",
    [
        (["--q", "1.5"], {}, "q must be in (0, 1), got 1.5"),
        (["--q", "0"], {}, "got 0.0"),
        (["--gamma", "1"], {}, "gamma must be in (0, 1), got 1.0"),
        (["--K", "0"], {}, "K must be an integer >= 1, got 0"),
        ([], {"q": 1.0}, "q must be in (0, 1), got 1.0"),
        ([], {"gamma": "0.9"}, "got '0.9'"),
        ([], {"K": 0}, "K must be an integer >= 1, got 0"),
        ([], {"K": 10.5}, "got 10.5"),
        (["--K", "20000000"], {}, "K must be at most 10000000, got 20000000"),
        ([], {"K": 2e7}, "K must be at most 10000000, got 20000000.0"),
    ],
    ids=["q-flag", "q-zero", "gamma-flag", "K-flag", "q-config", "gamma-text", "K-config",
         "K-fraction", "K-above-cap-flag", "K-above-cap-config"],
)
def test_capital_range_exit_code(tmp_path, config_file, argv, config, shown, capsys):
    cfg = {**json.loads(open(config_file).read()), "K": 1000, **config}
    path = _write(tmp_path / "range.json", json.dumps(cfg))
    assert main(["capital", "--config", path] + argv) == EXIT_VALIDATION
    assert shown in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["experiment", "bias", "--m-grid", "5,x"], "'5,x'"),
        (["experiment", "bias", "--m-grid", "5,0"], "year count must be an integer >= 1, got 0"),
        (["experiment", "track", "--q", "1.0"], "--q must be in (0, 1), got 1.0"),
        (["experiment", "bias", "--R", "0"], "--R must be an integer >= 1, got 0"),
        (["experiment", "bias", "--K", "0"], "--K must be an integer >= 1, got 0"),
        (["experiment", "bias", "--K", "20000000"], "--K must be at most 10000000, got 20000000"),
        (["experiment", "track", "--m-grid", "10,5"],
         "--m-grid must be ascending for track, got '10,5'"),
        (["experiment", "bias", "--sigma0", "0"], "sigma_sq must be positive"),
        (["experiment", "track", "--R", "0"], "--R applies to experiment bias only"),
        (["simulate", "--family", "pareto", "--lambda0", "-1", "--years", "5"], "lambda0"),
        (["simulate", "--family", "pareto", "--lambda0", "2", "--years", "0"], "--years"),
    ],
    ids=["m-grid-text", "m-grid-zero", "q", "R", "K", "K-above-cap", "m-grid-descending", "sigma0",
         "track-R", "lambda0", "years"],
)
def test_command_line_range_exit_code(tmp_path, argv, shown, capsys):
    # The flags under test come last, so they override these.
    if argv[0] == "experiment":
        n, base = 2, ["--m-grid", "5", "--K", "1000", "--out", f"{tmp_path}/o.csv"]
        base += ["--R", "1"] if argv[1] == "bias" else []
    else:
        n, base = 1, ["--counts-out", f"{tmp_path}/c.csv", "--events-out", f"{tmp_path}/e.csv"]
    argv = argv[:n] + base + ["--seed", "1"] + argv[n:]
    assert main(argv) == EXIT_VALIDATION
    assert shown in capsys.readouterr().err


@pytest.mark.parametrize(
    "change",
    [
        {"truncation": {"lambda": [1000.0, None]}},
        {"severity_family": "pareto", "threshold_L": 1.0, "truncation": {"xi": [1000.0, None]}},
        {"truncation": {"sigma_sq": [1e9, None]}},
        {"truncation": {"mu": [1e6, None]}},
        {"truncation": {"mu": [3.5, None], "sigma_sq": [None, 0.05]}},
        # Each bound alone holds more than 1e-4 of the mass; together they hold less.
        {"truncation": {"mu": [2.0, None], "sigma_sq": [None, 0.15]}},
    ],
    ids=["lambda", "xi", "sigma_sq", "mu", "mu-and-sigma_sq", "joint-box"],
)
@pytest.mark.parametrize("command", ["fit", "capital"])
def test_truncation_without_posterior_mass_exit_code(tmp_path, config_file, change, command,
                                                     capsys):
    cfg = json.loads(open(config_file).read())
    cfg["cells"][0].update(change)
    path = _write(tmp_path / "empty.json", json.dumps(cfg))
    argv = [command, "--config", path]
    if command == "capital":
        argv += ["--K", "1000", "--mode", "predictive"]
    assert main(argv) == EXIT_VALIDATION
    assert "cell 'cell-a': truncation region for" in capsys.readouterr().err


def _one_cell_config(tmp_path, events, **cell):
    """A config of one cell, 'thin', whose history is one year holding ``events``."""
    counts = _write(tmp_path / "thin-counts.csv", f"year,count\n1,{len(events)}\n")
    amounts = _write(tmp_path / "thin-events.csv",
                     "year,amount\n" + "".join(f"1,{a}\n" for a in events))
    cell = dict(id="thin", counts_file=counts, events_file=amounts, **cell)
    return _write(tmp_path / "thin.json", json.dumps({"seed": 1, "cells": [cell]}))


@pytest.mark.parametrize(
    "events, cell, shown",
    [
        ([2.5], {"severity_family": "lognormal"}, "at least two severities are required"),
        ([1.0, 1.0], {"severity_family": "pareto", "threshold_L": 1.0},
         "all severities sit at the threshold"),
        ([0.5, 3.0], {"severity_family": "pareto", "threshold_L": 1.0},
         "severity below threshold"),
    ],
    ids=["one-lognormal-event", "pareto-at-threshold", "pareto-below-threshold"],
)
@pytest.mark.parametrize("command", ["fit", "capital"])
def test_too_little_data_for_the_mle_exit_code(tmp_path, events, cell, shown, command, capsys):
    argv = [command, "--config", _one_cell_config(tmp_path, events, **cell)]
    if command == "capital":
        argv += ["--K", "1000", "--mode", "conditional"]
    assert main(argv) == EXIT_VALIDATION
    assert f"cell 'thin': {shown}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "events, cell",
    [
        ([2.5], {"severity_family": "lognormal",
                 "sev_prior": {"dof_nu": 4.0, "scale_beta": 16.0, "loc_theta": 1.0,
                               "prec_phi": 2.0}}),
        ([1.0], {"severity_family": "pareto", "threshold_L": 1.0,
                 "sev_prior": {"shape": 8.0, "scale": 0.25}}),
    ],
    ids=["lognormal", "pareto-at-threshold"],
)
def test_informative_priors_carry_a_history_too_thin_for_the_mle(tmp_path, events, cell):
    # Predictive capital fits no MLE: with priors on both parts, one event is enough.
    config = _one_cell_config(tmp_path, events, freq_prior={"shape": 4.0, "scale": 0.5}, **cell)
    out = tmp_path / "thin.csv"
    argv = ["capital", "--config", config, "--K", "1000", "--mode", "predictive", "--csv", str(out)]
    assert main(argv) == 0
    assert [r["mode"] for r in _capital_rows(out)] == ["predictive"]


@pytest.mark.parametrize(
    "events, cell, params",
    [
        ([2.5], {"severity_family": "lognormal",
                 "sev_prior": {"dof_nu": 4.0, "scale_beta": 16.0, "loc_theta": 1.0,
                               "prec_phi": 2.0}}, ["lambda", "mu", "sigma"]),
        ([1.0], {"severity_family": "pareto", "threshold_L": 1.0,
                 "sev_prior": {"shape": 8.0, "scale": 0.25}}, ["lambda", "xi"]),
    ],
    ids=["lognormal", "pareto-at-threshold"],
)
def test_fit_reports_posterior_intervals_without_an_mle(tmp_path, events, cell, params, capsys):
    config = _one_cell_config(tmp_path, events, freq_prior={"shape": 4.0, "scale": 0.5}, **cell)
    out = tmp_path / "fit.csv"
    assert main(["fit", "--config", config, "--csv", str(out)]) == 0
    assert "no MLE" in capsys.readouterr().out
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[1] for r in rows] == params
    for _, _, estimate, lo, hi in rows:
        assert estimate == "" and float(lo) < float(hi)


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
