import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskcap
from riskcap import cli
from riskcap.cli import (
    EXIT_COMPUTATION,
    EXIT_VALIDATION,
    ValidationError,
    load_loss_data,
    main,
)
from riskcap.distributions import LognormalParams, ParetoParams, PointParams, RngStream
from riskcap.experiments import generate_synthetic


def _write(path, text):
    path.write_text(text)
    return str(path)


def _run(argv):
    """``main``'s exit code and stderr, where a Hypothesis test cannot take ``capsys``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


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
    # Every spelling repr writes reads back, and so do a bare point and an integer.
    _write(Path(loss_files[1]), "year,amount\n1,2.5e+16\n1,1e-05\n2,.5\n2,7.\n2,3\n")
    assert load_loss_data(*loss_files).severities.tolist() == [2.5e16, 1e-05, 0.5, 7.0, 3.0]


def test_counts_file_validation(config_file, loss_files, capsys):
    counts, _ = loss_files
    for text, shown in [
        ("year,count\n1,-2\n2,3\n", ":2: negative count -2"),
        ("yr,n\n1,2\n2,3\n", ": expected header 'year,count'"),
        ("year,count\n1,2\n2,3,7\n", ":3: malformed row ['2', '3', '7']"),
        ("year,count\n1,1_0\n2,3\n", ":2: malformed row ['1', '1_0']"),  # int() takes 1_0
        ("year,count\n1,2\n2_0,3\n", ":3: malformed row ['2_0', '3']"),
        # int() also takes a space, a "+" and a full-width digit.
        ("year,count\n1, 2\n2,3\n", ":2: malformed row ['1', ' 2']"),
        ("year,count\n1,2\n2,+3\n", ":3: malformed row ['2', '+3']"),
        ("year,count\n1,2\n2,\uff13\n", ":3: malformed row ['2', '\uff13']"),
        ("year,count\n1,2\n2,4\n", ":3: tally mismatch for year 2: counts file says 4,"),
        ("year,count\n1,2\n2,3\n1,0\n", ":4: duplicate year 1"),
        ("# seed=1\nyear,count\n", ": no observation years"),
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
        ("year,amount\n1,2.5\n1,3_0.0\n2,1.5\n2,3.0\n2,7.0\n",  # float() takes 3_0.0
         ":3: malformed row ['1', '3_0.0']"),
        # float() also takes the newline and the space of a quoted amount, and a "+".
        ('year,amount\n1,"2.5\n"\n1,10.0\n2,1.5\n2,3.0\n2,7.0\n',
         ":2: malformed row ['1', '2.5\\n']"),
        ('year,amount\n1,2.5\n1," 5.0"\n2,1.5\n2,3.0\n2,7.0\n', ":3: malformed row ['1', ' 5.0']"),
        ("year,amount\n1,2.5\n1,10.0\n2,+1.5\n2,3.0\n2,7.0\n", ":4: malformed row ['2', '+1.5']"),
        ("year,amount\n1,2.5\n1,10.0\n7,1.5\n2,3.0\n2,7.0\n",
         ":4: event year 7 missing from counts file"),
    ]:
        _write(Path(events), text)
        assert main(["fit", "--config", config_file]) == EXIT_VALIDATION
        assert f"{events}{shown}" in capsys.readouterr().err


#: Ways to spoil one data row, each (fields, index of a field) -> fields.
_CORRUPTIONS = {
    "extra field": lambda fields, i: fields + ["1"],
    "missing field": lambda fields, i: fields[:1],
    "non-number": lambda fields, i: [*fields[:i], "x", *fields[i + 1:]],
    "underscore": lambda fields, i: [*fields[:i], fields[i][0] + "_" + fields[i][1:], *fields[i + 1:]],
}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_corrupted_row_names_its_file_and_line(tmp_path_factory, data):
    counts = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=6)
                       .filter(lambda c: sum(c) >= 4), label="counts")
    amounts = data.draw(st.lists(st.floats(10.0, 1e6), min_size=sum(counts),
                                 max_size=sum(counts), unique=True), label="amounts")
    years = range(2001, 2001 + len(counts))
    event_years = [y for y, c in zip(years, counts) for _ in range(c)]
    rows = {"counts": [[str(y), str(c)] for y, c in zip(years, counts)],
            "events": [[str(y), repr(a)] for y, a in zip(event_years, amounts)]}
    d = tmp_path_factory.mktemp("loss")
    paths = {name: str(d / f"{name}.csv") for name in rows}
    cfg = _write(d / "cfg.json", json.dumps({"cells": [{
        "id": "a", "severity_family": "lognormal",
        "counts_file": paths["counts"], "events_file": paths["events"]}]}))
    comments = data.draw(st.integers(0, 2), label="comment lines")

    def write(name, body):
        header = "year,count" if name == "counts" else "year,amount"
        _write(Path(paths[name]), "# note\n" * comments + "\n".join([header, *map(",".join, body)]) + "\n")

    for name, body in rows.items():
        write(name, body)
    assert _run(["fit", "--config", cfg])[0] == 0

    name = data.draw(st.sampled_from(sorted(rows)), label="file")
    row = data.draw(st.integers(0, len(rows[name]) - 1), label="row")
    how = data.draw(st.sampled_from(sorted(_CORRUPTIONS)), label="corruption")
    fields = rows[name][row]
    # An underscore goes between two digits, where int() and float() accept it.
    index = data.draw(st.sampled_from([i for i, f in enumerate(fields) if f[:2].isdigit()]
                                      if how == "underscore" else [0, 1]), label="field")
    write(name, [*rows[name][:row], _CORRUPTIONS[how](fields, index), *rows[name][row + 1:]])
    rc, err = _run(["fit", "--config", cfg])
    assert rc == EXIT_VALIDATION
    assert f"{paths[name]}:{comments + 2 + row}: malformed row" in err


def test_tally_mismatch(tmp_path):
    # The error sits at the year's counts row and names the events file too.
    counts = _write(tmp_path / "c.csv", "# note\nyear,count\n1,1\n2,2\n3,0\n")
    events = _write(tmp_path / "e.csv", "year,amount\n1,2.5\n2,4.0\n")
    with pytest.raises(ValidationError) as caught:
        load_loss_data(counts, events)
    assert str(caught.value) == (f"{counts}:4: tally mismatch for year 2: "
                                 f"counts file says 2, {events} has 1")


def test_event_year_missing_from_counts(tmp_path):
    counts = _write(tmp_path / "c.csv", "year,count\n1,1\n")
    events = _write(tmp_path / "e.csv", "year,amount\n1,2.5\n7,1.0\n")
    with pytest.raises(ValidationError) as caught:
        load_loss_data(counts, events)
    assert str(caught.value).startswith(
        f"{events}:3: event year 7 missing from counts file {counts} ")


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
    # int() takes each of these; the CSV number grammar does not.
    for seed in ("+3", " 7", "1_0", "\uff15"):
        assert main(argv + ["--seed", seed]) == EXIT_VALIDATION
        assert (f"--seed must be a decimal integer in ASCII, without '+', '_' or spaces, "
                f"got {seed!r}") in capsys.readouterr().err

    for seed in ("-5", "\uff15"):  # a full-width 5
        monkeypatch.setenv(cli.SEED_ENV_VAR, seed)
        assert main(argv) == EXIT_VALIDATION
        assert cli.SEED_ENV_VAR in capsys.readouterr().err
    monkeypatch.delenv(cli.SEED_ENV_VAR)

    cfg = json.loads(open(config_file).read())
    for seed in (-3, 3.7, True, "+3", "1_0"):
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


@pytest.mark.parametrize("workers, shown", [
    ("0", "--workers must be an integer >= 1, got 0"),
    ("-2", "--workers must be an integer >= 1, got -2"),
    ("1_0", "--workers must be a decimal integer in ASCII, without '+', '_' or spaces, "
            "got '1_0'"),
], ids=["0", "-2", "1_0"])
def test_workers_below_one_exit_code(config_file, workers, shown, capsys):
    assert main(["capital", "--config", config_file, "--K", "1000",
                 "--workers", workers]) == EXIT_VALIDATION
    assert shown in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "log_amount, K",
    [
        # Two exceedances far above the threshold give a tail-index posterior
        # Gamma(3, 0.01); draws near 0 overflow the severities to inf.
        (50.0, 10_000),
        # A milder history: E[lambda] * (1 + s ln DBL_MAX)^-a = 1.97e-4 losses a
        # year overflow, below 1 - q, yet 1e5 years still draw some.
        (19.0, 100_000),
    ],
    ids=["exp50", "exp19"],
)
def test_capital_non_finite_losses_exit_code(tmp_path, capsys, log_amount, K):
    counts = _write(tmp_path / "c.csv", "year,count\n1,1\n2,1\n")
    amount = repr(math.exp(log_amount))
    events = _write(tmp_path / "e.csv", f"year,amount\n1,{amount}\n2,{amount}\n")
    cell = {"id": "p", "severity_family": "pareto", "threshold_L": 1.0,
            "counts_file": counts, "events_file": events}
    cfg = _write(tmp_path / "cfg.json", json.dumps({"seed": 1, "cells": [cell]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["capital", "--config", cfg, "--K", str(K), "--mode", "predictive"])
    assert rc == EXIT_COMPUTATION
    err = capsys.readouterr().err
    assert "error: cell 'p' [predictive]: loss sample has " in err
    assert f"non-finite values out of {K}" in err
    # riskcap reports the overflow; numpy must not warn about it on stderr.
    assert "overflow encountered" not in err
    assert [str(w.message) for w in caught if "overflow" in str(w.message)] == []


def test_capital_lognormal_overflow_exit_code(tmp_path, capsys):
    # Amounts from 1e150 to 1e300 fit a lognormal whose upper tail passes the
    # largest double, so some conditional severities overflow to inf.
    amounts = [10.0**e for e in range(150, 306, 15)]
    counts = _write(tmp_path / "c.csv", "year,count\n" + "".join(
        f"{y},1\n" for y in range(1, len(amounts) + 1)))
    events = _write(tmp_path / "e.csv", "year,amount\n" + "".join(
        f"{y},{a!r}\n" for y, a in enumerate(amounts, start=1)))
    cell = {"id": "ln", "severity_family": "lognormal", "counts_file": counts, "events_file": events}
    cfg = _write(tmp_path / "cfg.json", json.dumps({"seed": 1, "cells": [cell]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["capital", "--config", cfg, "--K", "10000", "--mode", "conditional"])
    assert rc == EXIT_COMPUTATION
    err = capsys.readouterr().err
    assert "error: cell 'ln' [conditional]: loss sample has " in err
    assert "non-finite values out of 10000" in err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize(
    "which, seed, where",
    [("bias", 3, "cell 'synthetic 3-year history', realization 4: "),
     ("track", 7, "cell 'synthetic 3-year history': ")],
)
def test_experiment_non_finite_losses_name_their_realization(tmp_path, capsys, which, seed,
                                                              where):
    # Three years at a rate of 2 leave the sigma_sq posterior so wide that some
    # predictive severities overflow.
    argv = ["experiment", which, "--lambda0", "2", "--m-grid", "3", "--seed", str(seed),
            "--out", str(tmp_path / "o.csv")]
    assert main(argv + (["--R", "20"] if which == "bias" else [])) == EXIT_COMPUTATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}predictive loss sample has ")
    assert err.rstrip().endswith("non-finite values out of 100000; "
                                 "raise --lambda0 or the smallest --m-grid year count")


def _fresh_python(code, *args):
    """stdout of ``code`` run in a fresh interpreter that imports this riskcap."""
    src = str(Path(riskcap.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_leaves_out_scipy_stats_and_optimize():
    code = "import sys, riskcap.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert _fresh_python(code).strip() == "[]"


def test_scipy_loads_only_for_special_functions(tmp_path, config_file):
    # Capital on an untruncated lognormal cell and the bias study of either family
    # (its reference takes the lognormal tail from math.erfc) evaluate no special
    # function, so they never load scipy, which would add about 25 MiB to their
    # peak memory; a truncated Pareto cell's predictive run needs scipy.special
    # (its truncation mass and tail-index probability) and nothing more.
    counts = _write(tmp_path / "pc.csv", "year,count\n1,2\n2,3\n")
    events = _write(tmp_path / "pe.csv", "year,amount\n1,2.0\n1,3.0\n2,5.0\n2,1.5\n2,4.0\n")
    cell = {"id": "p", "severity_family": "pareto", "threshold_L": 1.0,
            "enforce_finite_mean": True, "counts_file": counts, "events_file": events}
    pareto = _write(tmp_path / "pareto.json", json.dumps({"seed": 1, "cells": [cell]}))
    code = (
        "import sys\n"
        "from riskcap.cli import main\n"
        "cfg, pareto, out = sys.argv[1:]\n"
        "scipy = lambda: sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert main(['capital', '--config', cfg, '--K', '2000', '--mode', 'both']) == 0\n"
        "for family in ('lognormal', 'pareto'):\n"
        "    assert main(['experiment', 'bias', '--severity', family, '--m-grid', '5,10',\n"
        "                 '--K', '2000', '--R', '2', '--seed', '1', '--out', out]) == 0\n"
        "print('after-lognormal', scipy())\n"
        "assert main(['capital', '--config', pareto, '--K', '2000', '--mode', 'predictive']) == 0\n"
        "print('after-pareto', *(m in sys.modules for m in\n"
        "      ('scipy.special', 'scipy.stats', 'scipy.optimize', 'scipy.integrate')))\n"
    )
    out = _fresh_python(code, config_file, pareto, str(tmp_path / "bias.csv")).splitlines()
    assert "after-lognormal []" in out
    assert "after-pareto True False False False" in out


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
        # An integer no double holds, which math.isfinite() would raise OverflowError on.
        (f"a,conditional,0.999,{10**400},10.0,9.0,11.0,\n", ":3: non-finite"),
        # The quoted warnings span lines 3-4, so the bad row starts on line 5.
        ('a,conditional,0.999,2000,10.0,9.0,11.0,"one\ntwo"\n'
         "b,conditional,0.999,2000,x,9.0,11.0,\n", ":5: malformed row"),
    ],
    ids=["short", "non-numeric", "long", "non-finite", "empty", "huge-K", "multi-line-field"],
)
def test_aggregate_malformed_capital_csv_exit_code(tmp_path, rows, message, capsys):
    path = _write(tmp_path / "cap.csv", _CAPITAL_HEADER + rows)
    assert main(["aggregate", path]) == EXIT_VALIDATION
    assert f"{path}{message}" in capsys.readouterr().err


def _spoil(path, how):
    """Remove the file at ``path``, put a directory in its place, or open it with a
    byte that is not UTF-8."""
    if how == "not-utf8":
        Path(path).write_bytes(b"\xff" + Path(path).read_bytes())
    else:
        os.remove(path)
        if how == "directory":
            os.mkdir(path)


#: (command, input, how) for each way an input of a command cannot be read.
_UNREADABLE = [(command, target, how) for command in ("fit", "capital")
               for target, how in [("counts", "missing"), ("events", "directory"),
                                   ("events", "not-utf8"), ("config", "missing"),
                                   ("config", "not-utf8"), ("config", "huge-int")]]
_UNREADABLE += [("aggregate", "capital", how) for how in ("missing", "directory", "not-utf8")]


@pytest.mark.parametrize("command, target, how", _UNREADABLE, ids=map("-".join, _UNREADABLE))
def test_unreadable_input_exit_code(tmp_path, config_file, loss_files, command, target, how,
                                    capsys):
    paths = {"counts": loss_files[0], "events": loss_files[1], "config": config_file,
             "capital": _write(tmp_path / "cap.csv",
                               _CAPITAL_HEADER + "a,conditional,0.999,2000,10.0,9.0,11.0,\n")}
    if how == "huge-int":  # past the digit limit of the int() that json reads integers with
        text = open(config_file).read().replace('"seed": 99', '"K": ' + "9" * 5000)
        _write(Path(config_file), text)
    else:
        _spoil(paths[target], how)
    argv = {"fit": ["fit", "--config", config_file],
            "capital": ["capital", "--config", config_file, "--K", "1000"],
            "aggregate": ["aggregate", paths["capital"]]}[command]
    assert main(argv) == EXIT_VALIDATION
    assert paths[target] in capsys.readouterr().err


_FULL_WIDTH = str.maketrans({str(d): chr(0xFF10 + d) for d in range(10)})


def _respelled(spell):
    """A corruption that replaces field i by ``spell`` of it."""
    return lambda fields, i: [*fields[:i], spell(fields[i]), *fields[i + 1:]]


#: Ways to spoil one capital row, each (fields, index of a number field) -> fields.
_CAPITAL_CORRUPTIONS = {
    "extra field": lambda fields, i: fields + ["1"],
    "missing field": lambda fields, i: fields[:-1],
    "non-number": _respelled(lambda f: "x"),
    "inf": _respelled(lambda f: "inf"),
    # Each of these int() and float() would take.
    "space": _respelled(lambda f: " " + f),
    "plus": _respelled(lambda f: "+" + f),
    "full-width": _respelled(lambda f: f.translate(_FULL_WIDTH)),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_corrupted_capital_row_names_its_file_and_line(tmp_path_factory, data):
    values = data.draw(st.lists(st.floats(1.0, 1e12), min_size=1, max_size=5), label="values")
    rows = [[f"cell-{i}", "predictive", "0.999", "2000", repr(v), repr(v / 2), repr(v * 2), "w"]
            for i, v in enumerate(values)]
    comments = data.draw(st.lists(st.just("note"), max_size=2), label="comment lines")
    path = str(tmp_path_factory.mktemp("capital") / "cap.csv")
    cli._write_csv(path, cli.CAPITAL_COLUMNS, rows, comments)
    assert _run(["aggregate", path])[0] == 0

    row = data.draw(st.integers(0, len(rows) - 1), label="row")
    how = data.draw(st.sampled_from(sorted(_CAPITAL_CORRUPTIONS)), label="corruption")
    index = data.draw(st.integers(2, 6), label="number field")  # q, K, value and the interval
    rows[row] = _CAPITAL_CORRUPTIONS[how](rows[row], index)
    cli._write_csv(path, cli.CAPITAL_COLUMNS, rows, comments)
    rc, err = _run(["aggregate", path])
    assert rc == EXIT_VALIDATION
    assert f"{path}:{len(comments) + 2 + row}: " in err


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
        {"freq_prior": {"shape": math.inf, "scale": 1.0}},
        {"sev_prior": {"dof_nu": 2.0, "scale_beta": math.inf, "loc_theta": 0.0, "prec_phi": 1.0}},
        {"threshold_L": 1.0},
        # JSON's true is no number, though Python reads it as 1.
        {"severity_family": "pareto", "threshold_L": True},
        {"freq_prior": {"shape": True, "scale": 1.0}},
        {"severity_family": "pareto", "threshold_L": 1.0, "truncation": {"xi": [True, None]}},
        # float() would read a number spelt as text, and "1e400" as no bound at all.
        {"truncation": {"sigma_sq": [None, "4.0"]}},
        {"truncation": {"sigma_sq": [None, "1e400"]}},
        # An integer too large for a double.
        {"truncation": {"sigma_sq": [None, 10**400]}},
        {"freq_prior": {"shape": 10**400, "scale": 1.0}},
        {"severity_family": "pareto", "threshold_L": 10**400},
        # open() would take an integer as a file descriptor.
        {"counts_file": 12345},
        {"counts_file": ["c.csv"]},
        {"counts_file": {"a": 1}},
        {"events_file": 12345},
        {"events_file": ["e.csv"]},
        {"events_file": {"a": 1}},
        # A misspelt key would otherwise leave the cell without what it names.
        {"enforce_finte_mean": True},
        {"truncaton": {"sigma_sq": [None, 4.0]}},
    ],
    ids=["no-counts", "no-events", "no-family", "freq-prior", "sev-prior", "short-bound",
         "scalar-bound", "text-bound", "bounds-list", "wrong-parameter", "empty-range",
         "finite-mean-text", "finite-mean-lognormal", "freq-prior-empty", "sev-prior-empty",
         "sev-prior-list", "improper-posterior", "freq-prior-infinite", "sev-prior-infinite",
         "threshold-lognormal", "threshold-true", "freq-prior-true", "truncation-true",
         "numeric-text-bound", "overflow-text-bound", "huge-bound", "huge-freq-prior",
         "huge-threshold", "counts-int", "counts-list", "counts-dict", "events-int",
         "events-list", "events-dict", "misspelt-key", "misspelt-truncation"],
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


@pytest.mark.parametrize("change, shown", [
    ({"severity_family": "pareto", "threshold_L": True}, "threshold_L must be a number, got true"),
    ({"sev_prior": {"dof_nu": 2.0, "scale_beta": 1.0, "loc_theta": False, "prec_phi": 1.0}},
     "sev_prior loc_theta must be a number, got false"),
    ({"truncation": {"mu": [None, True]}}, "truncation of mu must be a number, got true"),
    ({"truncation": {"sigma_sq": [None, "4.0"]}},
     'truncation of sigma_sq must be a number, got "4.0"'),
    ({"truncation": {"sigma_sq": [None, "1e400"]}},
     'truncation of sigma_sq must be a number, got "1e400"'),
    ({"freq_prior": {"shape": 2.0, "scale": "1"}}, 'freq_prior scale must be a number, got "1"'),
    ({"severity_family": "pareto", "threshold_L": "1"}, 'threshold_L must be a number, got "1"'),
    ({"truncation": {"sigma_sq": [None, 10**400]}},
     f"truncation of sigma_sq must be a number, got {10**400}"),
    ({"freq_prior": {"shape": 10**400, "scale": 1.0}},
     f"freq_prior shape must be a number, got {10**400}"),
    ({"severity_family": "pareto", "threshold_L": 10**400},
     f"threshold_L must be a number, got {10**400}"),
    ({"counts_file": 12345}, "counts_file must be a file path string, got 12345"),
    ({"events_file": ["e.csv"]}, 'events_file must be a file path string, got ["e.csv"]'),
    ({"enforce_finte_mean": True}, "unknown key 'enforce_finte_mean'"),
    ({"truncaton": {"sigma_sq": [None, 4.0]}}, "unknown key 'truncaton'"),
], ids=["threshold", "prior", "truncation", "text-bound", "overflow-text-bound", "text-prior",
        "text-threshold", "huge-bound", "huge-prior", "huge-threshold", "counts-int",
        "events-list", "misspelt-key", "misspelt-truncation"])
def test_config_boolean_names_its_field(tmp_path, config_file, change, shown, capsys):
    cfg = json.loads(open(config_file).read())
    cfg["cells"][0].update(change)
    assert main(["fit", "--config", _write(tmp_path / "bad.json", json.dumps(cfg))]) \
        == EXIT_VALIDATION
    assert f"cell 'cell-a': invalid config: {shown}" in capsys.readouterr().err


@pytest.mark.parametrize("number, shown", [("1e400", "Infinity"), ("-1e400", "-Infinity"),
                                           ("Infinity", "Infinity"), ("NaN", "NaN")],
                         ids=["1e400", "-1e400", "Infinity", "NaN"])
@pytest.mark.parametrize("cell, name", [
    ({"truncation": {"sigma_sq": [None, "N"]}}, "truncation of sigma_sq"),
    ({"freq_prior": {"shape": "N", "scale": 1.0}}, "freq_prior shape"),
], ids=["bound", "prior"])
@pytest.mark.parametrize("command", ["fit", "capital"])
def test_config_number_no_double_holds_names_its_cell(tmp_path, config_file, number, shown,
                                                      cell, name, command, capsys):
    # Python's json reads 1e400 as inf, so an overflowing bound read as no bound at all.
    cfg = json.loads(open(config_file).read())
    cfg["cells"][0].update(cell)
    bad = _write(tmp_path / "bad.json", json.dumps(cfg).replace('"N"', number))
    argv = [command, "--config", bad] + (["--K", "1000"] if command == "capital" else [])
    assert main(argv) == EXIT_VALIDATION
    assert f"cell 'cell-a': invalid config: {name} must be a number, got {shown}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("top, cell, shown", [
    ({"k": 1000}, {}, ": unknown key 'k'"),
    ({}, {"id": None}, ": cell 1: id must be a non-empty string, got null"),
    ({}, {"id": ""}, ': cell 1: id must be a non-empty string, got ""'),
    # 5 and "5" would draw different streams but write one cell_id.
    ({}, {"id": 5}, ": cell 1: id must be a non-empty string, got 5"),
    ({}, {"id": ["a"]}, ': cell 1: id must be a non-empty string, got ["a"]'),
    ({}, {"id": {"a": 1}}, ': cell 1: id must be a non-empty string, got {"a": 1}'),
    ({"cells": ["a"]}, {}, ': cell 1 must be an object, got "a"'),
], ids=["top-level-key", "id-null", "id-empty", "id-number", "id-list", "id-object",
        "cell-text"])
@pytest.mark.parametrize("command", ["fit", "capital"])
def test_config_keys_and_ids_exit_code(tmp_path, config_file, top, cell, shown, command, capsys):
    cfg = json.loads(open(config_file).read())
    cfg["cells"][0].update(cell)
    cfg.update(top)
    bad = _write(tmp_path / "bad.json", json.dumps(cfg))
    assert main([command, "--config", bad]) == EXIT_VALIDATION
    assert f"{bad}{shown}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "capital"])
def test_every_cell_is_read_before_any_is_fitted(tmp_path, config_file, command, monkeypatch,
                                                 capsys):
    cfg = json.loads(open(config_file).read())
    events = _write(tmp_path / "b-events.csv", "year,amount\n1,2.5\n1,x\n2,1.5\n2,3.0\n2,7.0\n")
    cfg["cells"].append({**cfg["cells"][0], "id": "cell-b", "events_file": events})
    path = _write(tmp_path / "two.json", json.dumps(cfg))
    calls = []
    monkeypatch.setattr(cli.capital_mod, "conditional_capital", lambda *a, **k: calls.append(a))
    argv = [command, "--config", path] + (["--K", "1000"] if command == "capital" else [])
    assert main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert f"{events}:3: malformed row" in err
    assert out == "" and calls == []


def _one_field_spoiled(valid: dict, bad):
    """``valid`` with one of its fields, drawn, set to a value drawn from ``bad``."""
    return st.sampled_from(sorted(valid)).flatmap(lambda k: bad.map(lambda v: {**valid, k: v}))


#: A prior field that is no positive finite number; JSON's booleans would read as 0 and 1.
_NOT_A_NUMBER = st.one_of(st.sampled_from([math.inf, -math.inf, math.nan]), st.booleans())
_GAMMA = {"shape": 2.0, "scale": 1.0}
_NIX = {"dof_nu": 2.0, "scale_beta": 1.0, "loc_theta": 0.0, "prec_phi": 1.0}
_BOUND = st.floats(-1e6, 1e6)
#: One field of a valid lognormal config cell and an invalid value for it.
_BAD_CELL_FIELD = st.one_of(
    st.tuples(st.just("freq_prior"), st.one_of(
        st.just({}), _one_field_spoiled(_GAMMA, _NOT_A_NUMBER))),
    st.tuples(st.just("sev_prior"), st.one_of(
        st.just({}), st.just(_GAMMA), _one_field_spoiled(_NIX, _NOT_A_NUMBER))),
    st.tuples(st.just("enforce_finite_mean"),
              st.one_of(st.just(True), st.integers(), st.floats(), st.text())),
    st.tuples(st.just("truncation"), st.one_of(
        # lo >= hi on a parameter of the cell, or a parameter it does not have
        st.builds(lambda name, lo, gap: {name: [lo, lo - gap]},
                  st.sampled_from(["lambda", "mu", "sigma_sq"]), _BOUND, st.floats(0.0, 1e6)),
        st.builds(lambda name: {name: [0.0, 1.0]},
                  st.text(max_size=8).filter(lambda n: n not in ("lambda", "mu", "sigma_sq"))))),
    st.tuples(st.just("severity_family"),
              st.text().filter(lambda f: f not in ("lognormal", "pareto"))),
)


@settings(max_examples=60, deadline=None)
@given(cell_id=st.from_regex(r"[a-z][a-z0-9-]{0,7}", fullmatch=True), field=_BAD_CELL_FIELD)
def test_one_invalid_config_field_names_its_cell(tmp_path_factory, cell_id, field):
    d = tmp_path_factory.mktemp("cfg")
    counts = _write(d / "counts.csv", "year,count\n1,2\n2,3\n")
    events = _write(d / "events.csv", "year,amount\n1,2.5\n1,10.0\n2,1.5\n2,3.0\n2,7.0\n")
    cell = {"id": cell_id, "severity_family": "lognormal", "counts_file": counts,
            "events_file": events}
    assert _run(["fit", "--config", _write(d / "good.json", json.dumps({"cells": [cell]}))])[0] == 0
    key, value = field
    bad = _write(d / "bad.json", json.dumps({"cells": [{**cell, key: value}]}))
    for argv in (["fit"], ["capital", "--mode", "predictive", "--K", "1000", "--seed", "1"]):
        rc, err = _run(argv + ["--config", bad])
        assert rc == EXIT_VALIDATION, (argv, err)
        assert f"cell {cell_id!r}" in err


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
        ([], {"K": 10**400}, f"K must be an integer >= 1, got {10**400}"),  # no double holds it
        # Each flag takes only the CSV number grammar, which int() and float() exceed.
        (["--K", "1_000"], {}, "--K must be a decimal integer in ASCII"),
        (["--q", "\u0660.\u0669"], {}, "--q must be a decimal number in ASCII"),  # Arabic-Indic
        (["--gamma", " 0.9"], {}, "--gamma must be a decimal number in ASCII"),
        (["--seed", "1_0"], {}, "--seed must be a decimal integer in ASCII, without '+', '_' or "
                                "spaces, got '1_0'"),
        ([], {"mode": "all"}, "mode must be conditional, predictive, or both, got 'all'"),
    ],
    ids=["q-flag", "q-zero", "gamma-flag", "K-flag", "q-config", "gamma-text", "K-config",
         "K-fraction", "K-huge", "K-underscore", "q-arabic-indic", "gamma-space",
         "seed-underscore", "mode-config"],
)
def test_capital_range_exit_code(tmp_path, config_file, argv, config, shown, capsys):
    cfg = {**json.loads(open(config_file).read()), "K": 1000, **config}
    path = _write(tmp_path / "range.json", json.dumps(cfg))
    assert main(["capital", "--config", path] + argv) == EXIT_VALIDATION
    assert shown in capsys.readouterr().err


def test_capital_K_has_no_cap(tmp_path, config_file):
    # A simulation keeps only the losses its quantile reads, so K is not capped.
    # Conditional on purpose: cell-a's 5 events leave its posterior sigma_sq 2
    # degrees of freedom, and predictive draws on it can overflow at any K.
    out = tmp_path / "capital.csv"
    argv = ["capital", "--config", config_file, "--mode", "conditional", "--K", "20000000"]
    assert main(argv + ["--csv", str(out)]) == 0
    assert [row["K"] for row in _capital_rows(out)] == [20_000_000]


@pytest.mark.parametrize("ids, shown", [(("a", "b", "a"), "cells 1 and 3 share the id 'a'"),
                                        ((None, None), "cells 1 and 2 share the id 'cell'")],
                         ids=["repeated", "both-unnamed"])
@pytest.mark.parametrize("command", ["fit", "capital"])
def test_repeated_cell_id_exit_code(tmp_path, config_file, ids, shown, command, capsys):
    # Two cells with one id would share one random stream and one CSV key.
    cell = json.loads(open(config_file).read())["cells"][0]
    del cell["id"]
    cells = [cell if i is None else {**cell, "id": i} for i in ids]
    path = _write(tmp_path / "twice.json", json.dumps({"cells": cells}))
    assert main([command, "--config", path]) == EXIT_VALIDATION
    assert shown in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["experiment", "bias", "--m-grid", "5,x"], "'5,x'"),
        (["experiment", "bias", "--m-grid", "5,0"], "year count must be an integer >= 1, got 0"),
        (["experiment", "track", "--q", "1.0"], "--q must be in (0, 1), got 1.0"),
        (["experiment", "bias", "--R", "0"], "--R must be an integer >= 1, got 0"),
        (["experiment", "bias", "--K", "0"], "--K must be an integer >= 1, got 0"),
        (["experiment", "track", "--m-grid", "10,5"],
         "--m-grid must be ascending for track, got '10,5'"),
        (["experiment", "bias", "--sigma0", "0"], "sigma_sq must be positive"),
        (["experiment", "track", "--R", "0"], "--R applies to experiment bias only"),
        (["simulate", "--family", "pareto", "--lambda0", "-1", "--years", "5"], "lambda0"),
        (["simulate", "--family", "pareto", "--lambda0", "2", "--years", "0"], "--years"),
        (["simulate", "--family", "pareto", "--lambda0", "inf", "--years", "5"], "lambda0"),
        (["simulate", "--family", "lognormal", "--lambda0", "2", "--years", "5", "--mu0", "inf"],
         "mu must be finite, got inf"),
        (["simulate", "--family", "lognormal", "--lambda0", "2", "--years", "5", "--mu0", "nan"],
         "mu must be finite, got nan"),
        (["simulate", "--family", "lognormal", "--lambda0", "2", "--years", "5", "--sigma0", "inf"],
         "sigma_sq must be positive and finite, got inf"),
        # sigma0**2 would raise OverflowError here.
        (["simulate", "--family", "lognormal", "--lambda0", "2", "--years", "5",
          "--sigma0", "1e200"], "sigma_sq must be positive and finite, got inf"),
        (["simulate", "--family", "pareto", "--lambda0", "2", "--years", "5", "--xi0", "inf"],
         "xi must be positive and finite, got inf"),
        (["experiment", "bias", "--mu0", "inf"], "mu must be finite, got inf"),
        # True points whose draws would overflow a double are refused before any draw.
        (["simulate", "--family", "lognormal", "--lambda0", "2", "--years", "3", "--mu0", "800"],
         "--mu0, --sigma0 put a loss above the largest double with chance 1, "
         "so 6 losses would overflow at --lambda0 2 over 3 simulated years"),
        (["simulate", "--family", "pareto", "--lambda0", "2", "--years", "1", "--xi0", "0.01"],
         "--xi0, --threshold-L put a loss above the largest double with chance 0.000827"),
        (["experiment", "bias", "--mu0", "800"], "over 1e+06 simulated years"),
        (["experiment", "track", "--severity", "pareto", "--xi0", "0.01"], "--xi0, --threshold-L"),
        # Below L = 1, (x / L)^-xi overflows at the largest double; this tail must not.
        (["experiment", "bias", "--severity", "pareto", "--xi0", "0.01", "--threshold-L", "0.5"],
         "--xi0, --threshold-L put a loss above the largest double with chance 0.000821"),
        # A synthetic history too thin to fit names its length and the flags.
        (["experiment", "bias", "--lambda0", "0.5", "--R", "20"],
         "'synthetic 5-year history': at least two severities are required; raise --lambda0"),
        # Number flags and --m-grid items take only the CSV number grammar.
        (["experiment", "bias", "--m-grid", "5, 1_0"], "got '5, 1_0'"),
        (["experiment", "bias", "--R", "+2"], "--R must be a decimal integer in ASCII"),
        (["simulate", "--family", "pareto", "--lambda0", "2", "--years", "1_0"],
         "--years must be a decimal integer in ASCII"),
        (["simulate", "--family", "pareto", "--lambda0", "\uff12", "--years", "5"],
         "--lambda0 must be a decimal number in ASCII"),
        # An empty grid is no grid, and a repeated count would only copy its first row.
        (["experiment", "bias", "--m-grid", ""], "--m-grid must be comma-separated integers, got ''"),
        (["experiment", "bias", "--m-grid", "5,5"], "--m-grid repeats the year count 5, got '5,5'"),
        (["experiment", "track", "--m-grid", "5,10,5"], "--m-grid repeats the year count 5"),
    ],
    ids=["m-grid-text", "m-grid-zero", "q", "R", "K", "m-grid-descending", "sigma0",
         "track-R", "lambda0", "years", "lambda0-inf", "mu0-inf", "mu0-nan", "sigma0-inf",
         "sigma0-overflow", "xi0-inf", "experiment-mu0-inf", "mu0-overflow", "xi0-overflow",
         "experiment-mu0-overflow", "experiment-xi0-overflow", "experiment-xi0-overflow-L-half",
         "experiment-thin-history", "m-grid-underscore", "R-plus", "years-underscore",
         "lambda0-full-width", "m-grid-empty", "m-grid-repeat", "track-m-grid-repeat"],
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


#: Identical losses at the prior's location with a tiny prior scale_beta: the
#: posterior is proper, but raw sums of squares lose it to cancellation.
_AT_PRIOR_LOCATION = {"severity_family": "lognormal",
                      "sev_prior": {"dof_nu": 2.0, "scale_beta": 1e-13, "loc_theta": 13.1,
                                    "prec_phi": 1.0}}


@pytest.mark.parametrize(
    "events, cell",
    [
        ([2.5], {"severity_family": "lognormal",
                 "sev_prior": {"dof_nu": 4.0, "scale_beta": 16.0, "loc_theta": 1.0,
                               "prec_phi": 2.0}}),
        ([1.0], {"severity_family": "pareto", "threshold_L": 1.0,
                 "sev_prior": {"shape": 8.0, "scale": 0.25}}),
        ([math.exp(13.1)] * 10, _AT_PRIOR_LOCATION),
    ],
    ids=["lognormal", "pareto-at-threshold", "lognormal-at-prior-location"],
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
        ([math.exp(13.1)] * 10, _AT_PRIOR_LOCATION, ["lambda", "mu", "sigma"]),
    ],
    ids=["lognormal", "pareto-at-threshold", "lognormal-at-prior-location"],
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


def test_experiment_track_runs_the_default_grid(tmp_path):
    # Without --m-grid, track walks the whole default grid, which is ascending.
    out = str(tmp_path / "track.csv")
    assert main(["experiment", "track", "--K", "1000", "--seed", "1", "--out", out]) == 0
    rows = [l for l in open(out).read().splitlines() if not l.startswith("#")][1:]
    assert [int(row.split(",")[0]) for row in rows] == list(cli.DEFAULT_M_GRID)


def _history_files(d, name, data, scale):
    """Counts and events files of ``data`` with every amount times ``scale``."""
    years = range(1, data.years + 1)
    counts = _write(d / f"{name}-counts.csv", "year,count\n" + "".join(
        f"{y},{n}\n" for y, n in zip(years, data.annual_counts)))
    year_of = [y for y, n in zip(years, data.annual_counts) for _ in range(n)]
    events = _write(d / f"{name}-events.csv", "year,amount\n" + "".join(
        f"{y},{a * scale!r}\n" for y, a in zip(year_of, data.severities.tolist())))
    return {"counts_file": counts, "events_file": events}


def _capital_by_cell(d, name, cells, seed):
    """``capital`` rows of a config holding ``cells``, by (cell id, mode)."""
    config = _write(d / f"{name}.json", json.dumps({"cells": cells}))
    out = d / f"{name}.csv"
    argv = ["capital", "--config", config, "--K", "2000", "--seed", str(seed), "--csv", str(out)]
    assert _run(argv) == (0, "")
    return {(row["cell_id"], row["mode"]): row for row in _capital_rows(out)}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32), M=st.integers(10, 30), L=st.floats(0.5, 50.0),
       power=st.integers(-20, 20))
def test_capital_scales_with_the_currency_and_ignores_other_cells(tmp_path_factory, seed, M, L,
                                                                 power):
    # A power-of-2 scale is exact on a Pareto cell: the fit reads only x/L, and a
    # severity is L times a factor. A lognormal cell's log-amounts shift by log(scale).
    d, scale = tmp_path_factory.mktemp("scale"), 2.0 ** power
    stream = RngStream(seed)
    pareto = generate_synthetic(PointParams(5.0, ParetoParams(xi=2.0, threshold_L=L)), M,
                                stream.substream("pareto"))
    lognormal = generate_synthetic(PointParams(5.0, LognormalParams(mu=1.0, sigma_sq=1.0)), M,
                                   stream.substream("lognormal"))

    def cells(s):
        return [{"id": "p", "severity_family": "pareto", "threshold_L": L * s,
                 **_history_files(d, f"p{s}", pareto, s)},
                {"id": "pf", "severity_family": "pareto", "threshold_L": L * s,
                 "enforce_finite_mean": True, **_history_files(d, f"p{s}", pareto, s)},
                {"id": "ln", "severity_family": "lognormal",
                 **_history_files(d, f"ln{s}", lognormal, s)}]

    base = _capital_by_cell(d, "base", cells(1.0), seed)
    scaled = _capital_by_cell(d, "scaled", cells(scale), seed)
    assert base.keys() == scaled.keys() and len(base) == 6
    for (cell_id, mode), row in base.items():
        other = scaled[cell_id, mode]
        assert other["warnings"] == row["warnings"]
        for column in ("value", "ci_lower", "ci_upper"):
            if cell_id == "ln":
                assert other[column] == pytest.approx(row[column] * scale, rel=1e-12, abs=0)
            else:
                assert other[column] == row[column] * scale, (cell_id, mode, column)
    # Each cell draws from streams derived from its own id, so alone it gives its rows.
    for cell in cells(1.0):
        alone = _capital_by_cell(d, cell["id"], [cell], seed)
        assert alone == {key: row for key, row in base.items() if key[0] == cell["id"]}
