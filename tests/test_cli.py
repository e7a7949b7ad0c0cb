"""End-to-end tests for the command line interface."""

from __future__ import annotations

import hashlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from sumfree import (
    Falsified,
    FalsificationError,
    FolnerGrid,
    IntSet,
    InvalidParameterError,
    extract_dilate_folner,
    format_set_text,
    generate,
    geometric_schedule,
    max_k_sum_free,
    parse_instance,
    parse_measure,
    parse_set_text,
    uniform_measure,
    write_set_file,
)
from sumfree.cli import main
from sumfree.core import rational_string
from sumfree.harness import random_drop_instance
from sumfree.measures import build_mu


@pytest.fixture()
def set_file(tmp_path):
    def write(name, values):
        path = tmp_path / name
        write_set_file(str(path), IntSet.of(values))
        return str(path)

    return write


def test_check_reports_violation(capsys, set_file):
    path = set_file("a.txt", [1, 2, 3])
    assert main(["check", "--k", "2", "--in", path]) == 0
    out = capsys.readouterr().out
    assert "2-sum-free: false" in out
    assert "violation: 1+1 = 2" in out


def test_check_clean_set(capsys, set_file):
    path = set_file("a.txt", range(1, 100, 2))
    assert main(["check", "--k", "2", "--in", path]) == 0
    assert "2-sum-free: true" in capsys.readouterr().out


def test_check_strong(capsys, set_file):
    path = set_file("a.txt", [2, 3])
    assert main(["check", "--k", "3", "--in", path, "--strong"]) == 0
    assert "strongly-3-sum-free: true" in capsys.readouterr().out
    bad = set_file("b.txt", [1, 2])
    assert main(["check", "--k", "3", "--in", bad, "--strong"]) == 0
    out = capsys.readouterr().out
    assert "strongly-3-sum-free: false" in out
    assert "(arity 2)" in out


@pytest.mark.parametrize(
    "values, argv, expected",
    [
        (
            [1, 3],
            ["--k", "3", "--strong"],
            "strongly-3-sum-free: false\nviolation: 1+1+1 = 3 (arity 3)\n",
        ),
        ([1, 2], ["--k", "2"], "2-sum-free: false\nviolation: 1+1 = 2\n"),
        ([1, 3], ["--k", "2", "--strong"], "strongly-2-sum-free: true\n"),
    ],
)
def test_check_output_is_pinned(capsys, set_file, values, argv, expected):
    assert main(["check", *argv, "--in", set_file("a.txt", values)]) == 0
    assert capsys.readouterr().out == expected


def test_solve_max(capsys, set_file):
    path = set_file("a.txt", range(1, 11))
    assert main(["solve", "max", "--k", "2", "--in", path, "--algo", "brute"]) == 0
    out = capsys.readouterr().out
    assert "size=5 status=optimal" in out
    witness = parse_set_text(out.split("\n", 1)[1])
    assert len(witness) == 5


def test_extract_erdos(capsys, set_file):
    path = set_file("a.txt", [1, 2, 3])
    assert main(["extract", "erdos", "--k", "2", "--in", path]) == 0
    out = capsys.readouterr().out
    assert "dilator=7/36" in out
    assert "score=2" in out
    assert "method=sweep" in out


def test_extract_erdos_prints_the_descent_dilator(capsys, set_file):
    path = set_file("a.txt", [147623, 188293, 271878, 458128, 665535, 876916])
    assert main(["extract", "erdos", "--k", "3", "--in", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("dilator=61547337961/996439395072\nscore=")
    assert "method=descent" in out


def test_extract_erdos_sweep_over_its_cap_exits_three(monkeypatch, capsys, set_file):
    # the command always extracts with method="auto", which never sweeps over
    # the cap, so splice in an explicit sweep at the seam
    from sumfree.dilation import extract_dilate_exhaustive

    monkeypatch.setattr("sumfree.dilation.DEFAULT_SWEEP_CAP", 100)
    monkeypatch.setattr(
        "sumfree.cli.extract_dilate_exhaustive",
        lambda s, k: extract_dilate_exhaustive(s, k, method="sweep"),
    )
    path = set_file("a.txt", [10, 20, 30])
    assert main(["extract", "erdos", "--k", "2", "--in", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "resource limit: sweep needs 122 breakpoints" in captured.err


def test_extract_folner(capsys, set_file):
    path = set_file("a.txt", range(1, 9))
    assert main(["extract", "folner", "--k", "2", "--in", path, "--grid", "2,2"]) == 0
    out = capsys.readouterr().out
    assert "dilator=" in out
    assert "lower_bound=" in out


def test_extract_folner_reads_its_sum_free_subset(capsys, set_file):
    # the members 1 mod 3 of the grid are sum-free and differ from the solver's witness
    grid = generate(FolnerGrid(3, 3))
    inner = IntSet.of(a for a in grid if a % 3 == 1)
    s = IntSet.of(range(1, 100, 2))
    argv = ["extract", "folner", "--k", "2", "--in", set_file("a.txt", s), "--grid", "3,3",
            "--sumfree-subset", set_file("inner.txt", inner)]
    assert main(argv) == 0
    r = extract_dilate_folner(s, grid, inner, 2)
    assert capsys.readouterr().out == (
        f"dilator={r.dilator}\nscore={r.score}\nlower_bound={rational_string(r.lower_bound)}\n"
        + format_set_text(r.subset)
    )
    assert inner != max_k_sum_free(grid, 2).witness


def test_folner_gen_stdout(capsys):
    assert main(["folner", "gen", "--grid", "2,2"]) == 0
    assert capsys.readouterr().out == "1\n2\n3\n6\n"


def test_folner_gen_to_file(tmp_path, capsys):
    out_path = tmp_path / "grid.txt"
    assert main(["folner", "gen", "--grid", "3", "--out", str(out_path)]) == 0
    assert "wrote 27 elements" in capsys.readouterr().out
    assert len(parse_set_text(out_path.read_text())) == 27


def test_folner_gen_cap_exit_code(capsys):
    assert main(["folner", "gen", "--grid", "9"]) == 3
    assert "resource limit" in capsys.readouterr().err


def test_folner_defect(capsys):
    assert main(["folner", "defect", "--grid", "3,3", "--a", "2"]) == 0
    assert capsys.readouterr().out == "defect=2/3 closed_form=2/3 match=true\n"


def test_periodic_hull(capsys, set_file):
    path = set_file("a.txt", range(1, 11, 2))
    assert main(["periodic", "hull", "--Q", "2", "--n0", "10", "--in", path]) == 0
    assert capsys.readouterr().out == "modulus=2 residues=1\n"


def test_periodic_fls_step_containment(capsys, set_file):
    path = set_file("odds.txt", range(1, 1001, 2))
    code = main(
        [
            "periodic", "fls-step", "--k", "2", "--Q", "2", "--i", "3",
            "--eps", "1/6", "--n0", "100", "--in", path,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome=periodic-containment" in out
    assert "residues=1" in out


def test_periodic_fls_step_density_drop(capsys, set_file):
    path = set_file("upper.txt", range(51, 101))
    code = main(
        [
            "periodic", "fls-step", "--k", "2", "--Q", "7", "--i", "3",
            "--eps", "1/6", "--n0", "100", "--in", path,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome=density-drop index=1 density=1/384" in out


def test_periodic_fls_step_ap_not_found(capsys, set_file):
    # the odd numbers hit every residue mod 3 but hold no 3-term progression of step 1 or 3
    path = set_file("odds.txt", range(1, 1001, 2))
    argv = ["periodic", "fls-step", "--k", "2", "--n0", "100", "--Q", "3",
            "--eps", "1/6", "--i", "3", "--in", path]
    assert main(argv) == 0
    assert capsys.readouterr().out == "outcome=ap-not-found\n"


# fls-step always derives its schedule, so argparse refuses --schedule as unrecognized
@pytest.mark.parametrize(
    "option, value", [("--eps", "0/1"), ("--eps", "1/0"), ("--schedule", "1,x")]
)
def test_periodic_fls_step_bad_option_is_parameter_error(capsys, set_file, option, value):
    path = set_file("odds.txt", range(1, 1001, 2))
    argv = ["periodic", "fls-step", "--k", "2", "--n0", "100", "--Q", "2",
            "--eps", "1/6", "--i", "3", "--in", path, option, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_periodic_fls_step_over_the_schedule_cap_exits_3(capsys, set_file):
    # dense up to n0, so only the default schedule's size can stop the step
    path = set_file("odds.txt", range(1, 200000, 2))
    code = main(
        [
            "periodic", "fls-step", "--k", "2", "--Q", "2", "--i", "3",
            "--eps", "1/6", "--n0", "100000", "--in", path,
        ]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "resource limit: schedule needs up to" in captured.err


def test_periodic_fls_step_falsified_writes_instance(
    monkeypatch, tmp_path, capsys, set_file
):
    # an honest falsification is unreachable on this corpus, so splice
    # one in at the seam to check the reporting contract end to end
    inst = random_drop_instance(2, random.Random(3))
    monkeypatch.setattr(
        "sumfree.cli.fls_step", lambda *a, **kw: Falsified(inst, "spliced for test")
    )
    path = set_file("odds.txt", range(1, 1001, 2))
    target = tmp_path / "falsified.json"
    code = main(
        [
            "periodic", "fls-step", "--k", "2", "--Q", "2", "--i", "3",
            "--eps", "1/6", "--n0", "100",
            "--in", path, "--falsified-out", str(target),
        ]
    )
    assert code == 4
    out = capsys.readouterr().out
    assert "outcome=falsified" in out
    assert parse_instance(target.read_text()) == inst


def test_periodic_fls_step_falsified_writes_an_instance_past_the_digit_limit(
    monkeypatch, tmp_path, capsys, set_file
):
    # blind the drop scan: the derived schedule at k = 3, n0 = 1000, eps = 1/20
    # ends near 8,950 decimal digits, past CPython's int-to-string limit
    monkeypatch.setattr("sumfree.periodic._first_drop", lambda *args: None)
    path = set_file("third.txt", range(334, 1001))
    target = tmp_path / "falsified.json"
    argv = ["periodic", "fls-step", "--k", "3", "--n0", "1000", "--Q", "500", "--eps", "1/20",
            "--i", "20", "--in", path, "--falsified-out", str(target)]
    assert main(argv) == 4
    assert "outcome=falsified" in capsys.readouterr().out
    schedule = parse_instance(target.read_text()).schedule
    assert schedule == geometric_schedule(1000, Fraction(960), 3000)
    assert schedule[-1] > 10**8900


def test_experiment_fls_soak_prints_the_three_wave_summaries(capsys):
    assert main(["experiment", "fls-soak", "--trials", "6", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "density drop verified on 6 instances"
    assert lines[1] == "translate inequality verified on 6 instances"
    assert lines[2].startswith("periodic step outcomes: {")
    assert len(lines) == 3


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_experiment_fls_soak_without_trials_is_parameter_error(capsys, trials):
    assert main(["experiment", "fls-soak", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: trials must be an integer >= 1" in captured.err


def test_experiment_fls_soak_falsified_writes_instance(monkeypatch, tmp_path, capsys):
    # splice a failing verifier in at the seam; the first wave's first
    # instance (k = 2, mirrored) must then be written out and exit 4
    monkeypatch.setattr("sumfree.cli.verify_density_drop", lambda *a, **kw: False)
    target = tmp_path / "soak.json"
    argv = ["experiment", "fls-soak", "--trials", "3", "--seed", "5",
            "--falsified-out", str(target)]
    assert main(argv) == 4
    assert capsys.readouterr().out == f"FALSIFIED density drop, instance at {target}\n"
    expected = random_drop_instance(2, random.Random(5), mirrored=True)
    assert parse_instance(target.read_text()) == expected


def test_experiment_fls_soak_translate_inequality_falsified_exits_four(
    monkeypatch, tmp_path, capsys
):
    # the second wave's first case fails at the seam; it has no instance to write
    monkeypatch.setattr("sumfree.cli.check_translate_inequality", lambda *a, **kw: False)
    target = tmp_path / "soak.json"
    argv = ["experiment", "fls-soak", "--trials", "3", "--seed", "0",
            "--falsified-out", str(target)]
    assert main(argv) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "density drop verified on 3 instances"
    assert lines[1].startswith("FALSIFIED translate inequality: n=")
    assert lines[1].endswith(" k=2")
    assert len(lines) == 2
    assert not target.exists()


def test_experiment_fls_soak_periodic_step_falsified_writes_instance(
    monkeypatch, tmp_path, capsys
):
    # seed 0 with 3 trials runs one step in the third wave; splice a falsification in there
    inst = random_drop_instance(2, random.Random(3))
    monkeypatch.setattr("sumfree.cli.fls_step", lambda *a, **kw: Falsified(inst, "spliced"))
    target = tmp_path / "soak.json"
    argv = ["experiment", "fls-soak", "--trials", "3", "--seed", "0",
            "--falsified-out", str(target)]
    assert main(argv) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["density drop verified on 3 instances",
                         "translate inequality verified on 3 instances"]
    assert lines[2:] == [f"FALSIFIED periodic step, instance at {target}"]
    assert parse_instance(target.read_text()) == inst


def test_falsification_error_exits_four(monkeypatch, capsys, set_file):
    def fail(*args, **kwargs):
        raise FalsificationError("spliced at the seam")

    monkeypatch.setattr("sumfree.cli.fls_step", fail)
    path = set_file("odds.txt", range(1, 1001, 2))
    argv = ["periodic", "fls-step", "--k", "2", "--Q", "2", "--i", "3", "--eps", "1/6",
            "--n0", "100", "--in", path]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "falsification: spliced at the seam\n"


def test_measure_build_mu(capsys):
    code = main(
        ["measure", "build-mu", "--k", "2", "--Q", "2", "--steps", "2"]
    )
    assert code == 0
    got = parse_measure(capsys.readouterr().out)
    assert got == build_mu(2, 2, 2, uniform_measure, n_start=1)


def test_measure_build_mu_past_the_support_cap_exits_three(capsys):
    assert main(["measure", "build-mu", "--k", "2", "--Q", "1000", "--steps", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "measure support needs 1000000000 points, over the cap of 1000000" in captured.err


def test_experiment_defect_csv(capsys):
    assert main(["experiment", "defect", "--a", "2", "--m-max", "4"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "m,defect_exact,closed_form_exact,match"
    assert len(lines) == 5
    assert all(line.endswith(",true") for line in lines[1:])


def test_experiment_ratio_csv_deterministic(capsys):
    assert main(["experiment", "ratio", "--k", "2", "--m-max", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["experiment", "ratio", "--k", "2", "--m-max", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second
    header = first.splitlines()[0]
    assert header.startswith("m,grid_size,max_size,fraction_exact")


def test_experiment_extract_csv_deterministic(capsys):
    argv = [
        "experiment", "extract", "--k", "2", "--trials", "3", "--size", "8",
        "--seed", "5", "--magnitude", "500",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert first == capsys.readouterr().out
    rows = first.strip().splitlines()
    assert rows[0].startswith("trial,n,extracted_size,guarantee")
    assert rows[-1].startswith("mean,")


def test_usage_errors_return_two(capsys):
    assert main(["check", "--k", "not-an-int", "--in", "x"]) == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_help_returns_zero(capsys):
    assert main(["--help"]) == 0


def test_missing_file_is_parameter_error(capsys):
    assert main(["check", "--k", "2", "--in", "/nonexistent/path.txt"]) == 2


def test_console_script_entry_point(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("2\n3\n")
    proc = subprocess.run(
        [sys.executable, "-m", "sumfree.cli", "check", "--k", "2", "--in", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "2-sum-free: true" in proc.stdout


def test_solve_max_timeout_prints_the_lower_bound(capsys, set_file):
    path = set_file("a.txt", range(1, 61))
    argv = ["solve", "max", "--k", "2", "--in", path, "--algo", "bb", "--timeout", "1e-6"]
    assert main(argv) == 0
    head, body = capsys.readouterr().out.split("\n", 1)
    assert "status=timeout-lower-bound" in head
    witness = parse_set_text(body)
    assert head.startswith(f"size={len(witness)} ")


@pytest.mark.parametrize("budget", ["nan", "inf", "-inf", "0", "-1"])
def test_bad_time_budgets_are_parameter_errors(capsys, set_file, budget):
    # a NaN budget never expires and an infinite one never can, so both would
    # solve without a limit; the library refuses bools too, which argparse cannot pass
    s = IntSet.of([1, 2, 3])
    for value in (float(budget), True, "1"):
        with pytest.raises(InvalidParameterError, match="time budget must be"):
            max_k_sum_free(s, 2, budget=value)
    path = set_file("a.txt", [1, 2, 3])
    assert main(["solve", "max", "--k", "2", "--in", path, f"--timeout={budget}"]) == 2
    assert main(["experiment", "ratio", "--k", "2", "--m-max", "2", f"--budget={budget}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("time budget must be") == 2


def test_brute_refuses_a_time_budget(capsys, set_file):
    # brute never reads a clock; BRUTE_SIZE_LIMIT is its bound, so a budget would bound nothing
    with pytest.raises(InvalidParameterError, match="no time budget"):
        max_k_sum_free(IntSet.of(range(1, 42, 2)), 2, algo="brute", budget=1)
    path = set_file("small.txt", range(1, 42, 2))
    argv = ["solve", "max", "--in", path, "--k", "2", "--algo", "brute"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("size=21 status=optimal ")
    assert main(argv + ["--timeout", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no time budget" in captured.err


@pytest.mark.parametrize(
    "k, digest",
    [
        ("2", "70a83131b2b6f7cdca3755ecd6da48477613166d5a1d3754a32b397620862e60"),
        ("3", "150f1bd07d4c7a2e751a48b23a5c8216fa4dc73c6b4864925a71700c0fe3a4a1"),
    ],
)
def test_experiment_ratio_output_is_pinned(capsys, k, digest):
    # includes the solver_nodes column, so it pins the bb node counts on F_1..F_3
    assert main(["experiment", "ratio", "--k", k, "--m-max", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
