"""Command-line front end.

Exit codes: 0 success, 2 invalid parameter (including argparse errors),
3 resource limit exceeded, 4 falsification detected.  A falsification
additionally serializes a replayable instance file so the run can be
reproduced and inspected.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from .core import (
    _require_int,
    find_violation,
    format_set_text,
    is_k_sum_free,
    is_strongly_k_sum_free,
    rational_string,
    read_set_file,
    write_set_file,
)
from .dilation import extract_dilate_exhaustive, extract_dilate_folner
from .errors import FalsificationError, InvalidParameterError, ResourceLimitError
from .experiments import (
    decimal_string,
    run_defect_experiment,
    run_extraction_experiment,
    run_ratio_experiment,
)
from .folner import FolnerGrid, defect, defect_closed_form, generate
from .harness import grow_k_sum_free, random_drop_instance, random_inequality_case
from .measures import build_mu, serialize_measure, uniform_measure
from .periodic import (
    ApNotFound,
    DensityDrop,
    Falsified,
    PeriodicContainment,
    check_translate_inequality,
    density,
    fls_step,
    min_ap_length,
    periodic_hull,
    serialize_instance,
    verify_density_drop,
)
from .solver import max_k_sum_free

DEFAULT_FALSIFIED_PATH = "falsified-instance.json"


def _parse_eps(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"cannot parse eps {text!r}: {exc}") from None
    return value


def _cmd_check(args) -> int:
    s = read_set_file(args.infile)
    if args.strong:
        ok = is_strongly_k_sum_free(s, args.k)
        label, arities = f"strongly-{args.k}", range(2, args.k + 1)
    else:
        ok = is_k_sum_free(s, args.k)
        label, arities = str(args.k), (args.k,)
    print(f"{label}-sum-free: {'true' if ok else 'false'}")
    if not ok:
        for ell in arities:
            witness = find_violation(s, ell)
            if witness is not None:
                terms = "+".join(str(t) for t in witness.summands)
                arity = f" (arity {ell})" if args.strong else ""
                print(f"violation: {terms} = {witness.total}{arity}")
                break
    return 0


def _cmd_solve_max(args) -> int:
    s = read_set_file(args.infile)
    result = max_k_sum_free(
        s, args.k, algo=args.algo, strong=args.strong, budget=args.timeout
    )
    print(f"size={result.size} status={result.status} nodes={result.nodes}")
    sys.stdout.write(format_set_text(result.witness))
    return 0


def _cmd_extract_erdos(args) -> int:
    result = extract_dilate_exhaustive(read_set_file(args.infile), args.k)
    print(f"dilator={rational_string(result.dilator)}")
    print(f"score={result.score}")
    print(f"method={result.method}")
    sys.stdout.write(format_set_text(result.subset))
    return 0


def _cmd_extract_folner(args) -> int:
    s = read_set_file(args.infile)
    grid = FolnerGrid.parse(args.grid)
    f = generate(grid)
    if args.sumfree_subset is not None:
        inner = read_set_file(args.sumfree_subset)
    else:
        inner = max_k_sum_free(f, args.k).witness
    result = extract_dilate_folner(s, f, inner, args.k)
    print(f"dilator={result.dilator}")
    print(f"score={result.score}")
    print(f"lower_bound={rational_string(result.lower_bound)}")
    sys.stdout.write(format_set_text(result.subset))
    return 0


def _cmd_folner_gen(args) -> int:
    grid = FolnerGrid.parse(args.grid)
    f = generate(grid)
    if args.out is not None:
        write_set_file(args.out, f)
        print(f"wrote {len(f)} elements to {args.out}")
    else:
        sys.stdout.write(format_set_text(f))
    return 0


def _cmd_folner_defect(args) -> int:
    grid = FolnerGrid.parse(args.grid)
    measured = defect(grid, args.a)
    predicted = defect_closed_form(grid, args.a)
    match = "true" if measured == predicted else "false"
    print(
        f"defect={rational_string(measured)} "
        f"closed_form={rational_string(predicted)} match={match}"
    )
    return 0


def _cmd_periodic_hull(args) -> int:
    s = read_set_file(args.infile)
    hull = periodic_hull(s, args.n0, args.modulus)
    residues = ",".join(str(r) for r in sorted(hull.residues))
    print(f"modulus={hull.modulus} residues={residues}")
    return 0


def _cmd_periodic_fls_step(args) -> int:
    s = read_set_file(args.infile)
    outcome = fls_step(s, args.k, args.n0, args.modulus, args.i, _parse_eps(args.eps))
    if isinstance(outcome, PeriodicContainment):
        residues = ",".join(str(r) for r in sorted(outcome.hull.residues))
        print(f"outcome={outcome.tag} modulus={outcome.hull.modulus} residues={residues}")
        return 0
    if isinstance(outcome, DensityDrop):
        print(
            f"outcome={outcome.tag} index={outcome.index} "
            f"density={rational_string(outcome.value)} "
            f"decimal={decimal_string(outcome.value)}"
        )
        return 0
    if isinstance(outcome, ApNotFound):
        print(f"outcome={outcome.tag}")
        return 0
    assert isinstance(outcome, Falsified)
    _write_instance(args.falsified_out, outcome.instance)
    print(f"outcome={outcome.tag} reason={outcome.reason!r} instance={args.falsified_out}")
    return 4


def _cmd_measure_build_mu(args) -> int:
    measure = build_mu(args.steps, args.modulus, args.k, uniform_measure, n_start=args.start)
    sys.stdout.write(serialize_measure(measure))
    return 0


def _write_instance(path: str, instance) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_instance(instance))


def _cmd_experiment_fls_soak(args) -> int:
    """Three seeded waves: drop instances, translate inequalities, full steps.

    Exits 4 on the first falsification, writing the instance when there is one.
    """
    _require_int(args.trials, "trials")
    rng = random.Random(args.seed)
    for trial in range(args.trials):
        k = 2 if trial % 2 == 0 else 3
        inst = random_drop_instance(k, rng, mirrored=(trial % 5 == 0))
        if verify_density_drop(inst, k) is not True:
            _write_instance(args.falsified_out, inst)
            print(f"FALSIFIED density drop, instance at {args.falsified_out}")
            return 4
    print(f"density drop verified on {args.trials} instances")

    for trial in range(args.trials):
        k = 2 if trial % 2 == 0 else 3
        s, n, x, m, i = random_inequality_case(k, rng)
        if check_translate_inequality(s, n, x, m, i, k) is not True:
            print(f"FALSIFIED translate inequality: n={n} x={x} m={m} i={i} k={k}")
            return 4
    print(f"translate inequality verified on {args.trials} instances")

    outcomes: dict[str, int] = {}
    for trial in range(args.trials):
        k = 2 if trial % 2 == 0 else 3
        s = grow_k_sum_free(k, 600, rng=rng, include_probability=rng.uniform(0.4, 1.0))
        n0 = rng.randrange(30, 80)
        eps = Fraction(1, rng.randrange(8, 30))
        if density(s, n0) >= Fraction(1, k + 1) + eps:
            q = rng.randrange(1, 9)
            out = fls_step(s, k, n0, q, min_ap_length(k, eps), eps)
            outcomes[out.tag] = outcomes.get(out.tag, 0) + 1
            if isinstance(out, Falsified):
                _write_instance(args.falsified_out, out.instance)
                print(f"FALSIFIED periodic step, instance at {args.falsified_out}")
                return 4
    print(f"periodic step outcomes: {outcomes}")
    return 0


def _cmd_experiment_ratio(args) -> int:
    sys.stdout.write(
        run_ratio_experiment(args.k, args.m_max, budget=args.budget, timing=args.timing)
    )
    return 0


def _cmd_experiment_defect(args) -> int:
    sys.stdout.write(run_defect_experiment(args.a, args.m_max))
    return 0


def _cmd_experiment_extract(args) -> int:
    sys.stdout.write(
        run_extraction_experiment(
            args.k,
            args.trials,
            args.size,
            args.seed,
            magnitude=args.magnitude,
            timing=args.timing,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumfree",
        description="Exact tooling for k-sum-free sets, grids, and measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="test a set file for k-sum-freeness")
    check.add_argument("--k", type=int, required=True)
    check.add_argument("--in", dest="infile", required=True)
    check.add_argument("--strong", action="store_true")
    check.set_defaults(handler=_cmd_check)

    solve = sub.add_parser("solve", help="exact solvers")
    solve_sub = solve.add_subparsers(dest="solve_command", required=True)
    solve_max = solve_sub.add_parser("max", help="maximum k-sum-free subset")
    solve_max.add_argument("--k", type=int, required=True)
    solve_max.add_argument("--in", dest="infile", required=True)
    solve_max.add_argument("--algo", choices=["bb", "brute"], default="bb")
    solve_max.add_argument("--strong", action="store_true")
    solve_max.add_argument("--timeout", type=float, default=None)
    solve_max.set_defaults(handler=_cmd_solve_max)

    extract = sub.add_parser("extract", help="dilation-based extraction")
    extract_sub = extract.add_subparsers(dest="extract_command", required=True)
    erdos = extract_sub.add_parser("erdos", help="arc-slice extraction over [0,1)")
    erdos.add_argument("--k", type=int, required=True)
    erdos.add_argument("--in", dest="infile", required=True)
    erdos.set_defaults(handler=_cmd_extract_erdos)
    folner = extract_sub.add_parser("folner", help="grid-dilator extraction")
    folner.add_argument("--k", type=int, required=True)
    folner.add_argument("--in", dest="infile", required=True)
    folner.add_argument("--grid", required=True, help="grid shape: m or r,b")
    folner.add_argument("--sumfree-subset", dest="sumfree_subset", default=None)
    folner.set_defaults(handler=_cmd_extract_folner)

    folner_cmd = sub.add_parser("folner", help="multiplicative grids")
    folner_sub = folner_cmd.add_subparsers(dest="folner_command", required=True)
    gen = folner_sub.add_parser("gen", help="enumerate a grid")
    gen.add_argument("--grid", required=True, help="grid shape: m or r,b")
    gen.add_argument("--out", default=None)
    gen.set_defaults(handler=_cmd_folner_gen)
    defect_cmd = folner_sub.add_parser("defect", help="dilation defect of a grid")
    defect_cmd.add_argument("--grid", required=True, help="grid shape: m or r,b")
    defect_cmd.add_argument("--a", type=int, required=True)
    defect_cmd.set_defaults(handler=_cmd_folner_defect)

    periodic = sub.add_parser("periodic", help="residue-level analysis")
    periodic_sub = periodic.add_subparsers(dest="periodic_command", required=True)
    hull = periodic_sub.add_parser("hull", help="residues hit within a horizon")
    hull.add_argument("--Q", dest="modulus", type=int, required=True)
    hull.add_argument("--n0", type=int, required=True)
    hull.add_argument("--in", dest="infile", required=True)
    hull.set_defaults(handler=_cmd_periodic_hull)
    step = periodic_sub.add_parser(
        "fls-step", help="periodic containment or density drop"
    )
    step.add_argument("--k", type=int, required=True)
    step.add_argument("--Q", dest="modulus", type=int, required=True)
    step.add_argument("--i", type=int, required=True)
    step.add_argument("--eps", required=True, help="exact rational, e.g. 1/6")
    step.add_argument("--n0", type=int, required=True)
    step.add_argument("--in", dest="infile", required=True)
    step.add_argument("--falsified-out", dest="falsified_out", default=DEFAULT_FALSIFIED_PATH)
    step.set_defaults(handler=_cmd_periodic_fls_step)

    measure = sub.add_parser("measure", help="exact rational measures")
    measure_sub = measure.add_subparsers(dest="measure_command", required=True)
    mu = measure_sub.add_parser("build-mu", help="contraction recursion")
    mu.add_argument("--k", type=int, required=True)
    mu.add_argument("--Q", dest="modulus", type=int, required=True)
    mu.add_argument("--steps", type=int, required=True)
    mu.add_argument("--start", type=int, default=1)
    mu.set_defaults(handler=_cmd_measure_build_mu)

    experiment = sub.add_parser("experiment", help="deterministic CSV tables")
    experiment_sub = experiment.add_subparsers(dest="experiment_command", required=True)
    ratio = experiment_sub.add_parser("ratio", help="grid max-fraction trend")
    ratio.add_argument("--k", type=int, required=True)
    ratio.add_argument("--m-max", dest="m_max", type=int, required=True)
    ratio.add_argument("--budget", type=float, default=None)
    ratio.add_argument("--timing", action="store_true")
    ratio.set_defaults(handler=_cmd_experiment_ratio)
    defect_exp = experiment_sub.add_parser("defect", help="defect vs closed form")
    defect_exp.add_argument("--a", type=int, required=True)
    defect_exp.add_argument("--m-max", dest="m_max", type=int, required=True)
    defect_exp.set_defaults(handler=_cmd_experiment_defect)
    extract_exp = experiment_sub.add_parser("extract", help="guaranteed extraction")
    extract_exp.add_argument("--k", type=int, required=True)
    extract_exp.add_argument("--trials", type=int, required=True)
    extract_exp.add_argument("--size", type=int, required=True)
    extract_exp.add_argument("--seed", type=int, required=True)
    extract_exp.add_argument("--magnitude", type=int, default=10**6)
    extract_exp.add_argument("--timing", action="store_true")
    extract_exp.set_defaults(handler=_cmd_experiment_extract)
    soak = experiment_sub.add_parser("fls-soak", help="seeded soak of the periodic step")
    soak.add_argument("--trials", type=int, default=100, help="instances per wave")
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--falsified-out", dest="falsified_out", default=DEFAULT_FALSIFIED_PATH)
    soak.set_defaults(handler=_cmd_experiment_fls_soak)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        return args.handler(args)
    except (InvalidParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except FalsificationError as exc:
        print(f"falsification: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
