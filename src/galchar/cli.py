"""Command-line front end.

Exit codes: 0 success; 1 for a mathematical negative (PARAMS-INVALID, or a
failed --assert-single); 2 for internal errors, including theorem-violation
diagnostics.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .chartab import character_table
from .classify import analyze_structure, irr_partition, VERDICT_SINGLE
from .constructors import CASE_TAGS, CaseParams, ParamsInvalid, construct_case, sweep_parameter_points
from .corpus import CORPUS, build
from .cyclotomic import CONDUCTOR_BOUND
from .numth import zsigmondy_prime
from .perm import ORDER_BOUND, group_to_json, load_group


def _config(args) -> dict:
    return {
        "seed": args.seed,
        "order_bound": ORDER_BOUND,
        "conductor_bound": CONDUCTOR_BOUND,
    }


def _write(text: str, path=None) -> None:
    """Write text to the file at path, or to stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_zsigmondy(args) -> int:
    q = zsigmondy_prime(args.p, args.n)
    print(q if q is not None else "none")
    return 0


def cmd_chartab(args) -> int:
    group = load_group(args.groupfile)
    table = character_table(group, seed=args.seed)
    if args.format == "json":
        doc = table.to_dict()
        doc["config"].update(_config(args))
        _write(_json_text(doc), args.out)
    else:
        _write("\n".join(table.text_lines()) + "\n", args.out)
    return 0


def cmd_classify(args) -> int:
    group = load_group(args.groupfile)
    table = character_table(group, seed=args.seed)
    report = analyze_structure(group, table, seed=args.seed)
    doc = report.to_dict()
    doc["config"] = _config(args)
    if args.report == "json":
        _write(_json_text(doc), args.out)
    else:
        lines = [f"verdict: {report.verdict}"]
        if report.case_tag:
            lines.append(f"case: {report.case_tag}  (p={report.p}, n={report.n}, d={report.d})")
        if report.failure_reason:
            lines.append(f"reason: {report.failure_reason}")
        for item, value in report.checklist.items():
            lines.append(f"  [{_mark(value)}] {item}")
        if report.theorem_violation:
            lines.append(f"THEOREM-VIOLATION: {report.theorem_violation}")
        _write("\n".join(lines) + "\n", args.out)
    if report.theorem_violation:
        return 2
    if args.assert_single and report.verdict != VERDICT_SINGLE:
        return 1
    return 0


def _mark(value) -> str:
    if value is None:
        return "-"
    return "x" if value else " "


def cmd_construct(args) -> int:
    group = construct_case(CaseParams(args.tag, args.p, args.n, args.d, args.height))
    _write(group_to_json(group), args.out)
    return 0


def _classified_points(points, seed: int):
    """(params, group, report) for each parameter point, or (params, None,
    the ParamsInvalid) for a point that cannot be built."""
    for params in points:
        try:
            group = construct_case(params)
        except ParamsInvalid as exc:
            yield params, None, exc
            continue
        yield params, group, analyze_structure(group, character_table(group, seed=seed), seed=seed)


def cmd_sweep(args) -> int:
    tags = tuple(args.tags.split(","))
    primes = tuple(int(p) for p in args.primes.split(","))
    points = sweep_parameter_points(tags, primes, max_pn=args.max_pn, max_order=args.max_order)
    records = []
    violations = 0
    for params, group, report in _classified_points(points, args.seed):
        record = {"params": dataclasses.asdict(params)}
        if group is None:
            record.update(status="PARAMS-INVALID", reason=report.condition)
        else:
            record.update(status="ok", order=group.order, report=report.to_dict())
            violations += report.theorem_violation is not None
        records.append(record)
    doc = {"config": _config(args), "records": records}
    _write(_json_text(doc), args.out)
    return 2 if violations else 0


def cmd_check_theorem(args) -> int:
    """Pass/fail matrix over the corpus plus the constructed sweep."""
    failures = 0
    lines = []

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {label}")
        if not ok:
            failures += 1

    for entry in CORPUS:
        group = build(entry.key)
        table = character_table(group, seed=args.seed)
        part = irr_partition(table)
        report = analyze_structure(group, table, seed=args.seed)
        check(
            f"{entry.key}: verdict {report.verdict} (expected {entry.verdict})",
            report.verdict == entry.verdict and report.theorem_violation is None,
        )
        gl = (len(part.exceptional) == 0) == group.is_nilpotent()
        check(f"{entry.key}: no-exceptional iff nilpotent", gl)
        if entry.verdict == "SingleGaloisClass":
            check(
                f"{entry.key}: case {report.case_tag} (expected {entry.tag})",
                report.case_tag == entry.tag
                and (report.p, report.n, report.d) == (entry.p, entry.n, entry.d),
            )
            check(
                f"{entry.key}: solvable with small Fitting height",
                group.is_solvable() and group.has_fitting_height_at_most_two(),
            )
    points = sweep_parameter_points(max_order=args.max_order)
    for params, group, report in _classified_points(points, args.seed):
        if group is None:
            lines.append(f"[SKIP] {params.label()}: PARAMS-INVALID ({report.condition})")
            continue
        check(
            f"{params.label()}: order {group.order} -> {report.verdict}/{report.case_tag}",
            report.verdict == "SingleGaloisClass"
            and report.case_tag == params.tag
            and report.theorem_violation is None,
        )
    print("\n".join(lines))
    print(f"{failures} failures")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="galchar",
        description="exact character tables and Galois-class classification",
    )
    parser.add_argument("--seed", type=int, default=0, help="deterministic seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_z = sub.add_parser("zsigmondy", help="Zsigmondy prime for p^n - 1, or none")
    p_z.add_argument("p", type=int)
    p_z.add_argument("n", type=int)
    p_z.set_defaults(func=cmd_zsigmondy)

    p_t = sub.add_parser("chartab", help="character table of a group file")
    p_t.add_argument("groupfile")
    p_t.add_argument("--format", choices=("text", "json"), default="text")
    p_t.add_argument("--out")
    p_t.set_defaults(func=cmd_chartab)

    p_c = sub.add_parser("classify", help="classification report for a group file")
    p_c.add_argument("groupfile")
    p_c.add_argument("--report", choices=("text", "json"), default="text")
    p_c.add_argument("--out")
    p_c.add_argument(
        "--assert-single",
        action="store_true",
        help="exit 1 unless the verdict is SingleGaloisClass",
    )
    p_c.set_defaults(func=cmd_classify)

    p_b = sub.add_parser("construct", help="build a family member as a group file")
    p_b.add_argument("tag", choices=CASE_TAGS)
    p_b.add_argument("--p", type=int, required=True)
    p_b.add_argument("--n", type=int, default=1)
    p_b.add_argument("--d", type=int, default=1)
    p_b.add_argument("--height", type=int, default=1)
    p_b.add_argument("--out")
    p_b.set_defaults(func=cmd_construct)

    p_s = sub.add_parser("sweep", help="classify every parameter point in a range")
    p_s.add_argument("--tags", default=",".join(CASE_TAGS))
    p_s.add_argument("--primes", default="2,3,5,7")
    p_s.add_argument("--max-pn", type=int, default=81)
    p_s.add_argument("--max-order", type=int, default=1000)
    p_s.add_argument("--out")
    p_s.set_defaults(func=cmd_sweep)

    p_k = sub.add_parser("check-theorem", help="run the acceptance corpus")
    p_k.add_argument("--max-order", type=int, default=1000)
    p_k.set_defaults(func=cmd_check_theorem)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParamsInvalid as exc:
        print(f"PARAMS-INVALID: {exc.condition}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
