"""Command-line entry point: benchmark runs, ablations, corpus generation,
and ad-hoc evidence combination.

Exit codes: 0 success, 2 usage errors, 3 input/data errors, 4 computation
errors (e.g. total conflict). Results go to stdout and timing to stderr,
so identical flags produce identical stdout except for the run time a
report carries: the ``runtime_seconds`` field of a JSON report and the
``runtime:`` line of a text report are the only bytes that vary.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from . import data as harness
from .classify import classifier_to_dict, classify_email, email_model_default
from .data import (
    DataFormatError,
    EmailGenConfig,
    ablation,
    evaluate,
    generate_email,
    load_email,
    load_iris,
    load_wbcd,
    make_folds,
    mean_sd,
    repeated_cv,
    write_email_csv,
    write_report,
)
from .evidence import (
    EvidenceError,
    belief_interval,
    combine_all,
    combine_with_conflict,
    make_frame,
    make_mass,
)

USAGE_EXIT = 2
INPUT_EXIT = 3
COMPUTE_EXIT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsfusion",
        description="Evidence-combination benchmarks and utilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=42, help="random seed (default 42)")
        p.add_argument("--out", type=Path, help="write the report to this path")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text",
                       help="report format for --out and stdout (default text)")

    p_wbcd = sub.add_parser("wbcd", help="binary threshold-fusion benchmark")
    p_wbcd.add_argument("--data", type=Path, required=True, help="breast-cancer-wisconsin.data")
    p_wbcd.add_argument("--features", default="ABCDEFGHI",
                        help="feature letters A-I to fuse (default all nine)")
    p_wbcd.add_argument("--ablate", help="comma-separated feature subsets to compare")
    p_wbcd.add_argument("--folds", type=int, default=10)
    p_wbcd.add_argument("--dump-model", type=Path,
                        help="also train on the full dataset and write the model JSON here")
    common(p_wbcd)

    p_iris = sub.add_parser("iris", help="three-class fusion benchmark")
    p_iris.add_argument("--data", type=Path, required=True, help="iris.data")
    p_iris.add_argument("--runs", type=int, default=10, help="number of full CVs (default 10)")
    p_iris.add_argument("--folds", type=int, default=10)
    p_iris.add_argument("--dump-model", type=Path,
                        help="also train on the full dataset and write the model JSON here")
    common(p_iris)

    p_email = sub.add_parser("email", help="email worm-detection benchmark")
    p_email.add_argument("--data", type=Path, help="email CSV to evaluate")
    p_email.add_argument("--generate", action="store_true",
                         help="evaluate a freshly generated synthetic corpus")
    p_email.add_argument("--save-data", type=Path,
                         help="with --generate, also write the corpus CSV here")
    p_email.add_argument("--signals", default="1234",
                         help="signal digits 1-4 to fuse (default 1234)")
    common(p_email)

    p_gen = sub.add_parser("generate-email", help="write a synthetic email corpus CSV")
    p_gen.add_argument("--out", type=Path, required=True)
    p_gen.add_argument("--seed", type=int, default=42)

    p_comb = sub.add_parser("combine", help="combine mass functions from the command line")
    p_comb.add_argument("--frame", required=True, help='comma-separated labels, e.g. "a,b,c"')
    p_comb.add_argument("--mass", action="append", required=True, metavar="SPEC",
                        help='repeatable; "a:0.6,b:0.3,a|b:0.1" (| joins labels)')
    p_comb.add_argument("--format", choices=("json", "text"), default="text")

    return parser


def _parse_features(spec: str, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    indices = []
    for ch in spec:
        # str.upper() maps some non-ASCII letters onto A-I (dotless ı to I).
        if not ch.isascii() or ch.upper() not in harness.WBCD_FEATURES:
            parser.error(f"unknown feature letter {ch!r} (use A-I)")
        indices.append(harness.WBCD_FEATURES.index(ch.upper()))
    if not indices or len(set(indices)) != len(indices):
        parser.error(f"feature subset {spec!r} must be nonempty distinct letters A-I")
    return tuple(indices)


def _parse_signals(spec: str, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    # int() also reads non-ASCII digits, such as Arabic-Indic ones.
    if not spec.isascii():
        parser.error(f"signals must be digits 1-4, got {spec!r}")
    try:
        signals = tuple(int(ch) for ch in spec)
    except ValueError:
        parser.error(f"signals must be digits 1-4, got {spec!r}")
    if not signals or len(set(signals)) != len(signals) or not set(signals) <= {1, 2, 3, 4}:
        parser.error(f"signals must be distinct digits from 1234, got {spec!r}")
    return tuple(sorted(signals))


def _emit(report, args) -> None:
    if args.format == "json":
        print(harness.report_json(report))
    else:
        print(harness.report_text(report), end="")
    if args.out:
        write_report(report, args.out, args.format)


def _dump_model(dataset, task: str, path: Path) -> None:
    spec = harness.TASKS[task]
    model = spec.fit(dataset.samples(), dataset, spec.default(dataset), "the model dump")
    path.write_text(json.dumps(classifier_to_dict(model), indent=2) + "\n", encoding="utf-8")


def _cmd_wbcd(args, parser) -> int:
    features = _parse_features(args.features, parser)
    if args.folds < 2:
        parser.error("--folds must be at least 2")
    dataset = load_wbcd(args.data)
    folds = make_folds(len(dataset), args.folds, args.seed)
    if args.dump_model:
        _dump_model(dataset, "wbcd", args.dump_model)
    if args.ablate:
        subsets = [_parse_features(s, parser) for s in args.ablate.split(",")]
        table = ablation(dataset, "wbcd", subsets, folds=folds)
        for label, accuracy in table:
            print(f"{label}: {accuracy:.4f}")
        return 0
    report = evaluate(dataset, "wbcd", folds=folds, features=features)
    _emit(report, args)
    print(f"runtime: {report.runtime_seconds:.3f} s", file=sys.stderr)
    return 0


def _cmd_iris(args, parser) -> int:
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.folds < 2:
        parser.error("--folds must be at least 2")
    dataset = load_iris(args.data)
    if args.dump_model:
        _dump_model(dataset, "iris", args.dump_model)
    reports = repeated_cv(dataset, "iris", args.runs, args.folds, args.seed)
    mean, sd = mean_sd([r.accuracy for r in reports])
    print(f"runs: {args.runs}, folds: {args.folds}, seed: {args.seed}")
    print(f"accuracy: {mean * 100:.2f}% ± {sd * 100:.2f}%")
    counts: dict[int, int] = {}
    for r in reports:
        for rid in r.misclassified:
            counts[rid] = counts.get(rid, 0) + 1
    recurrent = sorted(rid for rid, c in counts.items() if c * 2 >= args.runs)
    print("recurrent misclassified ids: " + (", ".join(map(str, recurrent)) or "none"))
    if args.out:
        payload = {
            "task": "iris",
            "config": {"runs": args.runs, "k": args.folds, "seed": args.seed,
                       "rng": harness.RNG_ID},
            "mean_accuracy": mean,
            "sd": sd,
            "recurrent_misclassified": recurrent,
            "runs_detail": [r.to_json_dict() for r in reports],
        }
        args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


def _cmd_email(args, parser) -> int:
    signals = _parse_signals(args.signals, parser)
    if args.generate:
        dataset = generate_email(EmailGenConfig(seed=args.seed))
        if args.save_data:
            write_email_csv(dataset, args.save_data)
    elif args.data:
        dataset = load_email(args.data)
    else:
        parser.error("email needs --data PATH or --generate")
    report = evaluate(dataset, "email", signals=signals, seed=args.seed)
    worm_ids = {r.id for r in dataset if r.label == 1}
    missed = [rid for rid in report.misclassified if rid in worm_ids]
    false_pos = [rid for rid in report.misclassified if rid not in worm_ids]
    detected = len(worm_ids) - len(missed)
    print(f"signals: {''.join(map(str, signals))}")
    print(f"worms detected: {detected}/{len(worm_ids)}, missed: "
          + (", ".join(map(str, missed)) or "none"))
    print("false positives: " + (", ".join(map(str, false_pos)) or "none"))
    model = email_model_default()
    margins = []
    for r in dataset:
        if r.label != 1:
            continue
        pred = classify_email(r.features, model, signals)
        margins.append((abs(pred.mass.mass_bits(2) - pred.mass.mass_bits(1)), r.id, pred))
    margins.sort()
    print("closest-margin worms:")
    for margin, rid, pred in margins[:5]:
        print(f"  id {rid}: margin {margin:.4f}, {pred.label}, {pred.mass}")
    _emit(report, args)
    print(f"runtime: {report.runtime_seconds:.3f} s", file=sys.stderr)
    return 0


def _cmd_generate_email(args, parser) -> int:
    dataset = generate_email(EmailGenConfig(seed=args.seed))
    write_email_csv(dataset, args.out)
    print(f"wrote {len(dataset)} records to {args.out}")
    return 0


def _parse_mass_spec(spec: str, frame, parser: argparse.ArgumentParser):
    entries = []
    for part in spec.split(","):
        if ":" not in part:
            parser.error(f"bad mass entry {part!r}, expected subset:value")
        subset_spec, _, value_spec = part.rpartition(":")
        labels = [lab.strip() for lab in subset_spec.split("|")]
        try:
            subset = frame.subset(labels)
            value = float(value_spec)
        except (EvidenceError, ValueError) as exc:
            parser.error(f"bad mass entry {part!r}: {exc}")
        entries.append((subset, value))
    try:
        return make_mass(frame, entries)
    except EvidenceError as exc:
        parser.error(f"bad mass {spec!r}: {exc}")


def _cmd_combine(args, parser) -> int:
    labels = [lab.strip() for lab in args.frame.split(",")]
    try:
        frame = make_frame(labels)
    except EvidenceError as exc:
        parser.error(f"bad frame: {exc}")
    masses = [_parse_mass_spec(spec, frame, parser) for spec in args.mass]
    if len(masses) > 1:
        combined, final_k = combine_with_conflict(combine_all(masses[:-1]), masses[-1])
    else:
        final_k, combined = 0.0, masses[0]
    intervals = {
        label: belief_interval(combined, frame.singleton(label)) for label in frame.labels
    }
    if args.format == "json":
        payload = {
            "combined": {frame.describe(s.bits): v for s, v in combined.items()},
            "conflict": final_k,
            "intervals": {
                label: {"bel": iv.bel, "pl": iv.pl} for label, iv in intervals.items()
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"combined: {combined}")
        print(f"K (final step): {final_k:.6g}")
        for label, iv in intervals.items():
            print(f"  {label}: [{iv.bel:.6g}, {iv.pl:.6g}]")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    handlers = {
        "wbcd": _cmd_wbcd,
        "iris": _cmd_iris,
        "email": _cmd_email,
        "generate-email": _cmd_generate_email,
        "combine": _cmd_combine,
    }
    try:
        args = parser.parse_args(argv)
        return handlers[args.command](args, parser)
    except SystemExit as exc:  # argparse, also parser.error inside a handler
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    # DataFormatError is a ValueError, so it must be caught first.
    except (FileNotFoundError, IsADirectoryError, PermissionError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_EXIT
    except ValueError as exc:  # EvidenceError, TotalConflictError included
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTE_EXIT


def run() -> None:
    raise SystemExit(main())
