"""Command-line entry point: benchmark runs, ablations, corpus generation,
and ad-hoc evidence combination.

Exit codes: 0 success, 2 usage errors, 3 input/data errors, 4 computation
errors (e.g. total conflict). Results go to stdout and timing to stderr
(``email``'s summary too, under ``--format json|csv``, so stdout parses),
so identical flags produce identical stdout except for the run time a
report carries: the ``runtime_seconds`` field of a JSON report and the
``runtime:`` line of a text report are the only bytes that vary.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

from . import data as harness
from .bpa import moments
from .classify import EMAIL_SIGNALS, checked_subset, classifier_to_dict
from .data import (
    DataFormatError,
    evaluate,
    generate_email,
    load_email,
    load_iris,
    load_wbcd,
    make_folds,
    repeated_cv,
    write_email_csv,
)
from .evidence import (
    EvidenceError,
    MassFunction,
    belief,
    combine_with_conflict,
    make_frame,
    plausibility,
)

USAGE_EXIT = 2
INPUT_EXIT = 3
COMPUTE_EXIT = 4


def _common(p: argparse.ArgumentParser, cv: bool, report: bool) -> None:
    if cv:  # the tasks that cross-validate
        p.add_argument("--folds", type=int, default=10)
        p.add_argument("--dump-model", type=Path,
                       help="also train on the full dataset and write the model JSON here")
    p.add_argument("--seed", type=int, default=42, help="random seed (default 42)")
    p.add_argument("--out", type=Path, help="write the report to this path")
    if report:  # the tasks whose one report _emit writes
        p.add_argument("--format", choices=("json", "csv", "text"), default="text",
                       help="report format for --out and stdout (default text)")


def _parse_features(spec: str, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    for ch in spec:
        # str.upper() maps some non-ASCII letters onto A-I (dotless ı to I).
        if not ch.isascii() or ch.upper() not in harness.WBCD_FEATURES:
            parser.error(f"unknown feature letter {ch!r} (use A-I)")
    indices = [harness.WBCD_FEATURES.index(ch) for ch in spec.upper()]
    try:
        return checked_subset(indices, range(len(harness.WBCD_FEATURES)), "feature")
    except ValueError as exc:  # the subset rule's message, after the spec as typed
        parser.error(f"{spec!r}: {exc}")


def _parse_signals(spec: str, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    # int() also reads non-ASCII digits, such as Arabic-Indic ones.
    if not (spec.isascii() and all(map(str.isdigit, spec))):
        parser.error(f"signals must be digits 1-4, got {spec!r}")
    try:
        return checked_subset(tuple(map(int, spec)), EMAIL_SIGNALS, "signal")
    except ValueError as exc:
        parser.error(f"{spec!r}: {exc}")


def _emit(report, args) -> None:
    # The one report writer: the same bytes to stdout and --out, then the run time to stderr.
    text = harness.render_report(report, args.format)
    print(text, end="")
    if args.out:
        args.out.write_bytes(text.encode("utf-8"))
    print(f"runtime: {report.runtime_seconds:.3f} s", file=sys.stderr)


def _dump_model(dataset, task: str, path: Path) -> None:
    spec = harness.TASKS[task]
    fit = spec.fit(dataset, (0,) * len(dataset), spec.default(dataset))
    model = fit(None, "the model dump")  # fold None holds no record out
    path.write_text(json.dumps(classifier_to_dict(model), indent=2) + "\n", encoding="utf-8")


def _wbcd_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", type=Path, required=True, help="breast-cancer-wisconsin.data")
    p.add_argument("--features", help="feature letters A-I to fuse (default all nine)")
    p.add_argument("--ablate", help="comma-separated feature subsets to compare")
    _common(p, cv=True, report=True)


def _cmd_wbcd(args, parser) -> int:
    features = None if args.features is None else _parse_features(args.features, parser)
    if args.ablate is not None and (args.out or args.format != "text" or features):
        parser.error("--ablate prints a text table and takes no --out, --format or --features")
    if args.folds < 2:
        parser.error("--folds must be at least 2")
    if args.ablate is not None:  # a bad spec is refused before the load and the model dump
        subsets = [_parse_features(s, parser) for s in args.ablate.split(",")]
    dataset = load_wbcd(args.data)
    folds = make_folds(len(dataset), args.folds, args.seed)
    if args.dump_model:
        _dump_model(dataset, "wbcd", args.dump_model)
    if args.ablate is not None:
        for subset in subsets:
            report = evaluate(dataset, "wbcd", folds=folds, subset=subset)
            print(f"{report.config['features']}: {report.accuracy:.4f}")
        return 0
    _emit(evaluate(dataset, "wbcd", folds=folds, subset=features), args)
    return 0


def _iris_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", type=Path, required=True, help="iris.data")
    p.add_argument("--runs", type=int, default=10, help="number of full CVs (default 10)")
    _common(p, cv=True, report=False)


def _cmd_iris(args, parser) -> int:
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.folds < 2:
        parser.error("--folds must be at least 2")
    dataset = load_iris(args.data)
    if args.dump_model:
        _dump_model(dataset, "iris", args.dump_model)
    reports = repeated_cv(dataset, "iris", args.runs, args.folds, args.seed)
    accuracy = moments([r.accuracy for r in reports])
    print(f"runs: {args.runs}, folds: {args.folds}, seed: {args.seed}")
    print(f"accuracy: {accuracy.mean * 100:.2f}% ± {accuracy.sd * 100:.2f}%")
    counts = Counter(rid for r in reports for rid in r.misclassified)
    recurrent = sorted(rid for rid, c in counts.items() if c * 2 >= args.runs)
    print("recurrent misclassified ids: " + (", ".join(map(str, recurrent)) or "none"))
    if args.out:
        payload = {
            "task": "iris",
            "config": {"runs": args.runs, "k": args.folds, "seed": args.seed,
                       "rng": harness.RNG_ID},
            "mean_accuracy": accuracy.mean,
            "sd": accuracy.sd,
            "recurrent_misclassified": recurrent,
            "runs_detail": [r.to_json_dict() for r in reports],
        }
        args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


def _email_arguments(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", type=Path, help="email CSV to evaluate")
    source.add_argument("--generate", action="store_true",
                        help="evaluate a freshly generated synthetic corpus")
    p.add_argument("--signals", default="1234", help="signal digits 1-4 to fuse (default 1234)")
    _common(p, cv=False, report=True)


def _cmd_email(args, parser) -> int:
    signals = _parse_signals(args.signals, parser)
    dataset = generate_email(args.seed) if args.generate else load_email(args.data)
    report = evaluate(dataset, "email", subset=signals, seed=args.seed)
    worm_ids = {rid for rid, label in zip(dataset.ids, dataset.labels) if label == 1}
    missed = [rid for rid in report.misclassified if rid in worm_ids]
    false_pos = [rid for rid in report.misclassified if rid not in worm_ids]
    detected = len(worm_ids) - len(missed)
    summary = sys.stdout if args.format == "text" else sys.stderr
    print(f"signals: {report.config['signals']}", file=summary)
    print(f"worms detected: {detected}/{len(worm_ids)}, missed: "
          + (", ".join(map(str, missed)) or "none"), file=summary)
    print("false positives: " + (", ".join(map(str, false_pos)) or "none"), file=summary)
    margins = sorted(
        (abs(pred.mass.mass_bits(2) - pred.mass.mass_bits(1)), rid, pred)
        for rid, label, pred in zip(dataset.ids, dataset.labels, report.predictions)
        if label == 1
    )
    print("closest-margin worms:", file=summary)
    for margin, rid, pred in margins[:5]:
        print(f"  id {rid}: margin {margin:.4f}, {pred.label}, {pred.mass}", file=summary)
    _emit(report, args)
    return 0


def _gen_email_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int, default=42)


def _cmd_generate_email(args, parser) -> int:
    dataset = generate_email(args.seed)
    write_email_csv(dataset, args.out)
    print(f"wrote {len(dataset)} records to {args.out}")
    return 0


def _parse_mass_spec(spec: str, frame, parser: argparse.ArgumentParser):
    masses: dict[int, float] = {}
    for part in spec.split(","):
        if ":" not in part:
            parser.error(f"bad mass entry {part!r}, expected subset:value")
        subset_spec, _, value_spec = part.rpartition(":")
        labels = [lab.strip() for lab in subset_spec.split("|")]
        try:
            bits = frame.bits(labels)
            # float() also reads non-ASCII digits and an _ between digits.
            if not value_spec.isascii() or "_" in value_spec:
                raise ValueError(f"mass value {value_spec!r} is not a plain ASCII number")
            value = float(value_spec)
        except (EvidenceError, ValueError) as exc:
            parser.error(f"bad mass entry {part!r}: {exc}")
        masses[bits] = masses.get(bits, 0.0) + value  # a repeated set's values add up
    try:
        return MassFunction(frame, masses)
    except EvidenceError as exc:
        parser.error(f"bad mass {spec!r}: {exc}")


def _combine_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--frame", required=True, help='comma-separated labels, e.g. "a,b,c"')
    p.add_argument("--mass", action="append", required=True, metavar="SPEC",
                   help='repeatable; "a:0.6,b:0.3,a|b:0.1" (| joins labels)')
    p.add_argument("--format", choices=("json", "text"), default="text")


def _cmd_combine(args, parser) -> int:
    labels = [lab.strip() for lab in args.frame.split(",")]
    try:
        frame = make_frame(labels)
    except EvidenceError as exc:
        parser.error(f"bad frame: {exc}")
    combined, *rest = [_parse_mass_spec(spec, frame, parser) for spec in args.mass]
    final_k = 0.0
    for m in rest:
        combined, final_k = combine_with_conflict(combined, m)
    intervals = {label: (belief(combined, 1 << i), plausibility(combined, 1 << i))
                 for i, label in enumerate(frame.labels)}
    if args.format == "json":
        payload = {
            "combined": {frame.describe(bits): v for bits, v in combined.items()},
            "conflict": final_k,
            "intervals": {label: {"bel": bel, "pl": pl} for label, (bel, pl) in intervals.items()},
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"combined: {combined}")
        print(f"K (final step): {final_k:.6g}")
        for label, (bel, pl) in intervals.items():
            print(f"  {label}: [{bel:.6g}, {pl:.6g}]")
    return 0


# Each command's help line, the function that adds its arguments, and its handler.
COMMANDS = {
    "wbcd": ("binary threshold-fusion benchmark", _wbcd_arguments, _cmd_wbcd),
    "iris": ("three-class fusion benchmark", _iris_arguments, _cmd_iris),
    "email": ("email worm-detection benchmark", _email_arguments, _cmd_email),
    "generate-email": ("write a synthetic email corpus CSV", _gen_email_arguments,
                       _cmd_generate_email),
    "combine": ("combine mass functions from the command line", _combine_arguments, _cmd_combine),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dsfusion",
                                     description="Evidence-combination benchmarks and utilities.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if not argv or argv[0] not in COMMANDS:
            # --help, no command or an unknown one: the whole tree lists the commands and exits.
            build_parser().parse_args(argv)
        _, add_arguments, handler = COMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"dsfusion {argv[0]}")  # only this command's
        add_arguments(parser)
        return handler(parser.parse_args(argv[1:]), parser)
    except SystemExit as exc:  # argparse, also parser.error inside a handler
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    # DataFormatError is a ValueError, so it must be caught first.
    except (OSError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_EXIT
    except ValueError as exc:  # EvidenceError, TotalConflictError included
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTE_EXIT


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
