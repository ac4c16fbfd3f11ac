"""The benchmark's three workloads and the output checks that decide whether
a batch failed.

Each workload builds its inputs from the seed alone and runs one batch per
call of ``run`` through dsfusion's public functions. Outputs are checked in
two steps, both outside the timed region: ``check`` runs in the measuring
process and reduces a batch's output to an error or a small digest, and
``verify`` compares digests across every batch of a run, in whichever
process they ran (determinism, reference intervals). Module attributes of
dsfusion are looked up at call time, so the tracing shims in ``tracing.py``
see every call the workloads make.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import sys
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WBCD_PATH = ROOT / "data" / "breast-cancer-wisconsin.data"
IRIS_PATH = ROOT / "data" / "iris.data"

# Criterion 5's tolerance between a fused mass and a pairwise combine fold.
MASS_TOL = 1e-12
# A reference record whose two singleton masses differ by no more than this
# is a tie; either label counts as correct, so an exact tie rule passes.
TIE_MARGIN = 1e-9

WBCD_LETTERS = "ABCDEFGHI"
WBCD_SUBSETS = tuple(WBCD_LETTERS) + ("ADI", "BCF", WBCD_LETTERS)
WBCD_SEEDS_PER_RUN = 3
IRIS_SEEDS_PER_RUN = 10
EMAIL_BATCH = 1000
EMAIL_POOL_BATCHES = 64
EMAIL_SAMPLES_PER_BATCH = 2
EMAIL_INTERVALS = 10 ** 6 + 1  # criterion 10 sweeps intervals 0..10**6

_RUNTIME_FIELD = re.compile(r',\n\s*"runtime_seconds": [^\n]*')


class SetupError(RuntimeError):
    """The checkout lacks the program or the data the benchmark runs."""


def import_program():
    """Import dsfusion from this checkout's ``src/``, never from elsewhere."""
    for path in (SRC / "dsfusion" / "__init__.py", WBCD_PATH, IRIS_PATH):
        if not path.is_file():
            raise SetupError(f"missing {path.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import dsfusion
    from dsfusion import bpa, classify, cli, data, evidence

    if Path(dsfusion.__file__).resolve().parent != (SRC / "dsfusion").resolve():
        raise SetupError(f"dsfusion imported from {dsfusion.__file__}, not {SRC}")
    return {"dsfusion": dsfusion, "evidence": evidence, "bpa": bpa,
            "classify": classify, "data": data, "cli": cli}


class Workload:
    """One closed-loop caller: ``batch(j)`` gives the j-th input and ``run``
    computes its output; ``check`` and ``verify`` judge that output."""

    name = ""
    # A run measures whole cycles of this many batches, so that workloads
    # whose batches differ in cost keep the same mix.
    cycle = 1
    # Batches in each pass of a traced run.
    trace_batches = 1

    def __init__(self, mods: dict):
        self.mods = mods
        self.first_digest: dict = {}

    def setup(self) -> None:
        """Program-side set-up, counted in ``setup_s``."""

    def prepare_checks(self) -> None:
        """Benchmark-side reference data for ``check``, not counted in ``setup_s``."""

    def trace_setup(self) -> None:
        """Program-side set-up repeated once per traced pass (e.g. a load)."""

    def batch(self, j: int):
        raise NotImplementedError

    def items(self, x) -> int:
        raise NotImplementedError

    def run(self, x):
        raise NotImplementedError

    def check(self, x, out) -> tuple[str | None, object]:
        """(error or None, JSON-serialisable digest of the output)."""
        raise NotImplementedError

    def verify(self, j: int, digest) -> str | None:
        """Batches with equal inputs must give equal digests, in any process."""
        x = self.batch(j)
        if digest != self.first_digest.setdefault(x, digest):
            return f"{x}: output differs from the first run of the same input"
        return None


class EmailSweep(Workload):
    """Blocks of the criterion-10 sweep: ``(interval, 1, 1, benign)`` with
    both values of ``benign``, starting at a seeded offset."""

    name = "email_sweep"
    trace_batches = 20

    def __init__(self, mods, seed):
        super().__init__(mods)
        rng = random.Random(seed)
        self.offset = rng.randrange(2 * EMAIL_INTERVALS)
        self.sample_rng = random.Random(rng.getrandbits(64))
        self.pool: list[list[tuple]] = []

    def setup(self):
        self.model = self.mods["classify"].email_model_default()
        pool = []
        for b in range(EMAIL_POOL_BATCHES):
            start = self.offset + b * EMAIL_BATCH
            pool.append([
                (float((k // 2) % EMAIL_INTERVALS), 1, 1, k % 2)
                for k in range(start, start + EMAIL_BATCH)
            ])
        self.pool = pool

    def batch(self, j):
        return self.pool[j % len(self.pool)]

    def items(self, x):
        return len(x)

    def run(self, x):
        classify_email = self.mods["classify"].classify_email
        model = self.model
        return [classify_email(msg, model) for msg in x]

    def check(self, x, out):
        return self._check(x, out), None

    def verify(self, j, digest):
        return None

    def _check(self, x, out):
        if len(out) != len(x):
            return f"{len(out)} predictions for {len(x)} messages"
        for msg, pred in zip(x, out):
            if pred.label != "abnormal":
                return f"message {msg} labelled {pred.label!r}, expected 'abnormal'"
        evidence = self.mods["evidence"]
        signal_mass = self.mods["classify"].email_signal_mass
        for k in self.sample_rng.sample(range(len(x)), EMAIL_SAMPLES_PER_BATCH):
            ref = reduce(evidence.combine, [signal_mass(x[k], s, self.model) for s in (1, 2, 3, 4)])
            for bits in (1, 2, 3):
                got, want = out[k].mass.mass_bits(bits), ref.mass_bits(bits)
                if abs(got - want) > MASS_TOL:
                    return f"message {x[k]}: mass[{bits}] {got!r} vs pairwise fold {want!r}"
        return None


@dataclass(frozen=True)
class Reference:
    """Records the reference labels wrongly, and records it finds tied."""

    n: int
    wrong: frozenset
    tied: frozenset


class WbcdCli(Workload):
    """In-process ``dsfusion wbcd --format json`` calls cycling through the
    twelve acceptance subsets and a few seeded fold seeds."""

    name = "wbcd_cli"
    cycle = trace_batches = len(WBCD_SUBSETS)

    def __init__(self, mods, seed):
        super().__init__(mods)
        rng = random.Random(seed)
        self.fold_seeds = [rng.randrange(10 ** 6) for _ in range(WBCD_SEEDS_PER_RUN)]
        self.reference: dict[tuple[str, int], Reference] = {}
        # Records one call classifies; the CLI loads the file itself.
        self.n_records = sum(1 for line in WBCD_PATH.read_text(encoding="utf-8").splitlines()
                             if line.strip())

    def batch(self, j):
        return WBCD_SUBSETS[j % len(WBCD_SUBSETS)], self.fold_seeds[(j // len(WBCD_SUBSETS)) % len(self.fold_seeds)]

    def items(self, x):
        return self.n_records

    def run(self, x):
        subset, fold_seed = x
        argv = ["wbcd", "--data", str(WBCD_PATH), "--features", subset,
                "--seed", str(fold_seed), "--format", "json"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.mods["cli"].main(argv)
        return code, stdout.getvalue()

    def prepare_checks(self):
        dataset = self.mods["data"].load_wbcd(WBCD_PATH)
        for j in range(len(WBCD_SUBSETS) * len(self.fold_seeds)):
            subset, fold_seed = self.batch(j)
            self.reference[subset, fold_seed] = self._reference(dataset, subset, fold_seed)

    def _reference(self, dataset, subset, fold_seed) -> "Reference":
        """Which records generic ``combine`` over ``sigmoid_mass`` gets wrong,
        and which it finds tied.

        Thresholds are recomputed here from the documented rank rule rather
        than through ``train_binary``, so a change to training is checked
        against an independent reference.
        """
        evidence, bpa = self.mods["evidence"], self.mods["bpa"]
        features = [WBCD_LETTERS.index(ch) for ch in subset]
        folds = self.mods["data"].make_folds(len(dataset), 10, fold_seed)
        records = dataset.records
        wrong, tied = set(), set()
        for fold in range(folds.k):
            train = [records[i] for i in folds.train_indices(fold)]
            normal = sum(1 for r in train if r.label == 0)
            thresholds = {}
            for f in features:
                values = sorted(r.features[f] for r in train if r.features[f] is not None)
                k = min(max(math.floor(len(values) * normal / len(train) + 0.5), 1), len(values))
                thresholds[f] = values[k - 1]
            for i in folds.test_indices(fold):
                r = records[i]
                masses = [bpa.sigmoid_mass(r.features[f], bpa.SigmoidBpa(thresholds[f]))
                          for f in features if r.features[f] is not None]
                margin = 0.0
                if masses:
                    fused = reduce(evidence.combine, masses)
                    margin = fused.mass_bits(2) - fused.mass_bits(1)
                if abs(margin) <= TIE_MARGIN:
                    tied.add(r.id)
                elif (margin > 0) != (r.label == 1):
                    wrong.add(r.id)
        return Reference(len(records), frozenset(wrong), frozenset(tied))

    def check(self, x, out):
        code, stdout = out
        if code != 0:
            return f"{x}: exit code {code}", None
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"{x}: stdout is not JSON ({exc})", None
        if report.get("task") != "wbcd" or report.get("config", {}).get("features") != x[0]:
            return f"{x}: report is for {report.get('task')!r} {report.get('config')!r}", None
        # stdout is documented as byte-stable, but the JSON report carries
        # runtime_seconds; everything else must repeat byte for byte.
        stable = _RUNTIME_FIELD.sub("", stdout)
        return None, [report.get("accuracy"), report.get("misclassified"), _sha256(stable)]

    def verify(self, j, digest):
        x = self.batch(j)
        ref = self.reference[x]
        accuracy, misclassified = digest[0], set(digest[1])
        lo = (ref.n - len(ref.wrong) - len(ref.tied)) / ref.n
        hi = (ref.n - len(ref.wrong)) / ref.n
        if not isinstance(accuracy, float) or not lo - MASS_TOL <= accuracy <= hi + MASS_TOL:
            return f"{x}: accuracy {accuracy!r} outside reference [{lo!r}, {hi!r}]"
        if not ref.wrong <= misclassified <= ref.wrong | ref.tied:
            return (f"{x}: misclassified ids differ from the reference beyond its ties: "
                    f"{sorted((misclassified - ref.tied) ^ ref.wrong)[:10]}")
        return super().verify(j, digest)


class IrisCv(Workload):
    """One ten-fold cross-validation of iris per batch, the unit that
    ``dsfusion iris --runs`` repeats."""

    name = "iris_cv"
    cycle = trace_batches = IRIS_SEEDS_PER_RUN

    def __init__(self, mods, seed):
        super().__init__(mods)
        rng = random.Random(seed)
        self.fold_seeds = [rng.randrange(10 ** 6) for _ in range(IRIS_SEEDS_PER_RUN)]

    def setup(self):
        self.dataset = self.mods["data"].load_iris(IRIS_PATH)

    def trace_setup(self):
        self.mods["data"].load_iris(IRIS_PATH)

    def batch(self, j):
        return self.fold_seeds[j % len(self.fold_seeds)]

    def items(self, x):
        return len(self.dataset)

    def run(self, x):
        data = self.mods["data"]
        return data.evaluate(self.dataset, "iris", folds=data.make_folds(len(self.dataset), 10, x))

    def check(self, x, out):
        text = self.mods["data"].report_json(out, include_runtime=False)
        return self._check_labels(x, out, text), _sha256(text)

    def _check_labels(self, x, out, text):
        labels = list(self.dataset.label_names)
        confusion = json.loads(text)["confusion"]
        if confusion.get("labels") != labels:
            return f"fold seed {x}: confusion labels {confusion.get('labels')} != {labels}"
        if sum(map(sum, confusion["matrix"])) != len(self.dataset):
            return f"fold seed {x}: confusion matrix does not cover every record"
        for detail in getattr(out, "details", ()):
            if detail["predicted"] not in labels:
                return f"fold seed {x}: label {detail['predicted']!r} is not in the frame"
        return None


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


WORKLOADS = {w.name: w for w in (EmailSweep, WbcdCli, IrisCv)}
