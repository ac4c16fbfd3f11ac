"""End-to-end tests for the command-line interface and its exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsfusion import combine, combine_all, conflict, make_frame, make_mass
from dsfusion.cli import main
from dsfusion.data import EMAIL_HEADER

from conftest import IRIS_PATH, WBCD_PATH

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv):
    # A separate interpreter, so an uncaught exception would print its
    # traceback to stderr instead of failing inside the test.
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    return subprocess.run(
        [sys.executable, "-c", "from dsfusion.cli import run; run()", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestWbcdCommand:
    def test_full_fusion_accuracy(self, capsys):
        code, out, _ = run_cli(
            capsys, "wbcd", "--data", str(WBCD_PATH), "--features", "ABCDEFGHI", "--seed", "42"
        )
        assert code == 0
        accuracy = float(out.split("accuracy: ")[1].split()[0])
        assert 0.965 <= accuracy <= 0.985

    def test_single_feature_accuracy(self, capsys):
        code, out, _ = run_cli(capsys, "wbcd", "--data", str(WBCD_PATH), "--features", "A")
        assert code == 0
        accuracy = float(out.split("accuracy: ")[1].split()[0])
        assert accuracy == pytest.approx(0.860, abs=0.02)

    def test_ablation_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "wbcd", "--data", str(WBCD_PATH), "--ablate", "A,BCF"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("A:")
        assert lines[1].startswith("BCF:")

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "wbcd", "--data", "missing.file")
        assert code == 3
        assert "error" in err

    def test_bad_feature_letter_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "wbcd", "--data", str(WBCD_PATH), "--features", "AZ")
        assert code == 2

    @pytest.mark.parametrize("spec", ["ı", "Aı", "ＡＢ"])
    def test_non_ascii_feature_letter_exits_2(self, capsys, spec):
        # str.upper() maps the dotless ı onto I; only ASCII letters name features.
        code, out, err = run_cli(capsys, "wbcd", "--data", str(WBCD_PATH), "--features", spec)
        assert code == 2
        assert out == ""
        assert "unknown feature letter" in err

    def test_json_format_parses(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "wbcd", "--data", str(WBCD_PATH), "--format", "json",
            "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["task"] == "wbcd"
        assert json.loads(out_path.read_text())["accuracy"] == payload["accuracy"]

    def test_deterministic_stdout(self, capsys):
        _, out1, _ = run_cli(capsys, "wbcd", "--data", str(WBCD_PATH), "--format", "json")
        _, out2, _ = run_cli(capsys, "wbcd", "--data", str(WBCD_PATH), "--format", "json")
        a, b = json.loads(out1), json.loads(out2)
        a.pop("runtime_seconds"), b.pop("runtime_seconds")
        assert a == b

    def test_dump_model_round_trips(self, capsys, tmp_path):
        from dsfusion import classifier_from_dict

        model_path = tmp_path / "model.json"
        code, _, _ = run_cli(
            capsys, "wbcd", "--data", str(WBCD_PATH), "--dump-model", str(model_path)
        )
        assert code == 0
        model = classifier_from_dict(json.loads(model_path.read_text()))
        assert model.n_features == 9


    def test_more_folds_than_records_exits_3_without_traceback(self, tmp_path):
        path = tmp_path / "wbcd3.data"
        path.write_text("\n".join(WBCD_PATH.read_text().splitlines()[:3]) + "\n")
        result = run_cli_process("wbcd", "--data", str(path))
        assert result.returncode == 3
        assert result.stderr.startswith("error: cannot split 3 records into 10 folds")
        assert "Traceback" not in result.stderr


class TestIrisCommand:
    def test_ten_runs_mean(self, capsys):
        code, out, _ = run_cli(capsys, "iris", "--data", str(IRIS_PATH), "--runs", "10")
        assert code == 0
        mean = float(out.split("accuracy: ")[1].split("%")[0])
        assert 94.0 <= mean <= 97.0
        assert "recurrent misclassified ids:" in out

    def test_recurrent_ids_in_overlap_region(self, capsys):
        code, out, _ = run_cli(capsys, "iris", "--data", str(IRIS_PATH), "--runs", "10")
        assert code == 0
        ids_line = out.split("recurrent misclassified ids: ")[1].strip()
        ids = [int(tok) for tok in ids_line.split(", ") if tok != "none"]
        assert ids, "expected some recurrent errors"
        assert all(51 <= rid <= 150 for rid in ids)

    def test_zero_runs_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "iris", "--data", str(IRIS_PATH), "--runs", "0")
        assert code == 2

    def test_out_payload(self, capsys, tmp_path):
        out_path = tmp_path / "iris.json"
        code, _, _ = run_cli(
            capsys, "iris", "--data", str(IRIS_PATH), "--runs", "2", "--out", str(out_path)
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["config"]["runs"] == 2
        assert len(payload["runs_detail"]) == 2


    @pytest.mark.parametrize(
        "folds, cause",
        [("2", "class 1 has no training records"),
         ("5", "every class needs at least two values for a sample sd")],
    )
    def test_fold_too_small_to_train_exits_3_without_traceback(self, tmp_path, folds, cause):
        # 5/5/2 records per class: some training fold lacks enough of a class.
        lines = IRIS_PATH.read_text().splitlines()
        path = tmp_path / "iris12.data"
        path.write_text("\n".join(lines[0:5] + lines[50:55] + lines[100:102]) + "\n")
        result = run_cli_process("iris", "--data", str(path), "--runs", "1", "--folds", folds)
        assert result.returncode == 3
        assert result.stderr.startswith("error: fold ")
        assert "training records: " + cause in result.stderr
        assert "Traceback" not in result.stderr

    def test_more_folds_than_records_exits_3_without_traceback(self, tmp_path):
        path = tmp_path / "iris2.data"
        lines = IRIS_PATH.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[50]]) + "\n")
        result = run_cli_process("iris", "--data", str(path))
        assert result.returncode == 3
        assert result.stderr.startswith("error: cannot split 2 records into 10 folds")
        assert "Traceback" not in result.stderr

    def test_dump_model_on_one_record_class_exits_3_without_traceback(self, tmp_path):
        # 5/5/1 records per class: the whole set cannot train the model it dumps.
        lines = IRIS_PATH.read_text().splitlines()
        path = tmp_path / "iris11.data"
        path.write_text("\n".join(lines[0:5] + lines[50:55] + lines[100:101]) + "\n")
        model_path = tmp_path / "model.json"
        result = run_cli_process("iris", "--data", str(path), "--dump-model", str(model_path))
        assert result.returncode == 3
        assert result.stderr.startswith("error: ")
        assert "every class needs at least two values for a sample sd" in result.stderr
        assert "Traceback" not in result.stderr


class TestEmailCommand:
    def test_generated_corpus_all_worms_detected(self, capsys):
        code, out, _ = run_cli(capsys, "email", "--generate", "--seed", "7")
        assert code == 0
        assert "worms detected: 42/42" in out
        assert "false positives: none" in out

    def test_three_signal_margins_printed(self, capsys):
        code, out, _ = run_cli(
            capsys, "email", "--generate", "--seed", "7", "--signals", "134"
        )
        assert code == 0
        assert "closest-margin worms:" in out
        assert "margin" in out

    def test_signal_five_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "email", "--generate", "--signals", "5")
        assert code == 2

    @pytest.mark.parametrize("spec", ["١٢", "１２", "1٣"])
    def test_non_ascii_digits_exit_2(self, capsys, spec):
        # int() reads Arabic-Indic and fullwidth digits; only ASCII names signals.
        code, out, err = run_cli(capsys, "email", "--generate", "--signals", spec)
        assert code == 2
        assert out == ""
        assert "signals must be digits 1-4" in err

    def test_needs_data_or_generate(self, capsys):
        code, _, _ = run_cli(capsys, "email")
        assert code == 2

    def test_save_data_round_trip(self, capsys, tmp_path):
        saved = tmp_path / "corpus.csv"
        code, _, _ = run_cli(
            capsys, "email", "--generate", "--seed", "3", "--save-data", str(saved)
        )
        assert code == 0
        code2, out2, _ = run_cli(capsys, "email", "--data", str(saved), "--seed", "3")
        assert code2 == 0
        assert "worms detected: 42/42" in out2

    @pytest.mark.parametrize("rows", ["1,nan,1,1,0,worm\n", "1,inf,1,1,0,worm\n", ""])
    def test_bad_csv_exits_3_without_traceback(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(EMAIL_HEADER) + "\n" + rows)
        result = run_cli_process("email", "--data", str(path))
        assert result.returncode == 3
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr


class TestGenerateEmailCommand:
    def test_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "email.csv"
        code, stdout, _ = run_cli(capsys, "generate-email", "--out", str(out), "--seed", "5")
        assert code == 0
        assert "132" in stdout
        header = out.read_text().splitlines()[0]
        assert header == "id,interval_seconds,spoofed,dangerous_attachment,benign_attachment,label"

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "generate-email", "--out", str(a), "--seed", "9")
        run_cli(capsys, "generate-email", "--out", str(b), "--seed", "9")
        assert a.read_bytes() == b.read_bytes()


class TestCombineCommand:
    def test_witness_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "combine", "--frame", "Jon,Mary,Mike",
            "--mass", "Jon:0.9,Mary:0.1", "--mass", "Mike:0.9,Mary:0.1",
        )
        assert code == 0
        assert "Mary:1" in out
        assert "0.99" in out

    def test_single_mass_echoed(self, capsys):
        code, out, _ = run_cli(
            capsys, "combine", "--frame", "a,b", "--mass", "a:0.6,b:0.4"
        )
        assert code == 0
        assert "a:0.6" in out
        assert "K (final step): 0" in out

    def test_union_subsets(self, capsys):
        code, out, _ = run_cli(
            capsys, "combine", "--frame", "a,b,c",
            "--mass", "a|b:0.5,c:0.3,a|b|c:0.2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["combined"]["a|b"] == pytest.approx(0.5)
        assert payload["intervals"]["c"]["bel"] == pytest.approx(0.3)

    def test_final_conflict_matches_the_pairwise_rule(self, capsys):
        specs = ["a:0.5,b:0.3,a|b|c:0.2", "b|c:0.6,a:0.3,a|b|c:0.1", "c:0.7,a|b:0.2,a|b|c:0.1"]
        argv = ["combine", "--frame", "a,b,c", "--format", "json"]
        for spec in specs:
            argv += ["--mass", spec]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        frame = make_frame(["a", "b", "c"])
        masses = [
            make_mass(frame, [(frame.subset(part.rpartition(":")[0].split("|")),
                               float(part.rpartition(":")[2])) for part in spec.split(",")])
            for spec in specs
        ]
        head = combine_all(masses[:2])
        payload = json.loads(out)
        assert payload["conflict"] == conflict(head, masses[2])
        expected = combine(head, masses[2])
        assert payload["combined"] == {frame.describe(s.bits): v for s, v in expected.items()}

    def test_total_conflict_exits_4(self, capsys):
        code, _, err = run_cli(
            capsys, "combine", "--frame", "a,b",
            "--mass", "a:1", "--mass", "b:1",
        )
        assert code == 4
        assert "conflict" in err

    def test_unparseable_mass_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "combine", "--frame", "a,b", "--mass", "a=0.5,b=0.5"
        )
        assert code == 2

    def test_bad_sum_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "combine", "--frame", "a,b", "--mass", "a:0.5,b:0.4"
        )
        assert code == 2


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert run_cli(capsys, "wbcd", "--data", str(WBCD_PATH), "--bogus")[0] == 2

    def test_help_lists_subcommands(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert code == 0
        text = out + err
        for name in ("wbcd", "iris", "email", "combine", "generate-email"):
            assert name in text


# Fuzzing: whatever the input, main returns a documented exit code and
# nothing escapes it.
DOCUMENTED_EXITS = {0, 2, 3, 4}


def run_cli_quietly(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def small_wbcd(fuzz_dir) -> Path:
    # The parser is under test, not the classifier: 40 records keep each run short.
    path = fuzz_dir / "small.data"
    path.write_text("\n".join(WBCD_PATH.read_text().splitlines()[:40]) + "\n")
    return path


@settings(max_examples=40, deadline=None)
@given(spec=st.one_of(st.text(max_size=12), st.text(alphabet="ABCDEFGHIJabci ,", max_size=10)))
def test_fuzz_wbcd_features(small_wbcd, spec):
    code = run_cli_quietly("wbcd", "--data", str(small_wbcd), f"--features={spec}")
    assert code in DOCUMENTED_EXITS


@settings(max_examples=60, deadline=None)
@given(spec=st.one_of(st.text(max_size=8), st.text(alphabet="0123456 ", max_size=6)))
def test_fuzz_email_signals(spec):
    assert run_cli_quietly("email", "--generate", f"--signals={spec}") in DOCUMENTED_EXITS


_WBCD_CELLS = [str(v) for v in range(1, 11)] + ["?"]
_BAD_CELLS = ["0", "11", "-3", "2.5", "x", "", " 5", "1e1", "nan"]


@st.composite
def wbcd_files(draw) -> str:
    """Small WBCD-layout files: mostly valid rows, some with a wrong field
    count, a bad cell or a bad class code."""
    n_rows = draw(st.integers(1, 14))
    faulty = draw(st.sets(st.integers(0, n_rows - 1), max_size=2))
    lines = []
    for row in range(n_rows):
        cells = draw(st.lists(st.sampled_from(_WBCD_CELLS), min_size=9, max_size=9))
        fields = [str(1000 + row), *cells, draw(st.sampled_from(["2", "4"]))]
        fault = draw(st.sampled_from(["count", "cell", "class"])) if row in faulty else None
        if fault == "count":
            fields = fields[:-1] if draw(st.booleans()) else fields + ["2"]
        elif fault == "cell":
            fields[draw(st.integers(1, 9))] = draw(st.sampled_from(_BAD_CELLS))
        elif fault == "class":
            fields[10] = draw(st.sampled_from(["3", "", "?"]))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(text=wbcd_files(), features=st.sampled_from(["A", "BD", "ABCDEFGHI"]))
def test_fuzz_wbcd_data_file(fuzz_dir, text, features):
    path = fuzz_dir / "wbcd.data"
    path.write_text(text, encoding="utf-8")
    code = run_cli_quietly("wbcd", "--data", str(path), "--folds", "2", "--features", features)
    assert code in DOCUMENTED_EXITS
