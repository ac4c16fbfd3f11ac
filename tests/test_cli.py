"""End-to-end tests for the command-line interface and its exit codes."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsfusion import (
    MassFunction,
    classifier_to_dict,
    combine,
    combine_all,
    combine_with_conflict,
    make_frame,
    train_binary,
    train_three_class,
)
from dsfusion import cli
from dsfusion.cli import main, run
from dsfusion.data import (
    EMAIL_HEADER,
    generate_email,
    load_email,
    load_iris,
    load_wbcd,
    write_email_csv,
)

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

    def test_ablate_reuses_the_folds(self, capsys):
        # Each subset is evaluated on the one fold plan, so a repeated subset repeats its row.
        code, out, _ = run_cli(capsys, "wbcd", "--data", str(WBCD_PATH), "--ablate", "A,A")
        assert code == 0
        first, second = out.splitlines()
        assert first == second
        assert first.startswith("A: ")

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

    def test_trace_lists_features_in_index_order(self, capsys):
        # The model fuses its fitted features in index order, whatever the
        # order of --features, and the config names them in that order.
        code, out, _ = run_cli(capsys, "wbcd", "--data", str(WBCD_PATH), "--features", "IDA")
        assert code == 0
        assert "config: features=ADI," in out
        assert "via {'features': [0, 3, 8]}" in out
        assert "[8, 3, 0]" not in out

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

    def test_csv_stdout_is_the_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "wbcd", "--data", str(WBCD_PATH), "--format", "csv", "--out", str(out_path)
        )
        assert code == 0
        assert out.startswith("fold,accuracy\r\n")
        assert out == out_path.read_bytes().decode("utf-8")

    @pytest.mark.parametrize("flags", [["--out", "r.json", "--format", "json"],
                                       ["--out", "r.txt"], ["--format", "csv"]])
    def test_ablate_with_out_or_format_exits_2(self, capsys, tmp_path, flags):
        flags = [str(tmp_path / f) if f.startswith("r.") else f for f in flags]
        code, out, err = run_cli(
            capsys, "wbcd", "--data", str(WBCD_PATH), "--ablate", "A,BCF", *flags
        )
        assert code == 2
        assert out == ""
        assert "--ablate" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("features, message", [
        ("BC", "--ablate prints a text table and takes no --out, --format or --features"),
        ("ABCDEFGHI", "--ablate prints a text table and takes no --out, --format or --features"),
        ("", "'': feature subset must be nonempty"),
    ], ids=["BC", "all", "empty"])
    def test_ablate_with_features_exits_2(self, capsys, features, message):
        # --ablate names its own subsets; an explicit --features used to be ignored.
        code, out, err = run_cli(
            capsys, "wbcd", "--data", str(WBCD_PATH), "--ablate", "A,BCF", "--features", features
        )
        assert (code, out) == (2, "")
        # A handler's usage error names the command, as argparse's own errors do.
        assert err.startswith("usage: dsfusion wbcd ")
        assert err.endswith(f"dsfusion wbcd: error: {message}\n")

    @pytest.mark.parametrize("spec", ["", "A,"], ids=["empty", "trailing-comma"])
    def test_ablate_with_an_empty_subset_exits_2(self, capsys, spec):
        # An empty --ablate spec used to run the plain report and exit 0, and with --format
        # json it skipped the check that --ablate takes no --format.
        code, out, err = run_cli(capsys, "wbcd", "--data", str(WBCD_PATH), "--ablate", spec)
        assert (code, out) == (2, "")
        assert err.endswith("dsfusion wbcd: error: '': feature subset must be nonempty\n")
        code, out, err = run_cli(
            capsys, "wbcd", "--data", str(WBCD_PATH), "--ablate", spec, "--format", "json"
        )
        assert (code, out) == (2, "")
        assert err.endswith(
            "error: --ablate prints a text table and takes no --out, --format or --features\n"
        )

    @pytest.mark.parametrize("flags", [["--ablate", "A,"], ["--ablate", "A,Z"],
                                       ["--features", "Z"], ["--folds", "1"]],
                             ids=["ablate-empty", "ablate-letter", "features", "folds"])
    def test_usage_error_writes_no_model(self, capsys, tmp_path, flags):
        # A bad --ablate spec used to be refused only after --dump-model had written the model.
        model_path = tmp_path / "m.json"
        code, out, err = run_cli(
            capsys, "wbcd", "--data", str(WBCD_PATH), *flags, "--dump-model", str(model_path)
        )
        assert (code, out) == (2, "")
        assert "dsfusion wbcd: error: " in err
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_stdout(self, capsys):
        _, out1, _ = run_cli(capsys, "wbcd", "--data", str(WBCD_PATH), "--format", "json")
        _, out2, _ = run_cli(capsys, "wbcd", "--data", str(WBCD_PATH), "--format", "json")
        a, b = json.loads(out1), json.loads(out2)
        a.pop("runtime_seconds"), b.pop("runtime_seconds")
        assert a == b

    def test_dump_model_writes_the_model_of_every_record(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        code, _, _ = run_cli(
            capsys, "wbcd", "--data", str(WBCD_PATH), "--dump-model", str(model_path)
        )
        assert code == 0
        ds = load_wbcd(WBCD_PATH)
        expected = classifier_to_dict(train_binary(ds.rows, ds.labels))
        assert json.loads(model_path.read_text()) == expected


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

    def test_format_is_a_usage_error(self, capsys):
        # The iris summary has one layout and --out always writes JSON.
        code, _, err = run_cli(capsys, "iris", "--data", str(IRIS_PATH), "--format", "csv")
        assert code == 2
        assert "unrecognized arguments: --format csv" in err

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
        ids=["2-folds", "5-folds"],
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

    def test_dump_model_writes_the_model_of_every_record(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        code, _, _ = run_cli(
            capsys, "iris", "--data", str(IRIS_PATH), "--dump-model", str(model_path)
        )
        assert code == 0
        ds = load_iris(IRIS_PATH)
        model = train_three_class(ds.rows, ds.labels, make_frame(ds.label_names))
        assert len(ds) == 150
        assert json.loads(model_path.read_text()) == classifier_to_dict(model)

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

    def test_signal_order_does_not_reach_stdout(self, capsys):
        def stdout(signals):
            code, out, _ = run_cli(capsys, "email", "--generate", "--signals", signals)
            assert code == 0
            return [line for line in out.splitlines() if not line.startswith("runtime: ")]

        given = stdout("431")
        assert given[0] == "signals: 134"
        assert given == stdout("134")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_report_stdout_is_the_out_file(self, capsys, tmp_path, fmt):
        # The summary goes to stderr, so stdout parses as the report alone.
        out_path = tmp_path / f"report.{fmt}"
        code, out, err = run_cli(
            capsys, "email", "--generate", "--seed", "7", "--format", fmt, "--out", str(out_path)
        )
        assert code == 0
        assert out == out_path.read_bytes().decode("utf-8")
        if fmt == "json":
            assert json.loads(out)["task"] == "email"
        else:
            assert out.startswith("fold,accuracy\r\n")
        assert err.startswith("signals: 1234\nworms detected: 42/42")
        assert "closest-margin worms:" in err

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

    def test_generate_with_data_exits_2(self, capsys, tmp_path):
        # --generate used to run and never read the --data file.
        code, out, err = run_cli(capsys, "email", "--generate", "--data", str(tmp_path / "x.csv"))
        assert code == 2
        assert out == ""
        assert "--generate" in err and "--data" in err

    def test_repeated_id_exits_3_naming_it(self, capsys, tmp_path):
        path = tmp_path / "repeat.csv"
        path.write_text("\n".join([",".join(EMAIL_HEADER), "1,60,1,1,0,worm",
                                   "12,600,0,0,1,normal", "12,60,1,1,0,worm"]) + "\n")
        code, out, err = run_cli(capsys, "email", "--data", str(path))
        assert code == 3
        assert out == ""
        assert err == "error: record ids must be unique, 12 repeats\n"

    def test_save_data_round_trip(self, capsys, tmp_path):
        # generate-email writes the corpus that email --generate evaluates: the same stdout,
        # but for the text report's runtime line.
        saved = tmp_path / "corpus.csv"
        assert run_cli(capsys, "generate-email", "--out", str(saved), "--seed", "3")[0] == 0

        def email(*source):
            code, out, _ = run_cli(capsys, "email", *source, "--seed", "3")
            return code, re.sub(r"(?m)^runtime: .*\n", "", out)

        code, out = email("--data", str(saved))
        assert code == 0
        assert "worms detected: 42/42" in out
        assert email("--generate") == (code, out)

    def test_save_data_without_generate_exits_2(self, capsys, tmp_path):
        # --save-data is not an option: generate-email is the one corpus writer.
        corpus, saved = tmp_path / "corpus.csv", tmp_path / "saved.csv"
        assert run_cli(capsys, "generate-email", "--out", str(corpus))[0] == 0
        code, out, err = run_cli(
            capsys, "email", "--data", str(corpus), "--save-data", str(saved)
        )
        assert code == 2
        assert out == ""
        assert err.endswith(f"error: unrecognized arguments: --save-data {saved}\n")
        assert not saved.exists()

    def test_runs_as_a_module(self):
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        result = subprocess.run(
            [sys.executable, "-m", "dsfusion.cli", "email", "--generate"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("signals: 1234\n")

    @pytest.mark.parametrize("rows", ["1,nan,1,1,0,worm\n", "1,inf,1,1,0,worm\n", ""])
    def test_bad_csv_exits_3_without_traceback(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(EMAIL_HEADER) + "\n" + rows)
        result = run_cli_process("email", "--data", str(path))
        assert result.returncode == 3
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command, path", [("wbcd", WBCD_PATH), ("iris", IRIS_PATH),
                                           ("email", None)], ids=["wbcd", "iris", "email"])
def test_non_utf8_data_file_exits_3_without_traceback(tmp_path, command, path):
    # The decode error used to escape as a plain ValueError: exit 4.
    data = path.read_bytes() if path else ",".join(EMAIL_HEADER).encode() + b"\n1,60,1,1,0,worm\n"
    bad = tmp_path / "latin1.data"
    bad.write_bytes(data.replace(b"1", b"\xe9", 1))
    result = run_cli_process(command, "--data", str(bad))
    assert result.returncode == 3
    assert result.stderr.startswith(f"error: {bad}: not UTF-8 text")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("argv, cause", [
    (["wbcd", "--data", str(IRIS_PATH / "x")], "Not a directory"),
    (["wbcd", "--data", "a" * 300], "File name too long"),
    (["iris", "--data", str(IRIS_PATH), "--runs", "1", "--out", str(IRIS_PATH / "x.json")],
     "Not a directory"),
], ids=["data-under-a-file", "data-name-too-long", "out-under-a-file"])
def test_any_os_error_on_a_path_exits_3(capsys, argv, cause):
    # Only three OSError subclasses used to be caught; the rest escaped: exit 1.
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.startswith("error: [Errno ") and cause in err


BOM = "\ufeff".encode("utf-8")


def _data_file(tmp_path, command):
    if command == "email":
        path = tmp_path / "email.csv"
        write_email_csv(generate_email(3), path)
        return path
    return {"wbcd": WBCD_PATH, "iris": IRIS_PATH}[command]


@pytest.mark.parametrize("command, load", [("wbcd", load_wbcd), ("iris", load_iris),
                                           ("email", load_email)], ids=["wbcd", "iris", "email"])
def test_leading_byte_order_mark_is_dropped(tmp_path, capsys, command, load):
    # Some editors start a UTF-8 file with a byte-order mark; iris and email used to reject it.
    path = _data_file(tmp_path, command)
    marked = tmp_path / "marked.data"
    marked.write_bytes(BOM + path.read_bytes())
    assert load(marked) == load(path)
    assert run_cli(capsys, command, "--data", str(marked))[0] == 0


@pytest.mark.parametrize("command, message", [("iris", "malformed feature"),
                                              ("email", "malformed numeric field")],
                         ids=["iris", "email"])
def test_byte_order_mark_on_a_later_line_is_a_cell_error(tmp_path, capsys, command, message):
    lines = _data_file(tmp_path, command).read_bytes().split(b"\n")
    lines[1] = BOM + lines[1]
    bad = tmp_path / "marked.data"
    bad.write_bytes(b"\n".join(lines))
    code, out, err = run_cli(capsys, command, "--data", str(bad))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {bad}:2: {message}")


@pytest.mark.parametrize("command, column, message", [
    ("wbcd", 2, "feature '1111"), ("email", 0, "malformed numeric field"),
    ("email", 3, "malformed numeric field"),
], ids=["wbcd-feature", "email-id", "email-flag"])
def test_cell_past_the_int_digit_limit_exits_3_naming_its_line(tmp_path, capsys, command, column,
                                                               message):
    # int() refuses a 5,000-digit cell with a bare ValueError, which used to exit 4.
    lines = _data_file(tmp_path, command).read_text().split("\n")
    fields = lines[1].split(",")
    fields[column] = "1" * 5000
    lines[1] = ",".join(fields)
    bad = tmp_path / "long.data"
    bad.write_text("\n".join(lines))
    code, out, err = run_cli(capsys, command, "--data", str(bad))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {bad}:2: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv, runtime_lines", [
    (("wbcd", "--data", str(WBCD_PATH)), 1),
    (("wbcd", "--data", str(WBCD_PATH), "--format", "json"), 1),
    (("wbcd", "--data", str(WBCD_PATH), "--format", "csv"), 1),
    (("email", "--generate", "--format", "json"), 1),
    (("wbcd", "--data", str(WBCD_PATH), "--ablate", "A,BCF"), 0),
], ids=["wbcd-text", "wbcd-json", "wbcd-csv", "email-json", "wbcd-ablate"])
def test_a_report_ends_stderr_with_one_runtime_line(capsys, argv, runtime_lines):
    # The report writer prints the run time after the report; an ablation writes no report.
    code, _, err = run_cli(capsys, *argv)
    assert code == 0
    lines = err.splitlines()
    assert sum(line.startswith("runtime: ") for line in lines) == runtime_lines
    if runtime_lines:
        assert re.fullmatch(r"runtime: [0-9]+\.[0-9]{3} s", lines[-1])


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

    def test_values_of_a_repeated_set_add_up(self, capsys):
        # b|a names the set a|b does; each set's values are summed before the mass is checked.
        code, out, _ = run_cli(
            capsys, "combine", "--frame", "a,b,c",
            "--mass", "a:0.3,a|b:0.1,a:0.3,b|a:0.2,c:0.1", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["combined"] == {"a": 0.6, "a|b": 0.1 + 0.2, "c": 0.1}

    def test_final_conflict_matches_the_pairwise_rule(self, capsys):
        specs = ["a:0.5,b:0.3,a|b|c:0.2", "b|c:0.6,a:0.3,a|b|c:0.1", "c:0.7,a|b:0.2,a|b|c:0.1"]
        argv = ["combine", "--frame", "a,b,c", "--format", "json"]
        for spec in specs:
            argv += ["--mass", spec]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        frame = make_frame(["a", "b", "c"])
        masses = [
            MassFunction(frame, {frame.bits(part.rpartition(":")[0].split("|")):
                                 float(part.rpartition(":")[2]) for part in spec.split(",")})
            for spec in specs
        ]
        head = combine_all(masses[:2])
        payload = json.loads(out)
        assert payload["conflict"] == combine_with_conflict(head, masses[2])[1]
        expected = combine(head, masses[2])
        assert payload["combined"] == {frame.describe(bits): v for bits, v in expected.items()}

    def test_total_conflict_exits_4(self, capsys):
        code, _, err = run_cli(
            capsys, "combine", "--frame", "a,b",
            "--mass", "a:1", "--mass", "b:1",
        )
        assert code == 4
        assert "conflict" in err

    def test_unparseable_mass_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "combine", "--frame", "a,b", "--mass", "a=0.5,b=0.5"
        )
        assert code == 2
        assert err.endswith("error: bad mass entry 'a=0.5', expected subset:value\n")

    @pytest.mark.parametrize("others", [[], ["--mass", "a|b:1"]], ids=["alone", "fused"])
    def test_mass_summing_within_tolerance_above_one_gets_intervals(self, capsys, others):
        # The mass sums to 1 + 9e-10, within SUM_TOL. Alone, it used to exit 4 with
        # "interval [0.5, 1.0000000009] outside [0, 1]"; fused with a|b:1, it exited 0.
        code, out, _ = run_cli(
            capsys, "combine", "--frame", "a,b", "--mass", "a:0.5,a|b:0.5000000009",
            *others, "--format", "json",
        )
        assert code == 0
        interval = json.loads(out)["intervals"]["a"]
        assert interval["bel"] == pytest.approx(0.5)
        assert interval["pl"] == pytest.approx(1.0)

    @pytest.mark.parametrize("spec, value", [
        ("a:\u0660.\u0666,b:\u0660.\u0664", "\u0660.\u0666"), ("a:0.0_1,b:0.9_9", "0.0_1"),
        ("a:\uff10.\uff16,b:0.4", "\uff10.\uff16"), ("a:0.6\u00a0,b:0.4", "0.6\u00a0"),
        ("a:6e-0_1,b:0.4", "6e-0_1"),
    ], ids=["arabic-indic-digits", "underscores", "fullwidth-digits", "no-break-space",
            "underscore-in-exponent"])
    def test_mass_value_that_is_no_plain_number_exits_2(self, capsys, spec, value):
        # float() reads both, so they used to exit 0 as 0.6/0.4 and 0.01/0.99.
        code, out, err = run_cli(capsys, "combine", "--frame", "a,b", "--mass", spec)
        assert (code, out) == (2, "")
        entry = spec.split(",")[0]
        message = f"bad mass entry {entry!r}: mass value {value!r} is not a plain ASCII number"
        assert err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("value", ["6e-1", " 0.6 ", "0.60", "+0.6", "600e-3", "\t0.6"])
    def test_mass_value_spellings_of_one_number_agree(self, capsys, value):
        _, expected, _ = run_cli(capsys, "combine", "--frame", "a,b", "--mass", "a:0.6,b:0.4")
        code, out, _ = run_cli(capsys, "combine", "--frame", "a,b", "--mass", f"a:{value},b:.4")
        assert (code, out) == (0, expected)

    @pytest.mark.parametrize("frame, spec", [
        ("Θ,a", "Θ:0.5,Θ|a:0.5"), ("a|b,c", "c:1"), ("Θ,a,b", "a:0.5,b:0.5"),
    ], ids=["theta-symbol", "pipe", "theta-symbol-in-a-larger-frame"])
    def test_frame_label_that_describe_cannot_tell_apart_exits_2(self, capsys, frame, spec):
        # With the label Θ, the JSON "combined" object kept one of the two focal sets.
        code, out, err = run_cli(capsys, "combine", "--frame", frame, "--mass", spec,
                                 "--format", "json")
        assert (code, out) == (2, "")
        label = frame.split(",")[0]
        assert err.endswith(f"error: bad frame: frame label {label!r} must not be Θ or hold '|'\n")

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

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["frobnicate"], ["--", "wbcd"], ["--seed", "7", "wbcd"],
        ["--", "combine", "--frame", "a,b", "--mass", "a:1"],
        ["-x", "combine", "--frame", "a,b", "--mass", "a:1"],
    ], ids=lambda argv: " ".join(argv) or "none")
    def test_no_command_first_exits_in_the_whole_tree(self, capsys, monkeypatch, argv):
        # Only the whole tree's parser sees these, and it exits before any handler runs.
        def refuse(args, parser):
            raise AssertionError(f"a handler ran for {argv}")

        for name, (help_line, add_arguments, _) in list(cli.COMMANDS.items()):
            monkeypatch.setitem(cli.COMMANDS, name, (help_line, add_arguments, refuse))
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2)
        assert "Traceback" not in out + err
        assert (out if code == 0 else err).startswith("usage: dsfusion ")

    def test_a_non_int_exit_code_is_a_usage_error(self, capsys, monkeypatch):
        def stop(args, parser):
            raise SystemExit("stop")

        help_line, add_arguments, _ = cli.COMMANDS["combine"]
        monkeypatch.setitem(cli.COMMANDS, "combine", (help_line, add_arguments, stop))
        assert run_cli(capsys, "combine", "--frame", "a,b", "--mass", "a:1")[0] == 2

    def test_help_lists_subcommands(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert code == 0
        text = out + err
        for name in ("wbcd", "iris", "email", "combine", "generate-email"):
            assert name in text

    @pytest.mark.parametrize("task, path", [("wbcd", WBCD_PATH), ("iris", IRIS_PATH)])
    def test_one_fold_is_a_usage_error(self, capsys, task, path):
        code, out, err = run_cli(capsys, task, "--data", str(path), "--folds", "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: dsfusion {task} ")
        assert err.endswith(f"dsfusion {task}: error: --folds must be at least 2\n")

    @pytest.mark.parametrize("argv", [
        ["wbcd", "--data", str(WBCD_PATH), "--features", "A"],
        ["iris", "--data", str(IRIS_PATH), "--runs", "1"],
        ["email", "--generate"],
        ["generate-email", "--out", "corpus.csv"],
        ["combine", "--frame", "a,b", "--mass", "a:1"],
    ], ids=lambda argv: argv[0])
    def test_a_command_builds_only_its_parser(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run_cli(capsys, *argv)[0] == 0
        assert built == [f"dsfusion {argv[0]}"]

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["dsfusion", "combine", "--frame", "a,b", "--mass", "b:1"])
        assert main(None) == 0
        assert capsys.readouterr().out.startswith("combined: {b:1}\n")

    def test_run_exits_with_the_code_of_main(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["dsfusion", "combine", "--frame", "a,b", "--mass", "a:1"])
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("combined: ")


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


def _fuzz_file(draw, lines) -> bytes:
    # The lines as UTF-8 file bytes, sometimes with a blank line put in and
    # sometimes with a byte that is not UTF-8.
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


# Sometimes the data path names an entry under the regular file, which
# cannot exist: an OS error on the path, exit 3 whatever the file holds.
_UNDER_THE_FILE = st.sampled_from([False] * 9 + [True])


def fuzz_path(path: Path, under_the_file: bool) -> str:
    return str(path / "x" if under_the_file else path)


def assert_data_file_exit(code: int, content: bytes, under_the_file: bool) -> None:
    assert code in DOCUMENTED_EXITS
    if under_the_file:
        assert code == 3
        return
    try:
        content.decode("utf-8")
    except UnicodeDecodeError:  # decoding is the first check, whatever else is wrong
        assert code == 3


@st.composite
def wbcd_files(draw) -> bytes:
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
    return _fuzz_file(draw, lines)


@settings(max_examples=60, deadline=None)
@given(content=wbcd_files(), features=st.sampled_from(["A", "BD", "ABCDEFGHI"]),
       under_the_file=_UNDER_THE_FILE)
def test_fuzz_wbcd_data_file(fuzz_dir, content, features, under_the_file):
    path = fuzz_dir / "wbcd.data"
    path.write_bytes(content)
    code = run_cli_quietly("wbcd", "--data", fuzz_path(path, under_the_file), "--folds", "2",
                           "--features", features)
    assert_data_file_exit(code, content, under_the_file)


_BAD_NUMBERS = ["", "x", "nan", "inf", "-inf", "-1", "1_0", " 3", "\u0665", "1e999", "2", "0.5"]
_IRIS_NAMES = ("Iris-setosa", "Iris-versicolor", "Iris-virginica")


def _fuzz_rows(draw, valid_row, faults, n_rows) -> list[str]:
    # Mostly valid rows; up to two get a wrong field count, arbitrary text,
    # or a bad number in one of the fields that ``faults`` names by index.
    faulty = draw(st.sets(st.integers(0, n_rows - 1), max_size=2))
    lines = []
    for row in range(n_rows):
        fields = valid_row(row)
        if row in faulty:
            fault = draw(st.sampled_from([*faults, "count", "text"]))
            if fault == "count":
                fields = fields[:-1] if draw(st.booleans()) else fields + fields[-1:]
            elif fault == "text":
                fields = [draw(st.text(max_size=30))]
            else:
                fields[faults[fault]] = draw(st.sampled_from(_BAD_NUMBERS))
        lines.append(",".join(fields))
    return lines


@st.composite
def iris_files(draw) -> bytes:
    """Small iris-layout files: mostly valid rows, some with a wrong field
    count, a bad cell or an unknown class name."""
    def valid_row(row):
        # Classes in turn, so that most files can be trained on.
        return [str(draw(st.integers(1, 79)) / 10) for _ in range(4)] + [_IRIS_NAMES[row % 3]]

    lines = _fuzz_rows(draw, valid_row, {"first cell": 0, "last cell": 3}, draw(st.integers(1, 30)))
    return _fuzz_file(draw, lines)


@settings(max_examples=60, deadline=None)
@given(content=iris_files(), under_the_file=_UNDER_THE_FILE)
def test_fuzz_iris_data_file(fuzz_dir, content, under_the_file):
    path = fuzz_dir / "iris.data"
    path.write_bytes(content)
    code = run_cli_quietly("iris", "--data", fuzz_path(path, under_the_file), "--runs", "1",
                           "--folds", "2")
    assert_data_file_exit(code, content, under_the_file)


@st.composite
def email_files(draw) -> bytes:
    """Small email CSVs: the documented header (sometimes not) and mostly
    valid rows, some with a wrong field count, a bad interval, flag or label."""
    def valid_row(i):
        interval = repr(draw(st.floats(0, 1e5)))
        flags = [draw(st.sampled_from("01")) for _ in range(3)]
        return [str(i + 1), interval, *flags, draw(st.sampled_from(["normal", "worm"]))]

    header = ",".join(EMAIL_HEADER)
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.text(max_size=20))
    lines = _fuzz_rows(draw, valid_row, {"interval": 1, "flag": 3, "label": 5},
                       draw(st.integers(1, 12)))
    return _fuzz_file(draw, [header, *lines])


@settings(max_examples=60, deadline=None)
@given(content=email_files(), signals=st.sampled_from(["1", "24", "1234"]),
       under_the_file=_UNDER_THE_FILE)
def test_fuzz_email_data_file(fuzz_dir, content, signals, under_the_file):
    path = fuzz_dir / "email.csv"
    path.write_bytes(content)
    code = run_cli_quietly("email", "--data", fuzz_path(path, under_the_file), "--signals", signals)
    assert_data_file_exit(code, content, under_the_file)


_FOCAL_SETS = ("a", "b", "c", "a|b", "a|c", "b|c", "a|b|c")


@st.composite
def mass_specs(draw) -> str:
    """--mass specs over the frame a,b,c: mostly masses that sum to one,
    some with an unknown label, a bad value, or free text."""
    focal = draw(st.lists(st.sampled_from(_FOCAL_SETS), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(0, 9), min_size=len(focal), max_size=len(focal)))
    total = sum(weights) or 1
    entries = [[subset, repr(w / total)] for subset, w in zip(focal, weights)]
    fault = draw(st.sampled_from([None] * 7 + ["label", "value", "text"]))
    if fault == "label":
        entries[0][0] = draw(st.sampled_from(["d", "", "a|a", "a||b", " "]))
    elif fault == "value":
        entries[0][1] = draw(st.sampled_from(_BAD_NUMBERS))
    elif fault == "text":
        return draw(st.text(max_size=20))
    return ",".join(f"{subset}:{value}" for subset, value in entries)


@settings(max_examples=60, deadline=None)
@given(frame=st.one_of(st.just("a,b,c"), st.sampled_from(["a,b", "a,a,b", ""]),
                       st.text(max_size=10)),
       masses=st.lists(mass_specs(), min_size=1, max_size=3),
       fmt=st.sampled_from(["text", "json"]))
def test_fuzz_combine_frame_and_masses(frame, masses, fmt):
    argv = ["combine", f"--frame={frame}", "--format", fmt, *(f"--mass={m}" for m in masses)]
    assert run_cli_quietly(*argv) in DOCUMENTED_EXITS


# One cell of a shipped or generated data file, replaced by text drawn from digits, signs,
# the decimal point and exponent, underscores, non-ASCII digits, NUL, a byte-order mark, CR
# and blanks, or by a run of one such character long enough to pass int()'s digit limit.
_CELL_ALPHABET = "0123456789+-.e_\u0665\uff15\x00\ufeff\r \t"
_MUTANT_CELLS = st.one_of(
    st.text(_CELL_ALPHABET, max_size=6000),
    st.builds(lambda ch, n, tail: ch * n + tail, st.sampled_from(_CELL_ALPHABET),
              st.integers(4000, 6000), st.text(_CELL_ALPHABET, max_size=2)),
)
# Each command's source file, its header line count and its argv after the path.
_MUTATED = {"wbcd": (WBCD_PATH, 0, ("--folds", "2")), "iris": (IRIS_PATH, 0, ("--runs", "1")),
            "email": (None, 1, ())}


@pytest.fixture(scope="module")
def mutation_sources(fuzz_dir):
    email = fuzz_dir / "generated.csv"
    write_email_csv(generate_email(3), email)
    return {command: (path or email).read_text(encoding="utf-8").split("\n")
            for command, (path, _, _) in _MUTATED.items()}


@settings(max_examples=45, deadline=None)
@given(command=st.sampled_from(sorted(_MUTATED)),
       where=st.tuples(st.integers(0, 10**6), st.integers(0, 10)), cell=_MUTANT_CELLS)
@example(command="wbcd", where=(3, 2), cell="1" * 5000)
@example(command="wbcd", where=(3, 2), cell="0" * 5000 + "7")
@example(command="email", where=(3, 0), cell="1" * 5000)
@example(command="email", where=(3, 3), cell="1" * 5000)
def test_one_mutated_cell_exits_0_or_3_naming_its_line(fuzz_dir, mutation_sources, command,
                                                       where, cell):
    lines, (_, header, flags) = mutation_sources[command][:], _MUTATED[command]
    records = [i for i, line in enumerate(lines) if line.strip()][header:]
    at = records[where[0] % len(records)]
    fields = lines[at].split(",")
    fields[where[1] % len(fields)] = cell
    lines[at] = ",".join(fields)
    path = fuzz_dir / f"mutated-{command}"
    path.write_bytes("\n".join(lines).encode("utf-8"))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--data", str(path), *flags])
    assert code in (0, 3), err.getvalue()[-300:]
    if code == 3:
        (line,) = err.getvalue().splitlines()
        # A cell error names the file line (at or after the cell's, as a CR splits its line);
        # the others are a repeated email id and a fold that cannot be trained.
        named = re.match(rf"error: {re.escape(str(path))}:([0-9]+): ", line)
        assert named and int(named[1]) > at or re.match(
            r"error: (record ids must be unique|fold [0-9]+ of [0-9]+: cannot train)", line
        ), line[:300]
