"""Exit codes, output formats, config merging, corpus replay."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from flagcalc.cli import main

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bbw_text_output(capsys):
    code, out, _ = run(capsys, "bbw", "(3,0,-3)")
    assert code == 0
    assert out.strip() == "q=3 -> (-1,0,1)"

    code, out, _ = run(capsys, "bbw", "(0,1,0)")
    assert code == 0
    assert out.strip() == "singular"


def test_bbw_json_output(capsys):
    code, out, _ = run(capsys, "bbw", "(3,0,-3)", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "weight": [3, 0, -3], "k": 3, "singular": False,
        "q": 3, "dominant": [-1, 0, 1],
    }
    # keys arrive sorted, so the dump is byte-stable
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_rank_command(capsys):
    code, out, _ = run(capsys, "rank", "(0||-1,0,1)")
    assert code == 0
    assert "8" in out
    code, out, _ = run(capsys, "rank", "(3|0,0|-3)", "--format", "json")
    assert code == 0
    assert json.loads(out)["rank"] == 1


def test_unparsable_label_is_a_usage_error(capsys):
    code, _, err = run(capsys, "rank", "(1||2||3)")
    assert code == 2
    assert "error:" in err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_transform_json_roundtrip(capsys):
    code, out, _ = run(capsys, "transform", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["complex"]["ranks"] == [1, 6, 15, 18, 8]
    assert doc["complex"]["claims"] == [1, 0, 1, 0, 0]
    assert doc["reason"] == ""
    assert doc["E1"]["0,0"] == ["(0||0,0,0)"]


def test_transform_without_collapse_fails(capsys):
    code, out, err = run(
        capsys, "transform", "--twist", "(1|0,0|0)", "--mode", "conservative")
    assert code == 1


def test_involutive_unsupported_twist_fails(capsys):
    code, _, err = run(capsys, "involutive", "--twist", "(3|0,0|-3)")
    assert code == 1
    assert "error:" in err


def test_involutive_trivial_twist(capsys):
    code, out, _ = run(capsys, "involutive", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"by_degree": {"0": 1, "2": 1}}


def test_check_command_passes_on_the_untwisted_complex(capsys):
    code, out, _ = run(capsys, "check", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["alternating_sum"] == 0


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"format": "json", "twist": "(1|0,0|0)"}))
    code, out, _ = run(capsys, "transform", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["complex"]["ranks"] == [1, 4, 3]

    # explicit flags beat the file
    code, out, _ = run(
        capsys, "transform", "--config", str(cfg), "--twist", "trivial")
    doc = json.loads(out)
    assert doc["complex"]["ranks"] == [1, 6, 15, 18, 8]


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"twiist": "(1|0,0|0)"}))
    code, _, err = run(capsys, "transform", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err


@pytest.mark.parametrize("config", [{"n": "3"}, {"twist": 5}, {"fibration": "M"}])
def test_config_values_of_the_wrong_type_are_usage_errors(capsys, tmp_path, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(capsys, "relative-forms", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_config_file_must_be_json(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("not json at all {")
    code, _, err = run(capsys, "transform", "--config", str(cfg))
    assert code == 2


def test_corpus_replays_clean(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    lines = out.strip().splitlines()
    assert all("PASS" in ln for ln in lines[:-1])
    assert lines[-1].endswith("0 failed")


def test_corpus_empty_directory_is_a_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "corpus", "--fixtures", str(tmp_path))
    assert code == 2
    assert "nothing was verified" in err


def test_corpus_missing_directory_is_a_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "corpus", "--fixtures", str(tmp_path / "nope"))
    assert code == 2


def test_corpus_detects_a_planted_mismatch(capsys, tmp_path):
    bad = {
        "key": "planted",
        "cases": [{
            "op": "pieri",
            "n": 3,
            "label": "(0||0,0,0)",
            "expect": ["(999||0,0,0)"],
        }],
    }
    (tmp_path / "planted.json").write_text(json.dumps(bad))
    code, out, _ = run(capsys, "corpus", "--fixtures", str(tmp_path))
    assert code == 1
    assert "planted[0] FAIL" in out
    assert "expected:" in out and "actual:" in out


def test_corpus_only_filter(capsys):
    code, out, _ = run(capsys, "corpus", "--only", "eq15", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert all(r["key"] == "eq15" for r in doc["results"])

    code, _, err = run(capsys, "corpus", "--only", "no-such-key")
    assert code == 2


def test_direct_images_markdown_table(capsys):
    code, out, _ = run(capsys, "direct-images", "--twist", "(1|0,0|0)")
    assert code == 0
    assert "|" in out  # a pipe table
    assert "cancelled" in out  # the log lines ride along


def test_relative_forms_json(capsys):
    code, out, _ = run(capsys, "relative-forms", "-p", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["components"] == [0, 1, 1, 1, 1, 2]
    assert doc["levels"] == [0, 0, 1, 1, 2, 0]


def test_adjoint_command(capsys):
    code, out, _ = run(capsys, "adjoint", "--format", "json")
    assert code == 0
    doc = json.loads(out)["adjoint"]
    assert doc["ranks"] == [8, 18, 15, 6, 1]
    assert doc["form_types"] == [
        ["L(1,1)_perp"],
        ["L(1,2)", "L(2,1)"],
        ["L(1,3)", "L(2,2)", "L(3,1)"],
        ["L(2,3)", "L(3,2)"],
        ["L(3,3)"],
    ]


def test_tensor_command(capsys):
    code, out, _ = run(capsys, "tensor", "(0||-1,0,1)", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    # three summands in each Pieri direction
    assert len(doc["terms"]) == 6

    code, out, _ = run(
        capsys, "tensor", "(0||-1,0,1)", "--line", "(1||0,0,0)",
        "--format", "json")
    assert code == 0
    assert json.loads(out)["terms"] == ["(1||-1,0,1)"]


@pytest.mark.parametrize("command", ["direct-images", "relative-forms"])
@pytest.mark.parametrize("p", ["-1", "9"])
def test_column_out_of_range_is_a_usage_error(capsys, command, p):
    code, out, err = run(capsys, command, "-n", "3", "-p", p)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "0..4" in err


@pytest.mark.parametrize("mode", ["paper", "conservative"])
@pytest.mark.parametrize(
    "n, twist", [(2, "(0|0|0)"), (2, "(2|1|-1)"), (3, "(1|0,0|0)"), (3, "(3|0,0|-3)"),
                 (3, "(-1|1,1|2)")],
)
def test_direct_images_agree_with_the_transform(capsys, mode, n, twist):
    common = ["-n", str(n), "--twist", twist, "--mode", mode, "--format", "json"]
    _, out, _ = run(capsys, "transform", *common)
    page = json.loads(out)
    code, out, _ = run(capsys, "direct-images", *common)
    assert code == 0
    table = json.loads(out)
    assert table["cells"] == page["E1"]
    assert table["cancellations"] == page["cancellations"]
    for p in range(2 * n - 1):
        code, out, _ = run(capsys, "direct-images", "-p", str(p), *common)
        assert code == 0
        column = json.loads(out)
        assert column["cells"] == {
            k: v for k, v in table["cells"].items() if k.split(",")[0] == str(p)}
        assert column["cancellations"] == [
            c for c in table["cancellations"] if c["p"] == p]


def test_checks_survive_python_optimize():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    corpus = subprocess.run(
        [sys.executable, "-O", "-m", "flagcalc.cli", "corpus", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert corpus.returncode == 0, corpus.stderr
    doc = json.loads(corpus.stdout)
    assert (doc["passed"], doc["failed"]) == (41, 0)

    malformed = (
        "import sys\n"
        "from flagcalc.bundles import FilteredBundle, x_label\n"
        "print(sys.flags.optimize)\n"
        "FilteredBundle('X', (1, 1, 1, 1), (x_label((0, 0, 0, 0)),), (), ())\n"
    )
    bad = subprocess.run([sys.executable, "-O", "-c", malformed],
                         capture_output=True, text=True, env=env, timeout=60)
    assert bad.stdout.strip() == "1"
    assert bad.returncode == 1
    assert "ValueError: factors, components and levels differ in length" in bad.stderr
