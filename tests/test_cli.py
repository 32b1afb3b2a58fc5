"""Exit codes, output formats, config merging, corpus replay."""

import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flagcalc import bbw, bundles, cli, geometry, transform
from flagcalc.bbw import MODES
from flagcalc.bundles import label_from_string, pieri_tensor, x_label, z_label
from flagcalc.cli import FIBRATIONS, FORMATS, MAX_ENTRY, main
from flagcalc.geometry import MAX_N, pullback_line
from flagcalc.notation import ArgumentError, ParseError, format_entries

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


@pytest.mark.parametrize("n", [2, 3])
def test_involutive_reads_an_x_pullback_in_its_z_frame(capsys, n):
    # every X-line with entries in [-2, 2]: the pullback of a Z-line answers
    # or refuses exactly as that Z-line does, and one with no Z frame is a
    # usage error that names it
    entries = range(-2, 3)
    pulled = {pullback_line(z): z for z in (z_label((a, *(b,) * (n - 1), c))
                                            for a in entries for b in entries for c in entries)}
    codes: Counter = Counter()
    for w in product(entries, repeat=n + 1):
        x = x_label(w)
        got = run(capsys, "involutive", "-n", str(n), "--twist", str(x))
        if x in pulled:
            assert got == run(capsys, "involutive", "-n", str(n), "--twist", str(pulled[x])), x
        else:
            assert got == (2, "", f"error: involutive cohomology needs a twist on Z, got {x!r}\n")
        codes[x in pulled, got[0]] += 1
    assert codes == {(True, 0): 2, (True, 1): 123, **({(False, 2): 500} if n == 3 else {})}


@pytest.mark.parametrize("twist", [None, "(0|0,0|0)", "(0||0|0|0)"])
@pytest.mark.parametrize(
    "command", ["transform", "check", "adjoint", "direct-images", "relative-forms", "involutive"])
def test_each_command_reads_its_twist_once(capsys, monkeypatch, command, twist):
    # the default, a Z-line and its X pullback: one twist_frames call per command
    calls = []

    def counted(*args):
        calls.append(args)
        return geometry.twist_frames(*args)
    for module in (cli, transform, bbw):
        monkeypatch.setattr(module, "twist_frames", counted)
    assert run(capsys, command, *([] if twist is None else ["--twist", twist]))[0] == 0
    assert len(calls) == 1


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


# (argv, exit code, stdout) of markdown reports: paper-mode cancellation lines,
# conservative tables without and with candidate lines, a table that does not
# collapse with its reason, a collapsed complex, and involutive cohomology.
MARKDOWN_REPORTS = [
    (("direct-images", "--twist", "(1|0,0|0)"), 0,
     "| q \\ p | 2 | 3 | 4 |\n"
     "|---|---|---|---|\n"
     "| 0 | (-2||1,1,1) | (-1||0,1,1) (+) (1||0,0,0) | (0||0,0,1) |\n"
     "p=1: cancelled (1||0|0|0) (q=0) against (1||1|-1|0) (q=1), both imaging to (1||0,0,0)\n"
     "p=2: cancelled (0||0|0|1) (q=0) against (0||1|-1|1) (q=1), both imaging to (0||0,0,1)\n"),
    (("direct-images", "--mode", "conservative", "--twist", "(1|0,0|-2)"), 0,
     "| q \\ p | 1 | 3 |\n"
     "|---|---|---|\n"
     "| 2 | (-1||0,0,0) | - |\n"
     "| 1 | - | (-1||0,0,0) |\n"),
    (("direct-images", "--mode", "conservative", "--twist", "(1|0,0|0)"), 0,
     "| q \\ p | 1 | 2 | 3 | 4 |\n"
     "|---|---|---|---|---|\n"
     "| 1 | (1||0,0,0) | (0||0,0,1) | - | - |\n"
     "| 0 | (1||0,0,0) | (-2||1,1,1) (+) (0||0,0,1) | (-1||0,1,1) (+) (1||0,0,0) | (0||0,0,1) |\n"
     "p=1: candidate (1||0|0|0) (q=0) against (1||1|-1|0) (q=1), both imaging to (1||0,0,0)\n"
     "p=2: candidate (0||0|0|1) (q=0) against (0||1|-1|1) (q=1), both imaging to (0||0,0,1)\n"),
    (("transform", "--twist", "(1|0,0|-2)"), 1,
     "| q \\ p | 1 | 3 |\n"
     "|---|---|---|\n"
     "| 2 | (-1||0,0,0) | - |\n"
     "| 1 | - | (-1||0,0,0) |\n"
     "no collapse: columns p=[1, 3] spread over degrees q=[1, 2]\n"),
    (("transform", "--twist", "(1|0,0|0)"), 0,
     "| q \\ p | 2 | 3 | 4 |\n"
     "|---|---|---|---|\n"
     "| 0 | (-2||1,1,1) | (-1||0,1,1) (+) (1||0,0,0) | (0||0,0,1) |\n"
     "p=1: cancelled (1||0|0|0) (q=0) against (1||1|-1|0) (q=1), both imaging to (1||0,0,0)\n"
     "p=2: cancelled (0||0|0|1) (q=0) against (0||1|-1|1) (q=1), both imaging to (0||0,0,1)\n"
     "0 -> (-2||1,1,1) -> (-1||0,1,1) (+) (1||0,0,0) -> (0||0,0,1) -> 0\n"
     "ranks: [1, 4, 3]  (alternating sum 0)\n"
     "cohomology claims: 0:0, 1:0, 2:0\n"),
    (("involutive",), 0,
     "H^0 = C^1\n"
     "H^2 = C^1\n"),
]


@pytest.mark.parametrize("argv, code, out", MARKDOWN_REPORTS)
def test_markdown_reports_are_pinned_byte_for_byte(capsys, argv, code, out):
    assert run(capsys, *argv)[:2] == (code, out)


@pytest.mark.parametrize("argv", [["direct-images", "--twist", "(1|0,0|0)"],
                                  ["transform", "--twist", "(1|0,0|0)"]])
def test_markdown_formats_each_label_once_like_json(capsys, monkeypatch, argv):
    # the markdown table and its cancellation lines read the JSON document,
    # so a markdown run formats no label the JSON run does not
    calls = []

    def counted(*args):
        calls.append(args)
        return format_entries(*args)

    monkeypatch.setattr(bundles, "format_entries", counted)
    counts = {}
    for fmt in ("json", "markdown"):
        calls.clear()
        assert run(capsys, *argv, "--format", fmt)[0] == 0
        counts[fmt] = len(calls)
    assert counts["markdown"] == counts["json"] > 0


def test_relative_forms_json(capsys):
    code, out, _ = run(capsys, "relative-forms", "-p", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["components"] == [0, 1, 1, 1, 1, 2]
    assert doc["levels"] == [0, 0, 1, 1, 2, 0]


@pytest.mark.parametrize("n, m_trivial, x_trivial", [
    (4, "(0||0,0,0,0)", "(0||0|0,0|0)"),
    (5, "(0||0,0,0,0,0)", "(0||0|0,0,0|0)"),
])
def test_the_zeroth_wedge_is_the_trivial_line_past_the_full_flag(capsys, n, m_trivial, x_trivial):
    # Lambda^0 needs no line factors; only p >= 2 refuses a non-line factor
    code, out, err = run(capsys, "direct-images", "-n", str(n), "-p", "0", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["cells"] == {"0,0": [m_trivial]}
    code, out, err = run(capsys, "relative-forms", "-n", str(n), "-p", "0", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["factors"] == [x_trivial]
    code, _out, err = run(capsys, "direct-images", "-n", str(n), "-p", "2")
    assert code == 1 and "exterior_power needs line-bundle factors" in err


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("argv", [["relative-forms", "-p", "0"], ["relative-forms", "-p", "1"],
                                  ["relative-forms", "--conormal"], ["direct-images"],
                                  ["transform"]])
def test_an_x_twist_that_is_not_a_line_is_refused(capsys, n, argv):
    # past the full flag X has a GL(n-2) block, so an X label need not be a
    # line; every column refuses it, the trivial zeroth one included
    twist = f"(0||0|{'0,' * (n - 3)}1|0)"
    code, out, err = run(capsys, *argv, "-n", str(n), "--twist", twist)
    assert (code, out) == (1, "")
    assert err == f"error: twist_by needs a line bundle on X over n={n}, got <X {twist}>\n"


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
        "FilteredBundle('X', 3, (x_label((0, 0, 0, 0)),), (), ())\n"
    )
    bad = subprocess.run([sys.executable, "-O", "-c", malformed],
                         capture_output=True, text=True, env=env, timeout=60)
    assert bad.stdout.strip() == "1"
    assert bad.returncode == 1
    assert "ValueError: factors, components and levels differ in length" in bad.stderr


def _fresh_modules(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", f"{code}\nimport sys; print(*sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_a_fresh_cli_import_loads_neither_dataclasses_nor_inspect():
    # each flagcalc process pays for what its import loads: dataclasses pulls
    # in inspect, ast, dis and tokenize.  Modules the interpreter loads before
    # any user code (a site .pth, say) are in the baseline and do not count.
    baseline = _fresh_modules("pass")
    loaded = _fresh_modules("import flagcalc.cli") - baseline
    assert "flagcalc.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)


def write_fixture(directory, doc):
    (directory / "bad.json").write_text(json.dumps(doc))
    return str(directory)


PIERI_CASE = {"op": "pieri", "n": 3, "label": "(0||0,0,0)",
              "expect": {"terms": ["(-1||0,0,1)", "(1||-1,0,0)"]}}


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"cases": [{"n": 3}]}, "bad[0]"),
        ({"cases": [{k: v for k, v in PIERI_CASE.items() if k != "expect"}]}, "bad[0]"),
        ({"cases": [PIERI_CASE, {**PIERI_CASE, "label": 7}]}, "bad[1]"),
        ({"cases": [{"op": "form_complex", "n": 3, "types": [[[1, 0, "full", 2]]],
                     "expect": {}}]}, "bad[0]"),
        ({"cases": [{"op": "form_complex", "n": 3, "types": [[[1]]], "expect": {}}]},
         "bad[0]"),
        ({"cases": [{"op": "form_complex", "n": 3, "types": [[[0, 0]]], "expect": {}}]},
         "bad[0]"),
        ({"cases": [{**PIERI_CASE, "n": MAX_N + 1}]}, "bad[0]"),
        ({"cases": ["pieri"]}, "bad[0]"),
        ({"key": "bad"}, "bad:"),
        ({"cases": {"op": "pieri"}}, "bad:"),
        ([1, 2], "bad:"),
    ],
    ids=["no op", "no expect", "label not a string", "type of four", "type of one", "type of two",
         "n over the bound", "case not an object", "no cases", "cases not a list",
         "file not an object"],
)
def test_malformed_fixture_case_is_a_usage_error(capsys, tmp_path, doc, where):
    code, _, err = run(capsys, "corpus", "--fixtures", write_fixture(tmp_path, doc))
    assert code == 2
    assert err.startswith(f"error: {where}")
    assert "Traceback" not in err


@pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100_000, b"{\"cases\": [}"],
                         ids=["not UTF-8", "nested too deep", "not JSON"])
def test_unreadable_fixture_or_config_bytes_are_a_usage_error(capsys, tmp_path, raw):
    (tmp_path / "bad.json").write_bytes(raw)
    code, _, err = run(capsys, "corpus", "--fixtures", str(tmp_path))
    assert code == 2 and err.startswith("error: bad: not a fixture file")
    code, _, err = run(capsys, "rank", "(0||0,0)", "--config", str(tmp_path / "bad.json"))
    assert code == 2 and err.startswith("error: cannot read config")


def test_a_fixture_entry_that_is_not_a_file_is_a_usage_error(capsys, tmp_path):
    (tmp_path / "bad.json").mkdir()
    code, _, err = run(capsys, "corpus", "--fixtures", str(tmp_path))
    assert code == 2 and err.startswith("error: bad: not a fixture file")
    assert "Traceback" not in err


def test_a_good_case_in_a_clean_fixture_passes(capsys, tmp_path):
    code, out, _ = run(capsys, "corpus", "--fixtures",
                       write_fixture(tmp_path, {"cases": [PIERI_CASE]}))
    assert (code, out.splitlines()[-1]) == (0, "1 passed, 0 failed")


def test_an_unnamed_form_type_in_a_fixture_is_refused(capsys, tmp_path):
    doc = {"cases": [{"op": "form_complex", "n": 3, "types": [[[9, 9, "full"]]],
                      "expect": {}}]}
    code, _, err = run(capsys, "corpus", "--fixtures", write_fixture(tmp_path, doc))
    assert code == 1
    assert err.startswith("error: bad[0]: no form type L(9,9) for n=3")


def test_a_realization_case_honours_its_twist(capsys, tmp_path):
    [eq41] = json.loads((SRC / "flagcalc" / "fixtures" / "eq41.json").read_text())["cases"]
    canonical = {**eq41, "twist": "(3|0,0|-3)"}
    code, out, _ = run(capsys, "corpus", "--fixtures",
                       write_fixture(tmp_path, {"cases": [canonical]}))
    assert (code, out.splitlines()[-1]) == (0, "1 passed, 0 failed")
    # the case's own twist: the trivial one presents its constants
    trivial = {**eq41, "twist": "trivial", "expect": {
        "degree": 0, "source": "(0||0,0,0)",
        "dbar_targets": ["(-1||0,0,1)"], "d_targets": ["(1||-1,0,0)"],
        "dbar_full": ["(-1||0,0,1)"], "d_full": ["(1||-1,0,0)"]}}
    code, out, _ = run(capsys, "corpus", "--fixtures",
                       write_fixture(tmp_path, {"cases": [trivial]}))
    assert (code, out.splitlines()[-1]) == (0, "1 passed, 0 failed")
    code, out, err = run(capsys, "corpus", "--fixtures",
                         write_fixture(tmp_path, {"cases": [{**eq41, "twist": "(1|0,0|0)"}]}))
    assert (code, out) == (1, "")
    assert err == ("error: bad[0]: realization needs an admissible first arrow, but "
                   "(-2||1,1,1) -> (1||0,0,0) is not a Pieri step\n")
    # and the case's own mode: the hyperplane twist does not collapse in conservative mode
    conservative = {**eq41, "twist": "(1|0,0|0)", "mode": "conservative"}
    code, out, err = run(capsys, "corpus", "--fixtures",
                         write_fixture(tmp_path, {"cases": [conservative]}))
    assert (code, out) == (1, "")
    assert err.startswith("error: bad[0]: no complex to realize: no collapse")


def test_every_failure_exit_writes_an_error_line(capsys, tmp_path):
    code, _, err = run(capsys, "transform", "--twist", "(1|0,0|0)", "--mode", "conservative")
    assert code == 1 and err.startswith("error: no complex: ")
    mismatch = {"cases": [{**PIERI_CASE, "expect": {"terms": []}}]}
    code, _, err = run(capsys, "corpus", "--fixtures", write_fixture(tmp_path, mismatch))
    assert code == 1 and err == "error: 1 corpus case(s) failed\n"


# (1|0,0|-2) spreads its first page over two rows, so it does not collapse
NO_COLLAPSE = "(1|0,0|-2)"
NO_COLLAPSE_REASON = "no collapse: columns p=[1, 3] spread over degrees q=[1, 2]"


@pytest.mark.parametrize("argv, error, prints", [
    (["transform", "--twist", NO_COLLAPSE], f"no complex: {NO_COLLAPSE_REASON}", True),
    (["adjoint", "--twist", NO_COLLAPSE], f"no complex to dualize: {NO_COLLAPSE_REASON}", False),
    (["check", "--twist", NO_COLLAPSE], f"nothing to check: {NO_COLLAPSE_REASON}", False),
    (["corpus", "--fixtures", "{planted}"], "1 corpus case(s) failed", True),
], ids=["transform", "adjoint", "check", "corpus"])
def test_a_failure_exits_alike_in_both_formats(capsys, tmp_path, argv, error, prints):
    # a failure with a report prints it, then raises; a refusal prints nothing
    planted = write_fixture(tmp_path, {"cases": [{**PIERI_CASE, "expect": {"terms": []}}]})
    argv = [a.format(planted=planted) for a in argv]
    for fmt in FORMATS:
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (1, f"error: {error}\n"), fmt
        assert bool(out) == prints, fmt
        if fmt == "json" and prints:
            json.loads(out)


@pytest.mark.parametrize("op, refusal", [("adjoint", "no complex to dualize"),
                                         ("check", "nothing to check")])
def test_a_fixture_op_refuses_a_page_that_does_not_collapse_like_its_command(
        capsys, tmp_path, op, refusal):
    # such a case used to come back as the outcome {"error": reason}
    case = {"op": op, "n": 3, "twist": NO_COLLAPSE, "expect": {}}
    code, out, err = run(capsys, "corpus", "--fixtures", write_fixture(tmp_path, {"cases": [case]}))
    assert (code, out) == (1, "")
    assert err == f"error: bad[0]: {refusal}: {NO_COLLAPSE_REASON}\n"
    assert err == run(capsys, op, "--twist", NO_COLLAPSE)[2].replace("error: ", "error: bad[0]: ")


def test_a_json_run_renders_no_markdown(capsys, monkeypatch):
    def refuse(*_args):
        raise AssertionError("a JSON run rendered markdown")
    for name in ("_table_markdown", "_complex_markdown", "_check_markdown"):
        monkeypatch.setattr(cli, name, refuse)
    for argv in (["transform"], ["transform", "--twist", NO_COLLAPSE], ["adjoint"], ["check"],
                 ["direct-images"]):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code in (0, 1) and json.loads(out)


def test_wide_torus_branching_is_refused_at_once(capsys, tmp_path):
    doc = {"cases": [{"op": "pullback_factors", "n": 3, "label": "(0||-400,0,400)",
                      "expect": {}}]}
    start = time.perf_counter()
    code, _, err = run(capsys, "corpus", "--fixtures", write_fixture(tmp_path, doc))
    assert time.perf_counter() - start < 1
    assert code == 1
    assert err.startswith("error: bad[0]: (-400, 0, 400) has rank 64481201")


@pytest.mark.parametrize("argv", [["transform", "-n", "100"], ["relative-forms", "-n", "17"],
                                  ["direct-images", "-n", "1000000"]])
def test_n_above_the_bound_is_a_usage_error(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: n must be in 2..{MAX_N}, got {argv[-1]}\n"


def for_another_n(given: int, run_n: int) -> str:
    return f" is for n={given}, but the run has n={run_n}\n"


@pytest.mark.parametrize(
    "argv, tail",
    [(["transform", "-n", "2", "--twist", "(1|0,0|0)"], for_another_n(3, 2)),
     (["direct-images", "-n", "2", "--twist", "(1|0,0|0)"], for_another_n(3, 2)),
     (["relative-forms", "-n", "3", "--twist", "(1|0|0)"], for_another_n(2, 3)),
     (["check", "-n", "2", "--twist", "(1|0,0|0)"], for_another_n(3, 2)),
     (["adjoint", "-n", "2", "--twist", "(1|0,0|0)"], for_another_n(3, 2)),
     (["involutive", "-n", "2", "--twist", "(1|0,0|0)"], for_another_n(3, 2)),
     (["transform", "-n", "3", "--twist", "(0||1|0)"], for_another_n(2, 3)),
     (["transform", "--config", "{config}"], for_another_n(2, 3)),
     (["corpus", "--fixtures", "{fixtures}"], for_another_n(2, 3)),
     (["tensor", "(0||0,0,0)", "--line", "(1||0,0)"],
      "error: cannot tensor labels on different spaces or over different n: "
      "<M (0||0,0,0)> vs <M (1||0,0)>\n")],
    ids=["transform", "direct-images", "relative-forms", "check", "adjoint", "involutive",
         "X twist", "config twist", "fixture twist", "tensor line"],
)
def test_a_twist_for_another_n_is_a_usage_error(capsys, tmp_path, argv, tail):
    (tmp_path / "run.json").write_text(json.dumps({"twist": "(1|0|0)"}))
    (tmp_path / "fixtures").mkdir()
    case = {"op": "transform", "n": 3, "twist": "(1|0|0)", "expect": {}}
    paths = {"config": tmp_path / "run.json",
             "fixtures": write_fixture(tmp_path / "fixtures", {"cases": [case]})}
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(tail)


def long_label(command: str, entries: int) -> str:
    """A zero label of the given length, shaped for the command."""
    zeros = ",".join(["0"] * (entries - 1))
    return f"(0,{zeros})" if command == "bbw" else f"(0||{zeros})"


@pytest.mark.parametrize("command", ["rank", "bbw", "tensor", "corpus"])
def test_labels_longer_than_the_bound_are_usage_errors(capsys, tmp_path, command):
    def call(entries):
        if command != "corpus":
            return run(capsys, command, long_label(command, entries))
        label = long_label(command, entries)
        expect = ({"terms": [str(t) for t in pieri_tensor(label_from_string(label, "M"))]}
                  if entries == MAX_N + 1 else {})
        case = {"op": "pieri", "label": label, "expect": expect}
        return run(capsys, "corpus", "--fixtures", write_fixture(tmp_path, {"cases": [case]}))

    prefix = "bad[0]: " if command == "corpus" else ""
    for entries in (MAX_N + 2, 1000):
        start = time.perf_counter()
        code, out, err = call(entries)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (f"error: {prefix}a label has at most {MAX_N + 1} entries"
                       f" (n <= {MAX_N}), got {entries}\n")
    code, out, err = call(MAX_N + 1)  # the largest label still works
    assert (code, err) == (0, "") and out


BOUND_CALLS = {
    "rank": lambda e: ["rank", f"(0||0,0,{e})"],
    "bbw": lambda e: ["bbw", f"({e},0)"],
    "tensor": lambda e: ["tensor", f"(0||0,0,{e})"],
    "transform": lambda e: ["transform", "--twist", f"({e}|0,0|0)"],
    "config twist": lambda e: ["transform", "--config", {"twist": f"({e}|0,0|0)"}],
    "fixture label": lambda e: ["corpus", "--fixtures", {"op": "pieri", "label": f"(0||0,0,{e})"}],
}


@pytest.mark.parametrize("where", sorted(BOUND_CALLS))
def test_label_entries_over_the_bound_are_usage_errors(capsys, tmp_path, where):
    def call(entry: str):
        argv = BOUND_CALLS[where](entry)
        if where == "config twist":
            (tmp_path / "run.json").write_text(json.dumps(argv[-1]))
            argv[-1] = str(tmp_path / "run.json")
        elif where == "fixture label":
            label = argv[-1]["label"]
            expect = ({"terms": [str(t) for t in pieri_tensor(label_from_string(label, "M"))]}
                      if entry == str(MAX_ENTRY) else {})
            argv[-1] = write_fixture(tmp_path, {"cases": [{**argv[-1], "expect": expect}]})
        return run(capsys, *argv)

    prefix = "bad[0]: " if where == "fixture label" else ""
    code, out, err = call("9" * 5000)  # over Python's limit on int conversion
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {prefix}cannot parse")
    assert err.endswith(": an integer of 5000 digits is too long\n")
    for entry in ("9" * 4000, str(MAX_ENTRY + 1)):
        digits = len(entry)
        assert call(entry) == (2, "", f"error: {prefix}a label entry is at most {MAX_ENTRY} in"
                               f" absolute value, got one of {digits} digits\n")
    code, out, err = call(str(MAX_ENTRY))  # the largest entry still works
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("where", sorted(BOUND_CALLS))
def test_a_parse_error_names_the_label_once_and_briefly(capsys, tmp_path, where):
    argv = BOUND_CALLS[where]("9" * 5000)
    text = argv[-1] if isinstance(argv[-1], str) else argv[-1].get("label", argv[-1].get("twist"))
    prefix = ""
    if where == "config twist":
        (tmp_path / "run.json").write_text(json.dumps(argv[-1]))
        argv[-1] = str(tmp_path / "run.json")
    elif where == "fixture label":
        argv[-1] = write_fixture(tmp_path, {"cases": [{**argv[-1], "expect": {}}]})
        prefix = "bad[0]: "
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    # the label's head and its length, once: a 5000-digit label made a line of 10,000+
    assert len(err) < 200, err
    assert re.fullmatch(rf"error: {re.escape(prefix)}cannot parse {re.escape(repr(text[:60]))}"
                        rf"\.\.\. \({len(text)} characters\) at position \d+: "
                        r"an integer of 5000 digits is too long\n", err), err
    # a label under the width is quoted whole
    assert run(capsys, "rank", "(1,2") == (
        2, "", "error: cannot parse '(1,2' at position 0: unbalanced parentheses\n")


def test_a_label_that_does_not_fit_its_space_is_quoted_once_and_briefly(capsys):
    # whitespace passes every bound on a label: this line used to run to 10,118 characters
    text = "(0||0,0," + " " * 5000 + "0)"
    code, out, err = run(capsys, "rank", text, "--space", "Z")
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read {text[:60]!r}... ({len(text)} characters) as a bundle on "
                   "Z: the label has blocks (1, 3) with ||, but space Z wants (1, 2, 1)\n")
    assert run(capsys, "rank", "(0||0,x)") == (
        2, "", "error: cannot parse '(0||0,x)' at position 6: expected an integer\n")


PARITY_CASES = {
    "bad mode": ({"op": "transform", "mode": "bogus"}, ["transform"], {"mode": "bogus"}),
    "twist on M": ({"op": "transform", "twist": "(0||0,0,0)"},
                   ["transform", "--twist", "(0||0,0,0)"], None),
    "conormal on mu": ({"op": "conormal", "fibration": "mu"},
                       ["relative-forms", "--conormal", "--fibration", "mu"], None),
    "unknown leg": ({"op": "relative_cotangent", "fibration": "Q"}, ["relative-forms"],
                    {"fibration": "Q"}),
    "trivial twist": ({"op": "transform", "twist": "trivial"},
                      ["transform", "--twist", "trivial"], None),
}


@pytest.mark.parametrize("name", sorted(PARITY_CASES))
def test_a_fixture_case_reads_its_settings_like_flags_and_config_files(capsys, tmp_path, name):
    case, argv, config = PARITY_CASES[name]
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "run.json")]
    code, _, err = run(capsys, *argv)
    # the untwisted transform's pinned outcome, so that an accepted case passes
    pinned = json.loads((SRC / "flagcalc" / "fixtures" / "eq26.json").read_text())["cases"][0]
    assert pinned["op"] == "transform" and "twist" not in pinned
    (tmp_path / "fixtures").mkdir()
    fixture = write_fixture(tmp_path / "fixtures", {"cases": [{**pinned, **case}]})
    fixture_code, _, fixture_err = run(capsys, "corpus", "--fixtures", fixture)
    assert fixture_code == code
    assert fixture_err == err.replace("error: ", "error: bad[0]: ", 1)
    assert (code == 0) == (name == "trivial twist")


@pytest.mark.parametrize("fmt", FORMATS)
def test_conormal_runs_along_the_m_leg_by_default(capsys, tmp_path, fmt):
    code, out, _ = run(capsys, "relative-forms", "--conormal", "--format", fmt)
    assert code == 0
    assert run(capsys, "relative-forms", "--fibration", "nu", "--conormal",
               "--format", fmt) == (0, out, "")
    (tmp_path / "nu.json").write_text(json.dumps({"fibration": "nu"}))
    assert run(capsys, "relative-forms", "--conormal", "--config", str(tmp_path / "nu.json"),
               "--format", fmt) == (0, out, "")
    assert "(-1||1|0|0)" in out and "(1||0|0|-1)" in out


# mu is the Z-leg; eta, a former second Z-leg with mu's root data, is no leg at all
# now, and naming it is refused before the conormal rule is reached
@pytest.mark.parametrize("leg", ["mu", "eta"])
def test_conormal_on_a_named_z_leg_is_a_usage_error(capsys, tmp_path, leg):
    (tmp_path / "leg.json").write_text(json.dumps({"fibration": leg}))
    for argv in (["--fibration", leg], ["--config", str(tmp_path / "leg.json")]):
        try:
            code, out, err = run(capsys, "relative-forms", "--conormal", *argv)
        except SystemExit as exc:  # argparse refusing the command line
            code, (out, err) = exc.code, capsys.readouterr()
        assert (code, out) == (2, "")
        if leg == "mu":
            assert err == f"error: conormal splitting is defined along the M-leg, not {leg}\n"
        elif argv[0] == "--fibration":  # argparse prints its usage line first
            assert err.endswith("flagcalc relative-forms: error: argument --fibration: "
                                "invalid choice: 'eta' (choose from 'mu', 'nu')\n")
        else:
            assert err == "error: fibration must be one of ('mu', 'nu'), got 'eta'\n"


# Each usage rule the engine raises as an ArgumentError, from every source that can
# reach it: (flags, or the command and its config, or a one-case fixture) -> error text
USAGE_RULES = {
    "twist for another n": (
        {"flag": ["transform", "--twist", "(1|0|0)"],
         "config": (["transform"], {"twist": "(1|0|0)"}),
         "fixture": {"op": "transform", "twist": "(1|0|0)"}},
        "twist (1|0|0) is for n=2, but the run has n=3"),
    "twist not on Z or X": (
        {"flag": ["direct-images", "--twist", "(0||0,0,0)"],
         "config": (["direct-images"], {"twist": "(0||0,0,0)"}),
         "fixture": {"op": "direct_images", "p": 1, "twist": "(0||0,0,0)"}},
        "twists live on Z or X, got <M (0||0,0,0)>"),
    "conormal off the M-leg": (
        {"flag": ["relative-forms", "--conormal", "--fibration", "mu"],
         "config": (["relative-forms", "--conormal"], {"fibration": "mu"}),
         "fixture": {"op": "conormal", "fibration": "mu"}},
        "conormal splitting is defined along the M-leg, not mu"),
    "involutive twist not on Z": (
        {"flag": ["involutive", "--twist", "(1||0|0|0)"],
         "config": (["involutive"], {"twist": "(1||0|0|0)"}),
         "fixture": {"op": "involutive", "twist": "(1||0|0|0)"}},
        "involutive cohomology needs a twist on Z, got <X (1||0|0|0)>"),
    "global cohomology off Z and X": (
        {"fixture": {"op": "global_cohomology", "label": "(0||0,0,0)", "space": "M"}},
        "global cohomology computed on Z or X labels, got <M (0||0,0,0)>"),
    "global cohomology of a bundle that is not a line": (
        {"fixture": {"op": "global_cohomology", "label": "(0|0,1|0)", "space": "Z"}},
        "line bundles only, got (0|0,1|0)"),
    "global cohomology of an X-line with no Z frame": (
        {"fixture": {"op": "global_cohomology", "label": "(2||0|-3|1)", "space": "X"}},
        "(2||0|-3|1) is not pulled back from a line bundle on Z"),
    "column out of range": (
        {"flag": ["relative-forms", "-p", "5"],
         "fixture": {"op": "exterior_power", "p": 5}},
        "column p=5 is outside 0..4"),
    "column not an int": (
        {"fixture": {"op": "direct_images", "n": 3, "p": True}},
        "column p must be an int, got True"),
    "column is None": (
        {"fixture": {"op": "exterior_power", "n": 3, "p": None}},
        "column p must be an int, got None"),
    "form type not an int": (
        {"fixture": {"op": "form_complex", "n": 3, "types": [[[True, 0, "full"]]]}},
        "form-type p must be an int, got True"),
    "line for another n": (
        {"flag": ["tensor", "(0||0,0,0)", "--line", "(1||0,0,0,0)"]},
        "cannot tensor labels on different spaces or over different n: "
        "<M (0||0,0,0)> vs <M (1||0,0,0,0)>"),
}


@pytest.mark.parametrize("rule, source", [(rule, source) for rule, (sources, _) in
                                          USAGE_RULES.items() for source in sources])
def test_each_usage_rule_exits_two_with_its_error_line(capsys, tmp_path, rule, source):
    sources, text = USAGE_RULES[rule]
    given = sources[source]
    if source == "flag":
        argv, prefix = given, ""
    elif source == "config":
        (tmp_path / "run.json").write_text(json.dumps(given[1]))
        argv, prefix = [*given[0], "--config", str(tmp_path / "run.json")], ""
    else:
        doc = {"cases": [{**given, "expect": {}}]}
        argv, prefix = ["corpus", "--fixtures", write_fixture(tmp_path, doc)], "bad[0]: "
    assert run(capsys, *argv) == (2, "", f"error: {prefix}{text}\n")


@pytest.mark.parametrize("exc, code", [
    (ArgumentError("refused"), 2), (ParseError("(", 0, "refused"), 2),
    (ValueError("refused"), 1)])
def test_the_exit_code_is_read_off_the_exception_type(capsys, monkeypatch, exc, code):
    def refuse(cfg, args):
        raise exc
    monkeypatch.setattr(cli, "cmd_bbw", refuse)
    assert run(capsys, "bbw", "(0)") == (code, "", f"error: {exc}\n")


@pytest.mark.parametrize("p", ["1", "2", "99"])
def test_conormal_takes_no_column(capsys, p):
    assert run(capsys, "relative-forms", "--conormal", "-p", p) == (
        2, "", f"error: --conormal splits the 1-forms and takes no -p, got -p {p}\n")


def test_an_empty_corpus_key_matches_no_fixture(capsys):
    assert run(capsys, "corpus", "--only", "") == (
        2, "", "error: no fixtures found: nothing was verified\n")


def test_n_from_a_config_file_is_bounded_too(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": MAX_N + 1}))
    code, _, err = run(capsys, "transform", "--config", str(cfg))
    assert code == 2 and "must be in 2.." in err
    code, out, _ = run(capsys, "relative-forms", "-n", str(MAX_N))
    assert code == 0 and out


# ------------------------------------------------ fuzz gate on the contract

WIDE_INT = st.one_of(st.integers(-3, MAX_N + 3), st.integers(-10**12, 10**12))
N_VALUE = st.integers(2, 4) | WIDE_INT
# label-shaped strings: entries joined by the three separators, in parentheses
LABEL_SHAPED = st.lists(
    st.tuples(st.sampled_from(("||", "|", ",")), st.integers(-4, 4) | WIDE_INT),
    min_size=1, max_size=6,
).map(lambda parts: "(" + "".join(f"{sep}{x}" for sep, x in parts)[len(parts[0][0]):] + ")")
LABEL_TEXT = st.one_of(LABEL_SHAPED,
                       st.text("()|,-+0123456789 \u2016\u2225\u2212", max_size=24),
                       st.text(max_size=12))
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | WIDE_INT | st.floats(allow_nan=False) | LABEL_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8,
)
FIXTURE_OPS = ("exterior_power", "direct_images", "transform", "adjoint", "check",
               "relative_cotangent", "conormal", "pullback_factors", "pullback_line", "pieri",
               "global_cohomology", "involutive", "form_complex", "realization")
FORM_TYPE = st.tuples(st.integers(-1, 5), st.integers(-1, 5),
                      st.sampled_from(("full", "perp", "kappa", "x"))).map(list)
CASE_FIELDS = {
    "label": LABEL_TEXT | JSON_VALUE,
    "twist": LABEL_TEXT | JSON_VALUE,
    "p": st.integers(-1, 6) | WIDE_INT | JSON_VALUE,
    "mode": st.sampled_from(MODES) | JSON_VALUE,
    "fibration": st.sampled_from(FIBRATIONS) | JSON_VALUE,
    "space": st.sampled_from(("M", "Z", "X", "fiber")) | JSON_VALUE,
    "types": st.lists(st.lists(FORM_TYPE | JSON_VALUE, max_size=3), max_size=3) | JSON_VALUE,
}
CASE = st.one_of(
    st.fixed_dictionaries(
        {"op": st.sampled_from(FIXTURE_OPS), "n": st.integers(2, 4), "expect": JSON_VALUE},
        optional=CASE_FIELDS),
    st.fixed_dictionaries({}, optional={
        "op": st.sampled_from(FIXTURE_OPS) | JSON_VALUE, "n": N_VALUE | JSON_VALUE,
        "expect": JSON_VALUE, **CASE_FIELDS}),
)
CONFIG_KEYS = {"n": st.integers(2, 4), "twist": LABEL_TEXT, "mode": st.sampled_from(MODES),
               "format": st.sampled_from(FORMATS), "fibration": st.sampled_from(FIBRATIONS)}
CONFIG = st.one_of(
    st.fixed_dictionaries({}, optional=CONFIG_KEYS),
    st.fixed_dictionaries({}, optional={k: v | N_VALUE | JSON_VALUE
                                        for k, v in CONFIG_KEYS.items()}),
    JSON_VALUE,
)
TWIST_COMMANDS = ("relative-forms", "direct-images", "transform", "involutive", "adjoint",
                  "check")


def fuzz_argv(draw, workdir: pathlib.Path) -> list[str]:
    """One command line: a subcommand with flags drawn over its own options."""
    command = draw(st.sampled_from(("bbw", "rank", "tensor", "corpus") + TWIST_COMMANDS))
    argv = [command]
    if command in ("bbw", "rank", "tensor"):
        argv.append(draw(LABEL_TEXT))
    options = {"--format": st.sampled_from(FORMATS)}
    if command == "rank":
        options["--space"] = st.sampled_from(("M", "Z", "X", "fiber"))
    if command == "tensor":
        options["--line"] = LABEL_TEXT
    if command in TWIST_COMMANDS:
        options["-n"] = N_VALUE.map(str)
        options["--twist"] = LABEL_TEXT | st.just("trivial")
    if command in ("relative-forms", "direct-images"):
        options["-p"] = (st.integers(-1, 6) | WIDE_INT).map(str)
    if command in ("direct-images", "transform", "adjoint", "check"):
        options["--mode"] = st.sampled_from(MODES)
    if command == "relative-forms":
        options["--fibration"] = st.sampled_from(FIBRATIONS)
    for flag in draw(st.lists(st.sampled_from(sorted(options)), unique=True)):
        argv.append(f"{flag}={draw(options[flag])}")
    if command == "relative-forms" and draw(st.booleans()):
        argv.append("--conormal")
    if draw(st.booleans()):
        config = workdir / "config.json"
        config.write_text(json.dumps(draw(CONFIG)))
        argv.append(f"--config={config}")
    if command == "corpus":
        fixtures = workdir / "fixtures"
        fixtures.mkdir()
        doc = draw(CASE.map(lambda case: {"cases": [case]}) | JSON_VALUE)
        (fixtures / "case.json").write_text(json.dumps(doc))
        argv.append(f"--fixtures={fixtures}")
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_any_command_line_ends_in_a_contract_exit(data):
    with tempfile.TemporaryDirectory() as workdir:
        argv = fuzz_argv(data.draw, pathlib.Path(workdir))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusing the command line
                code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code:
        assert "error:" in err.getvalue(), argv
