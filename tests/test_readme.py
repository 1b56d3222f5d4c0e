"""README.md names the recorded benchmark file behind each performance
figure it quotes; each file it names must be in the repository, and each
end-to-end median it quotes at seed 42 is that file's, at the printed
precision.  Every ```python block of README.md runs as printed, and every
`logistic-lda` command line of its fenced blocks parses, and the
environment variables the package reads are the ones it documents."""

import argparse
import json
import re
import shlex
import statistics
from pathlib import Path

from logistic_lda.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_every_named_bench_file_exists():
    named = set(re.findall(r"BENCH_pr\d+\.json", README))
    assert named
    assert sorted(name for name in named if not (ROOT / name).is_file()) == []


def test_every_python_block_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
    assert blocks
    monkeypatch.chdir(tmp_path)  # whatever a block writes lands here
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": "readme"})


def test_every_command_line_parses():
    """The CLI's parser takes each `logistic-lda` line of a fenced block,
    with its backslash continuations joined; no command runs."""
    blocks = re.findall(r"^```\w*\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    parser = _build_parser()
    commands = [parser.parse_args(shlex.split(line, comments=True)[1:]).command
                for line in lines if line.startswith("logistic-lda ")]
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(commands) == sorted(sub.choices)


ENV_READ = re.compile(r"""os\.(?:environ\.get\(|environ\[|getenv\()\s*["']([^"']+)""")


def test_environment_variables_read_are_the_documented_ones():
    """Each name in a literal os.environ.get("..."), os.environ["..."] or
    os.getenv("...") under src/ is a LOGISTIC_LDA_* name of the README,
    and the README names no other."""
    read = {name for path in (ROOT / "src").rglob("*.py")
            for name in ENV_READ.findall(path.read_text(encoding="utf-8"))}
    assert read == set(re.findall(r"LOGISTIC_LDA_\w+", README)) == {"LOGISTIC_LDA_BACKEND"}

WORKLOADS = ("pipeline-token", "dense-mlp", "gibbs-token")
FIGURE = re.compile(
    r"(?P<workload>" + "|".join(WORKLOADS) + r")"
    r"|at seed (?P<seed>\d+)"
    r"|(?P<pairs>\d+) pairs"
    r"|`(?P<metric>[\w.]+)`(?: \([^)]*\))? (?P<parent>[\d.]+) → (?P<change>[\d.]+)")


def measured_speed_bullets():
    section = README.split("### Measured speed", 1)[1].split("\n#", 1)[0]
    return [" ".join(b.split()) for b in re.split(r"^- ", section, flags=re.MULTILINE)[1:]]


def quoted_medians(bullet):
    """(workload, metric, parent, change, pairs) for each `metric` a → b of
    the bullet at seed 42: the workload and pair count are the last named
    before the figure, and the figures after "at seed N", N not 42, are
    left out."""
    workload = pairs = None
    seed = 42
    for m in FIGURE.finditer(bullet):
        if m["workload"]:
            workload = m["workload"]
        elif m["seed"]:
            seed = int(m["seed"])
        elif m["pairs"]:
            pairs = int(m["pairs"])
        elif seed == 42:
            yield workload, m["metric"], m["parent"], m["change"], pairs


def same_at_printed_precision(value, printed):
    decimals = len(printed.partition(".")[2])
    return f"{value:.{decimals}f}" == printed


def file_medians(workload):
    """{metric: {"parent_median", "change_median", "pairs"}} of one workload
    of a BENCH file: its summary block, or, in a file from before the
    summary block, the medians of the runs each side lists, in pairs."""
    if "summary" in workload:
        return workload["summary"]
    parent, change = workload["parent"]["runs"], workload["change"]["runs"]
    assert len(parent) == len(change), "runs must come in parent/change pairs"
    return {metric: {"parent_median": statistics.median(r[metric] for r in parent),
                     "change_median": statistics.median(r[metric] for r in change),
                     "pairs": len(parent)}
            for metric in parent[0]}


def test_quoted_medians_are_the_files_medians():
    checked = 0
    for bullet in measured_speed_bullets():
        name = re.match(r"`(BENCH_pr\d+\.json)`", bullet)[1]
        bench = json.loads((ROOT / name).read_text(encoding="utf-8"))
        for workload, metric, parent, change, pairs in quoted_medians(bullet):
            summary = file_medians(bench["workloads"][workload])
            if metric not in summary:
                assert "." in metric, f"{name}: {metric} is neither in its summary nor traced"
                continue  # a per-layer metric of the file's traced run
            quoted = f"{name} {workload} {metric} {parent} → {change}"
            assert same_at_printed_precision(summary[metric]["parent_median"], parent), quoted
            assert same_at_printed_precision(summary[metric]["change_median"], change), quoted
            assert pairs == summary[metric]["pairs"], f"{quoted}: {pairs} pairs"
            checked += 1
    assert checked >= 12


def test_runs_give_the_medians_of_a_file_without_a_summary():
    bench = json.loads((ROOT / "BENCH_pr9.json").read_text(encoding="utf-8"))
    assert all("summary" not in w for w in bench["workloads"].values())
    medians = file_medians(bench["workloads"]["pipeline-token"])
    assert [round(medians[m][side], 3) for m in ("total_s", "fit_s")
            for side in ("parent_median", "change_median")] == [4.923, 3.914, 2.502, 1.936]
    assert medians["total_s"]["pairs"] == 10


def test_quoted_medians_parse_as_printed():
    bullet = ("`BENCH_prX.json` (a change), pipeline-token, 10 pairs: `total_s` 3.09 → 2.64 s "
              "and `setup_s` (writing the inputs) 2.35 → 1.10 s; dense-mlp, 5 pairs: "
              "`fit_s` 2.4 → 2.0 s; at seed 7, `fit_s` 1.69 → 1.32 s")
    assert list(quoted_medians(bullet)) == [
        ("pipeline-token", "total_s", "3.09", "2.64", 10),
        ("pipeline-token", "setup_s", "2.35", "1.10", 10),
        ("dense-mlp", "fit_s", "2.4", "2.0", 5),
    ]
    assert same_at_printed_precision(2.8804, "2.88")
    assert not same_at_printed_precision(2.8854, "2.88")
