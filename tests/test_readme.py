"""README.md names the recorded benchmark file behind each performance
figure it quotes; each file it names must be in the repository."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_named_bench_file_exists():
    named = set(re.findall(r"BENCH_pr\d+\.json", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert named
    assert sorted(name for name in named if not (ROOT / name).is_file()) == []
