"""README.md names the recorded benchmark file behind each performance
figure it quotes; each file it names must be in the repository.  Every
```python block of README.md runs as printed."""

import re
from pathlib import Path

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
