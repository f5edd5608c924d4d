"""The README's algorithm example runs as written and reports what a
plain-list monotone stack does."""

import random
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Writing a stack algorithm"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_writing_a_stack_algorithm_example_runs(tmp_path, monkeypatch):
    rng = random.Random(11)
    values = [rng.randint(-1000, 1000) for _ in range(500)]
    (tmp_path / "values.txt").write_text("".join(f"{v}\n" for v in values))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(_example(), str(README), "exec"), namespace)
    stack = []
    for v in values:
        while stack and stack[-1] >= v:
            stack.pop()
        stack.append(v)
    assert namespace["result"].report == [str(v) for v in reversed(stack)]
