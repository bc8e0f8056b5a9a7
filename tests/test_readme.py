"""Run the README's library example and check the value its comment states."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
# the comment on the example's last line: 50/27 ad + 7/54 bc
EXPECTED_DA = {(0, 3): Fraction(50, 27), (1, 2): Fraction(7, 54)}


def _run_python_blocks(text: str) -> dict:
    """Execute every python block of a markdown text in one namespace."""
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    if not blocks:
        raise ValueError("no python block")
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    return namespace


def test_readme_example_gives_the_stated_da():
    text = README.read_text(encoding="utf-8")
    assert "# 50/27 ad + 7/54 bc" in text
    assert _run_python_blocks(text)["da"] == EXPECTED_DA


def test_readme_check_fails_on_another_word():
    # control: the rule of "db" in place of "da" does not give the stated value
    text = README.read_text(encoding="utf-8")
    assert text.count("3 * n + 0") == 1
    with pytest.raises(AssertionError):
        assert _run_python_blocks(text.replace("3 * n + 0", "3 * n + 1"))["da"] == EXPECTED_DA
