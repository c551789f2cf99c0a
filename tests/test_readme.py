"""README's Library section is the documentation of the public API: its import
block must name exactly `distdet.__all__`, and its example must run and give
the values its comments state."""

import re
from pathlib import Path

import distdet
from distdet import DetCof

README = Path(__file__).resolve().parent.parent / "README.md"

# an expression followed by a comment stating its value, e.g. "g.detcof  # DetCof(det=1, cof=2)"
CLAIM = re.compile(r"^(?P<expr>[^#]+?)\s+# (?P<value>DetCof\([^)]*\)|True\b)")


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def documented_names() -> list[str]:
    block = re.search(r"from distdet import \((.*?)\)", library_snippet(), re.DOTALL).group(1)
    return [name.strip() for name in block.split(",") if name.strip()]


def test_library_imports_are_the_public_api():
    names = documented_names()
    assert len(names) == len(set(names))
    assert set(names) <= set(distdet.__all__)
    for name in distdet.__all__:
        assert getattr(distdet, name) is not None
        assert name in names


def test_library_snippet_runs_and_gives_stated_values():
    namespace: dict = {}
    snippet = library_snippet()
    exec(compile(snippet, str(README), "exec"), namespace)
    values = []
    for claim in filter(None, map(CLAIM.match, snippet.splitlines())):
        value = eval(claim["expr"], namespace)
        assert value == eval(claim["value"], namespace), claim.group(0)
        values.append(value)
    assert DetCof(det=52, cof=24) in values
