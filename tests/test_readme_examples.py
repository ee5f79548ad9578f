"""The README's quickstart snippet must actually run (doc-rot guard)."""

import re
import pathlib


README = pathlib.Path(__file__).parent.parent / "README.md"


def _python_blocks(text: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadme:
    def test_quickstart_snippet_executes(self):
        blocks = _python_blocks(README.read_text())
        assert blocks, "README lost its python quickstart"
        namespace: dict[str, object] = {}
        exec(compile(blocks[0], str(README), "exec"), namespace)  # noqa: S102
        # The snippet defines `passing`; only road 20 passes the mTest.
        passing = namespace["passing"]
        assert len(passing) == 1  # type: ignore[arg-type]

    def test_readme_mentions_all_examples_on_disk(self):
        text = README.read_text()
        examples = pathlib.Path(README.parent / "examples").glob("*.py")
        for example in examples:
            assert example.name in text, f"README omits {example.name}"
