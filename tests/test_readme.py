"""The README's Python examples, run as one doctest."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    # the ```python blocks share one namespace, as in one interpreter session
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    test = doctest.DocTestParser().get_doctest(
        "\n".join(blocks), {}, "README.md", str(README), 0)
    assert test.examples
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.failed == 0, "".join(report)
