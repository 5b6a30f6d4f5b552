import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs_as_a_doctest():
    # The block is cut out of its fences first: doctest would read the
    # closing fence as expected output of the last example.
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert len(blocks) == 1
    lineno = text.count("\n", 0, blocks[0].start(1))
    test = doctest.DocTestParser().get_doctest(blocks[0][1], {}, "README quick start", str(README), lineno)
    result = doctest.DocTestRunner().run(test)
    assert (result.failed, result.attempted) == (0, 6)
