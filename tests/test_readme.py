import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_blocks_run():
    # the Library section documents the API; its code blocks must run as
    # written, in order, sharing one namespace
    library = README.read_text().split("\n## Library\n", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
