import re
from pathlib import Path

import explorelab
from explorelab import errors

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks():
    library = README.read_text().split("\n## Library\n", 1)[1]
    return re.findall(r"```python\n(.*?)```", library, re.S)


def test_readme_library_blocks_run():
    # the Library section documents the API; its code blocks must run as
    # written, in order, sharing one namespace
    blocks = library_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_root_exports_what_the_readme_uses():
    # the package root is the README's surface plus the exceptions callers
    # catch; every other name is imported from its own module
    used = {name for block in library_blocks() for name in re.findall(r"\bex\.(\w+)", block)}
    exceptions = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception)
    }
    assert len(exceptions) == 5
    assert set(explorelab.__all__) == used | exceptions
    assert all(hasattr(explorelab, name) for name in explorelab.__all__)
