import re
from pathlib import Path

GITHUB = Path(__file__).resolve().parent.parent / ".github"


def test_ci_digests_the_files_its_outputs_script_writes():
    # CI runs .github/outputs.sh once and checks its directory against
    # outputs.sha256, so every digested name must be a file the script
    # writes, and the workflow runs no other explorelab command than the
    # four that go through the installed console script: its help, a parse
    # error, a constructor's refusal and the refusal of a family too large
    # for any graph
    script = (GITHUB / "outputs.sh").read_text()
    workflow = (GITHUB / "workflows" / "tests.yml").read_text()
    names = [line.split()[1] for line in (GITHUB / "outputs.sha256").read_text().splitlines()]
    assert len(names) == 15
    assert [name for name in names if f'"$out/{name}"' not in script] == []
    assert 'sh .github/outputs.sh "$RUNNER_TEMP"' in workflow
    commands = re.findall(r"^\s*explorelab (.*?)(?: 2>.*)?$", workflow, re.M)
    assert commands == [
        "--help",
        "run --alpha abc",
        'gen --lollipop 1,2,1/4 --out "$RUNNER_TEMP/l.json"',
        'experiment --variant distance --alpha 1e400 --csv "$RUNNER_TEMP/huge.csv"',
    ]
