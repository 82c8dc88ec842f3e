"""Every Markdown document cited from the code, tests and benchmarks exists.

A citation is any path with the Markdown suffix in a ``.py`` file under
``src/``, ``tests/`` or ``benchmarks/``; it resolves against the
repository root or, failing that, the citing file's own directory.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CITATION = re.compile(r"[\w./-]*\w\.md\b")


def citations() -> list[tuple[Path, int, str]]:
    found = []
    for folder in ("src", "tests", "benchmarks"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            lines = path.read_text(encoding="utf-8").splitlines()
            for lineno, line in enumerate(lines, 1):
                for cited in CITATION.findall(line):
                    found.append((path, lineno, cited))
    return found


def test_cited_markdown_files_exist():
    found = citations()
    assert len(found) >= 10  # the scan itself works
    missing = [
        f"{path.relative_to(ROOT)}:{lineno}: {cited}"
        for path, lineno, cited in found
        if not (ROOT / cited).is_file() and not (path.parent / cited).is_file()
    ]
    assert not missing, "dead Markdown citations:\n" + "\n".join(missing)
