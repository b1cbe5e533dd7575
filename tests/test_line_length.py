"""Every line of the library's sources fits in 88 columns."""

from pathlib import Path

LIMIT = 88
SOURCES = Path(__file__).resolve().parents[1] / "src" / "itensor"


def test_source_lines_fit_in_88_columns():
    long = [
        f"{path.name}:{number} ({len(line)} columns)"
        for path in sorted(SOURCES.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > LIMIT
    ]
    assert not long, long
