from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "growlat"
MAX_LINE = 120


def test_no_source_line_is_longer_than_120_characters():
    # no linter runs in tier-1, so this is the guard on the package's line length
    long = [f"{path.name}:{number} ({len(line)})" for path in sorted(SRC.glob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if len(line) > MAX_LINE]
    assert not long, f"lines longer than {MAX_LINE} characters: {long}"
