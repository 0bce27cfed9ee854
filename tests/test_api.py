"""The public surface: ``heavytail.__all__`` and README's "Public API" list agree."""

import re
from pathlib import Path

import heavytail

README = Path(__file__).resolve().parents[1] / "README.md"


def public_api_section() -> str:
    text = README.read_text()
    start = text.index("## Public API")
    return text[start:text.index("\n## ", start + 1)]


def test_every_export_is_documented():
    documented = set(re.findall(r"`(\w+)", public_api_section()))
    missing = sorted(set(heavytail.__all__) - documented)
    assert not missing, f"exported but not in README's Public API: {missing}"


def test_every_export_exists():
    assert len(set(heavytail.__all__)) == len(heavytail.__all__)
    for name in heavytail.__all__:
        assert hasattr(heavytail, name), name
