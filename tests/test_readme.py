"""README's config-key table, held to ``config.KEYS``: one row per live key, in the
order of ``KEYS``, with its section, key, kind and bound or choices."""

from pathlib import Path

from ddlqr.config import KEYS

README = Path(__file__).resolve().parents[1] / "README.md"
HEADER = "| section | key | kind | bound or choices | read as |"


def readme_key_rows():
    """(section, key, kind, bound or choices) of each row of README's key table."""
    lines = README.read_text().splitlines()
    rows = []
    for line in lines[lines.index(HEADER) + 2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        cells = [cell.replace("`", "").strip() for cell in line.strip("|").split("|")]
        rows.append(tuple(cells[:4]))
    return rows


def test_key_table_lists_every_live_key_with_its_kind_and_bound():
    live = [(f"[{section}]", key, spec.kind, spec.bound or ", ".join(spec.choices))
            for section, keys in KEYS.items() for key, spec in keys.items() if not spec.removed]
    assert readme_key_rows() == live
