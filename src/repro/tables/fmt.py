"""Plain-text rendering of table rows (lists of dicts)."""


def render(rows: list[dict], *, title: str = "") -> str:
    """Fixed-width text table; column order = first row's key order."""
    if not rows:
        return f"{title}\n(empty)\n"
    cols = list(rows[0].keys())
    cells = [[_s(r.get(c, "")) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _s(v) -> str:
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)
