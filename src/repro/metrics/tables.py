"""Plain-text table rendering for benchmark and example output."""


def rounded(value, digits):
    """*value* rounded, or None: nothing measured, which tables print as -."""
    return None if value is None else round(value, digits)


def _format_cell(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3f}"
        return f"{value:.6f}"
    return str(value)


def format_table(headers, rows, title=None):
    """Render an aligned monospace table."""
    cells = [[_format_cell(value) for value in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(header).ljust(widths[index])
                            for index, header in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[index])
                               for index, cell in enumerate(row)))
    return "\n".join(lines)

