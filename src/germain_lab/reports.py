"""Report rendering: CSV (15 significant digits) and schema-versioned JSON.

json is imported by render_json when it runs, so a CSV report never loads it.
"""

SCHEMA_VERSION = 1


def format_cell(v) -> str:
    # the exact types of most cells first: an int prints bare, and a bool,
    # which no class subclasses, as a word; a float subclass such as
    # numpy's float64 takes the float branch
    kind = type(v)
    if kind is int:
        return str(v)
    if kind is bool:
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.15g}"
    text = str(v)
    if "," in text or '"' in text or "\n" in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def render_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(map(format_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def render_json(command: str, config: dict, header: list[str], rows: list[list]) -> str:
    import json
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    # a NaN or an infinity is not JSON (RFC 8259): refuse it, never print it
    return json.dumps(doc, indent=2, sort_keys=False, allow_nan=False) + "\n"
