"""The one writer of the CLI's JSON documents.

The top-level fields go in sorted-key order, one per line, each value
written by :func:`compact`; a top-level list of objects puts one object
per line.  Only whitespace differs from ``json.dumps(document,
sort_keys=True)``, so ``json.loads`` reads the same document back.
"""

import json

# Between the items of a list of objects, so each sits on its own line.
ITEM_SEPARATOR = ",\n    "


def compact(value) -> str:
    """``value`` on one line, keys sorted, no spaces."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def document(fields: dict, rows: dict | None = None) -> str:
    """The newline-terminated text of ``fields``, plus the lists of objects
    in ``rows``: each key maps to its items' :func:`compact` texts joined
    by :data:`ITEM_SEPARATOR`, so repeated or templated items are written once."""
    rows = dict(rows or {})
    for key, value in fields.items():
        if isinstance(value, list) and value and all(isinstance(item, dict) for item in value):
            rows[key] = ITEM_SEPARATOR.join(map(compact, value))
    lines = []
    for key in sorted({*fields, *rows}):
        if key in rows:
            value = f"[\n    {rows[key]}\n  ]" if rows[key] else "[]"
        else:
            value = compact(fields[key])
        lines.append(f"  {json.dumps(key)}: {value}")
    return "{\n" + ",\n".join(lines) + "\n}\n"
