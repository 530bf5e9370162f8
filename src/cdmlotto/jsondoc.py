"""The one writer of the CLI's JSON documents.

The top-level fields go in sorted-key order, one per line, each value
written by :func:`compact`; a list of objects that the caller passes as
rows puts one object per line.  Only whitespace differs from
``json.dumps(document, sort_keys=True)``, so ``json.loads`` reads the
same document back.
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
    texts = {key: compact(value) for key, value in fields.items()}
    texts.update((key, f"[\n    {items}\n  ]" if items else "[]") for key, items in (rows or {}).items())
    lines = [f"  {json.dumps(key)}: {texts[key]}" for key in sorted(texts)]
    return "{\n" + ",\n".join(lines) + "\n}\n"
