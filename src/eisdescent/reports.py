"""Stable, diffable report documents for verification and search runs.

A document has three top-level keys: "report" (the deterministic payload,
byte-stable for fixed inputs: sorted keys, sorted lists, no timestamps),
"fingerprint" (a content hash of the run parameters), and "elapsed_s"
(wall-clock time, deliberately outside the stable section).  A `search`
document has a fourth, "counters" (work done by the walk), also outside
"report"; it sorts before "report", so the report section's bytes and place
at the end of the printed document do not change.  `cli.main` alone calls
`make_document`: each command returns its report section, the parameters
to fingerprint and its counters, and `main` adds the handler's wall time.

Documents are written by `dumps_document`, this module's own writer, whose
output is byte-identical to `json.dumps(document, sort_keys=True, indent=2)`
plus a newline: json's indented encoding always takes its pure-Python
encoder, which cost more than classifying the points of an all-Descends
search.  Strings go through json's C string encoder, other leaves through
`json.dumps`.  A list member may instead be a `RenderedList`, whose items
write their own text, one string per item; an item may stand for several
list entries.  A `search` document holds its Descends findings this way,
one item per block of integer columns, so no dict of strings is built per
finding.  json.dumps cannot encode such a document; `dumps_document`
writes what json.dumps gives for the same document with each entry as its
dict.

`search`'s block text and `ResidueSet.write_csv` write int64 values as
`_digits` columns, padded with the byte 0, which `_gathered` drops.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = ["RenderedList", "dumps_document", "fingerprint", "make_document"]


def fingerprint(params: dict) -> str:
    """sha256 over the canonical JSON encoding of the run parameters."""
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode("ascii")).hexdigest()


def make_document(report: dict, params: dict, elapsed_s: float,
                  counters: dict | None = None) -> dict:
    document = {
        "report": report,
        "fingerprint": fingerprint(params),
        "elapsed_s": round(elapsed_s, 6),
    }
    if counters is not None:
        document["counters"] = counters
    return document


class RenderedList:
    """A list member whose items render themselves: `render(item, indent)`
    returns the text json.dumps(sort_keys=True, indent=2) writes for the one
    or more list entries the item stands for, joined by "," and `indent` (a
    line break and the entries' indent), when `indent` precedes it.  The
    text is written as it is, so any escaping is the renderer's."""

    # a plain class: a dataclass would cost every command about 0.6 ms at import
    __slots__ = ("items", "render")

    def __init__(self, items: Sequence, render: Callable[[Any, str], str]) -> None:
        self.items = items
        self.render = render


def dumps_document(document: dict) -> str:
    pieces: list[str] = []
    _write(pieces, document, "\n")
    pieces.append("\n")
    return "".join(pieces)


def _write(pieces: list[str], value, newline: str) -> None:
    """Append `value` to `pieces` as json.dumps(value, sort_keys=True, indent=2)
    writes it, with `newline` (a line break and the current indent) before
    each closing bracket.  Dict keys must be strings."""
    if isinstance(value, str):
        pieces.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            pieces.append(sep)
            pieces.append(encode_basestring_ascii(key))
            pieces.append(": ")
            _write(pieces, value[key], inner)
            sep = "," + inner
        pieces.append(newline + "}")
    elif isinstance(value, (list, tuple, RenderedList)):
        items, render = ((value.items, value.render) if isinstance(value, RenderedList)
                         else (value, None))
        if not items:
            pieces.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in items:
            pieces.append(sep)
            if render is None:
                _write(pieces, item, inner)
            else:
                pieces.append(render(item, inner))
            sep = "," + inner
        pieces.append(newline + "]")
    else:
        pieces.append(json.dumps(value))


def _digits(v: np.ndarray) -> np.ndarray:
    """uint8 rows of the ASCII decimal digits of the int64 values v >= 0,
    right-aligned, with the byte 0 in place of each leading zero."""
    import numpy as np

    width = len(str(int(v.max())))
    digits = np.empty((width, len(v)), dtype=np.uint8)
    for k in range(width - 1, -1, -1):  # the last digit first
        rest = v // 10
        digit = v - 10 * rest + ord("0")
        if k < width - 1:  # 0 is written "0"
            digit *= v > 0
        digits[k] = digit
        v = rest
    return digits.T


def _gathered(columns: list[np.ndarray]) -> np.ndarray:
    """The rows of the 2-d uint8 columns side by side, less every pad byte 0
    (the digit 0 is byte 48): one uint8 array whose buffer is the text."""
    import numpy as np

    flat = np.concatenate(columns, axis=1).ravel()
    return flat[flat != 0]
