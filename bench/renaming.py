"""Per-send renaming of the requests' predicate names.

The closed loop sends every request many times.  Sent as the same text
each time, a repeated request could be answered from a cache that the
workbench keeps across calls, and the latency of an item would then time
the cache, not the work.  So every send puts a tag in front of every
predicate name: ``A(x) -> B`` becomes ``X0003_A(x) -> X0003_B`` in the
send with id 3.

- The tag has a fixed width, so every send parses the same amount of
  text.
- The tag is the same for all names of a request, so the names keep
  their sorted order, and the lexicographically first G_m countermodel
  maps across.
- Only predicate names carry the tag.  They are the identifiers that
  start with an upper-case letter in formula text.  Variables, function
  symbols, keywords, axiom and rule names, schema letters and system
  names keep theirs.
- ``strip`` takes the tag out of a verdict again, so verdicts compare
  with the known answers of the untagged items.

Set-classification requests name no predicates and go out unchanged.
"""

from __future__ import annotations

import re

TAG_WIDTH = 4
_TAG = re.compile(r"X\d{%d}_(?=[A-Z])" % TAG_WIDTH)
# the start of an identifier that starts with an upper-case letter
_PRED = re.compile(r"(?<![A-Za-z0-9_])(?=[A-Z])")
# the same, unless the identifier is a schema letter being bound (``A :=``)
_PRED_VALUE = re.compile(r"(?<![A-Za-z0-9_])(?=[A-Z])(?![A-Za-z0-9_]*\s*:=)")
_STEP = re.compile(r"(\d+\.\s*)(.*?)(\s*;\s*)(.*)")


def tag(n: int) -> str:
    """The tag of send id ``n``; ids wrap after 10^TAG_WIDTH sends."""
    return f"X{n % 10 ** TAG_WIDTH:0{TAG_WIDTH}d}_"


def formula(text: str, t: str) -> str:
    """Formula text (or interpretation / certificate JSON, whose keys and
    other strings are lower case) with ``t`` before every predicate."""
    return _PRED.sub(t, text)


def proof(text: str, t: str) -> str:
    """A derivation with ``t`` before the predicates of its step formulas
    and of the values its schema bindings take."""
    out = []
    for line in text.split("\n"):
        m = _STEP.fullmatch(line)
        if m is not None:
            just = m.group(4)
            head, bracket, rest = just.partition("[")
            line = (m.group(1) + formula(m.group(2), t) + m.group(3) + head
                    + bracket + _PRED_VALUE.sub(t, rest))
        out.append(line)
    return "\n".join(out)


def _strings(args: dict, keys, t: str) -> dict:
    out = dict(args)
    for key in keys:
        value = out[key]
        out[key] = ([formula(v, t) for v in value] if isinstance(value, list)
                    else formula(value, t))
    return out


RENAMED = {
    "decide": ("formula",),
    "prove": ("formula",),
    "verify": ("certificate",),
    "entail": ("premises", "conclusion"),
    "evaluate": ("interpretation", "formula"),
    "transform": ("formula",),
    "classify": (),
}


def request(req: dict, t: str) -> dict:
    """The request as it is sent under tag ``t``."""
    if req["op"] == "check_proof":
        args = dict(req["args"], proof=proof(req["args"]["proof"], t))
    else:
        args = _strings(req["args"], RENAMED[req["op"]], t)
    return {"op": req["op"], "args": args}


def retag(text: str, t: str) -> str:
    """``text`` with every tag replaced by ``t``."""
    return _TAG.sub(t, text)


def strip(obj):
    """A verdict (strings, lists and dicts) with the tags taken out."""
    if isinstance(obj, str):
        return _TAG.sub("", obj)
    if isinstance(obj, list):
        return [strip(x) for x in obj]
    if isinstance(obj, dict):
        return {strip(k): strip(v) for k, v in obj.items()}
    return obj
