"""Poset file formats: JSON (elements + cover pairs) and DOT export.

JSON schema: {"name": str?, "elements": [str], "cover": [[str, str]]}
where a cover pair [a, b] means a < b with nothing between, so a pair
[a, a] is rejected; import applies the transitive closure.
"""

from __future__ import annotations

import json

from .errors import IpckitError, SchemaError
from .poset import Poset, build_poset


def poset_to_obj(p: Poset) -> dict:
    covers = sorted(
        [p.elements[i], p.elements[j]] for i, j in p.covers()
    )
    obj = {}
    if p.name:
        obj["name"] = p.name
    obj["elements"] = list(p.elements)
    obj["cover"] = covers
    return obj


def poset_to_json(p: Poset) -> str:
    return json.dumps(poset_to_obj(p), sort_keys=True)


def poset_from_obj(obj) -> Poset:
    if not isinstance(obj, dict):
        raise SchemaError("poset document must be an object")
    if "elements" not in obj or not isinstance(obj["elements"], list):
        raise SchemaError("missing element list")
    elements = obj["elements"]
    if not all(isinstance(e, str) for e in elements):
        raise SchemaError("element names must be strings")
    cover = obj.get("cover", [])
    if not isinstance(cover, list):
        raise SchemaError("cover must be a list of pairs")
    pairs = []
    for entry in cover:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                and all(isinstance(e, str) for e in entry) and entry[0] != entry[1]):
            raise SchemaError(f"bad cover pair {entry!r}")
        pairs.append((entry[0], entry[1]))
    name = obj.get("name")
    if "name" in obj and not isinstance(name, str):
        raise SchemaError("poset name must be a string")
    try:
        return build_poset(elements, pairs, name=name)
    except IpckitError as exc:
        raise SchemaError(f"{type(exc).__name__}: {exc}") from exc


def import_poset(path) -> Poset:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    return poset_from_obj(obj)


def _dot_id(name):
    """name as a quoted DOT identifier, with backslashes and quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def poset_to_dot(p: Poset) -> str:
    ids = [_dot_id(e) for e in p.elements]
    lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=circle];"]
    for e in ids:
        lines.append(f"  {e};")
    for i, j in sorted(p.covers()):
        lines.append(f"  {ids[i]} -> {ids[j]};")
    heights = p.heights()
    for h in sorted(set(heights)):
        same = " ".join(ids[i] for i in range(p.n) if heights[i] == h)
        lines.append(f"  {{ rank=same; {same} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_text(p: Poset, fmt: str) -> str:
    """The text of a poset file in fmt, "json" (indented) or "dot"."""
    if fmt == "json":
        return json.dumps(poset_to_obj(p), sort_keys=True, indent=2) + "\n"
    if fmt == "dot":
        return poset_to_dot(p)
    raise ValueError(f"unknown format {fmt!r}")


def export_poset(p: Poset, fmt: str, path) -> None:
    text = poset_text(p, fmt)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
