"""Canonical JSON formats for every artifact the tools exchange.

Poset files carry generator pairs (the transitive reduction on save) and
are closed again on load.  Dumps are canonical (sorted keys, tight
separators, trailing newline) so identical inputs give byte-identical files.

The two large kinds are written as text: ``poset_text`` and
``interval_order_text`` write a poset file from its cover rows (the covers
of each element, so no pair tuple is built, and for the interval order of
a list of spans no ``Poset`` either), and ``pd_text`` writes the bags of
a list of spans as their sweep yields them, keeping none.  Each id's
decimal string is made once and joined, byte for byte what
``canonical_dumps`` writes for the same document.  The small documents are
dicts for ``canonical_dumps``: writers pass the library's tuples through
uncopied (``json`` writes a tuple as a list).
Readers take parsed JSON only, whose arrays are lists.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from .errors import CoverageError, FormatError, SizeMismatch
from .extension import PathDecomposition, _bag_rows
from .firstfit import FFChainResult, PresentationOrder
from .order import KkWitness, Poset, build_poset, interval_cover_rows

__all__ = [
    "canonical_dumps",
    "read_json",
    "poset_text",
    "poset_from_dict",
    "interval_order_text",
    "order_to_dict",
    "order_from_dict",
    "ff_result_to_dict",
    "intervals_to_dict",
    "pd_text",
    "pd_from_dict",
    "witness_to_dict",
]

# the largest poset file loaded: at this size the two mask tables take about 1 GiB
MAX_ELEMENTS = 1 << 16


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_dumps(obj: Any) -> str:
    """The canonical text of a document: sorted keys, tight separators, a final newline.

    The same bytes as ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``
    plus the newline, through one encoder made once.  That encoder skips
    ``json``'s cycle check, a marker per container, since every document the
    library writes is a tree built afresh and none can hold itself.  Every
    other default stays as ``json.dumps`` has it: ``ensure_ascii`` escapes
    non-ASCII names, and ``allow_nan`` writes NaN and the infinities.  The
    text writers below encode their names and meta with it.
    """
    return _ENCODER.encode(obj) + "\n"


def read_json(path: str | Path) -> Any:
    """The parsed document; a file that is not UTF-8 JSON raises FormatError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise FormatError("document nests too deeply to parse") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, the int digit limit
        raise FormatError(str(exc)) from None


def _poset_text(
    n: int, rows: Sequence[Sequence[int]], names: Sequence[str] | None, meta: dict | None
) -> str:
    """The poset file of n elements whose row u lists, increasing, the elements that cover u.

    Keys in sorted order (meta, n, names, relations), a key left out when
    its value is None.  Each pair is written as ``[u,v]`` from the ids'
    strings, made once.
    """
    ids = list(map(str, range(n)))
    pairs = []
    for u, vs in enumerate(rows):
        if vs:
            head = "[" + ids[u] + ","
            pairs.append(head + ("]," + head).join(map(ids.__getitem__, vs)) + "]")
    meta_text = "" if meta is None else '"meta":' + _ENCODER.encode(meta) + ","
    names_text = "" if names is None else ',"names":' + _ENCODER.encode(names)
    relations = ',"relations":[' + ",".join(pairs) + "]}\n"
    return "{" + meta_text + '"n":' + str(n) + names_text + relations


def poset_text(p: Poset, meta: dict | None) -> str:
    return _poset_text(p.n, p.cover_rows(), p.names, meta)


def interval_order_text(
    spans: Sequence[tuple[float, float]], names: Sequence[str] | None = None,
    meta: dict | None = None,
) -> str:
    """The poset file of the spans' interval order, written without building it.

    Equal to ``poset_text(build_poset(len(spans), q.cover_pairs(), names), meta)``
    with ``q = interval_order_from_intervals(spans)``.
    """
    if names is not None and len(names) != len(spans):
        raise SizeMismatch("names must match element count")
    return _poset_text(len(spans), interval_cover_rows(spans), names, meta)


def _field(d: Any, key: str) -> Any:
    if not isinstance(d, dict):
        raise FormatError(f"expected a JSON object, got {type(d).__name__}")
    if key not in d:
        raise FormatError(f"missing key {key!r}")
    return d[key]


def _int_field(d: Any, key: str) -> int:
    value = _field(d, key)
    if type(value) is not int:
        raise FormatError(f"{key!r} must be an integer, got {value!r}")
    return value


def _is_int_list(value: Any) -> bool:
    return type(value) is list and {int}.issuperset(map(type, value))


def _int_list_field(d: Any, key: str) -> tuple[int, ...]:
    value = _field(d, key)
    if not _is_int_list(value):
        raise FormatError(f"{key!r} must be a list of integers")
    return tuple(value)


def _int_pairs_field(d: Any, key: str) -> list[list[int]]:
    value = _field(d, key)
    if not isinstance(value, list) or not all(
        type(r) is list and len(r) == 2 and type(r[0]) is int and type(r[1]) is int
        for r in value
    ):
        raise FormatError(f"{key!r} must be a list of integer pairs")
    return value


def poset_from_dict(d: dict) -> Poset:
    n = _int_field(d, "n")
    if n > MAX_ELEMENTS:
        raise FormatError(f"'n' is {n}, above the limit of {MAX_ELEMENTS} elements")
    relations = _int_pairs_field(d, "relations")
    names = d.get("names")
    if names is not None and not (
        isinstance(names, list) and all(isinstance(s, str) for s in names)
    ):
        raise FormatError("'names' must be a list of strings")
    return build_poset(n, relations, names)


def order_to_dict(order: PresentationOrder) -> dict:
    return {"order": order.order}


def order_from_dict(d: dict) -> PresentationOrder:
    try:
        return PresentationOrder(_int_list_field(d, "order"))
    except CoverageError as exc:
        raise FormatError(f"'order': {exc}") from None


def ff_result_to_dict(res: FFChainResult) -> dict:
    return {"chains": res.partition, "assignment": res.assignment}


def intervals_to_dict(spans: Sequence[tuple[int, int]]) -> dict:
    return {"intervals": spans}


def pd_text(spans: Sequence[tuple[int, int]], count: int) -> str:
    """The pd file of bags 1..count, bag t the ids whose span contains t, joined as swept."""
    ids = list(map(str, range(len(spans))))
    bags = ["[" + ",".join(map(ids.__getitem__, bag)) + "]" for bag in _bag_rows(spans, count)]
    return '{"bags":[' + ",".join(bags) + "]}\n"


def pd_from_dict(d: dict) -> PathDecomposition:
    bags = _field(d, "bags")
    if not isinstance(bags, list) or not all(_is_int_list(bag) for bag in bags):
        raise FormatError("'bags' must be a list of integer lists")
    return PathDecomposition(tuple(tuple(bag) for bag in bags))


def witness_to_dict(w: KkWitness) -> dict:
    return {"k": w.k, "a": w.a, "b": w.b}
