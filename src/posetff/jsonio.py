"""Canonical JSON formats for every artifact the tools exchange.

Poset files carry generator pairs (the transitive reduction on save) and
are closed again on load.  ``interval_order_to_dict`` writes the same
layout for the interval order of a list of spans straight from the spans'
cover pairs, so no ``Poset`` of that order is built.  Dumps are canonical
(sorted keys, tight separators, trailing newline) so identical inputs give
byte-identical files.  Writers pass the library's tuples through uncopied
(``json`` writes a tuple as a list); readers take parsed JSON only, whose
arrays are lists.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from .errors import CoverageError, FormatError, SizeMismatch
from .extension import PathDecomposition
from .firstfit import FFChainResult, PresentationOrder
from .order import KkWitness, Poset, build_poset, interval_cover_pairs

__all__ = [
    "canonical_dumps",
    "read_json",
    "poset_to_dict",
    "poset_from_dict",
    "interval_order_to_dict",
    "order_to_dict",
    "order_from_dict",
    "ff_result_to_dict",
    "intervals_to_dict",
    "pd_to_dict",
    "pd_from_dict",
    "witness_to_dict",
]

# the largest poset file loaded: at this size the two mask tables take about 1 GiB
MAX_ELEMENTS = 1 << 16


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def read_json(path: str | Path) -> Any:
    """The parsed document; a file that is not UTF-8 JSON raises FormatError."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise FormatError("document nests too deeply to parse") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, the int digit limit
        raise FormatError(str(exc)) from None


def _poset_dict(
    n: int, covers: list[tuple[int, int]], names: Sequence[str] | None, meta: dict | None
) -> dict:
    d = {"n": n, "relations": covers, "names": names, "meta": meta}
    return {key: value for key, value in d.items() if value is not None}


def poset_to_dict(p: Poset, meta: dict | None) -> dict:
    return _poset_dict(p.n, sorted(p.cover_pairs()), p.names, meta)


def interval_order_to_dict(
    spans: Sequence[tuple[float, float]], names: Sequence[str] | None = None,
    meta: dict | None = None,
) -> dict:
    """The poset file of the spans' interval order, written without building it.

    Equal to ``poset_to_dict(build_poset(len(spans), q.cover_pairs(), names), meta)``
    with ``q = interval_order_from_intervals(spans)``.
    """
    if names is not None and len(names) != len(spans):
        raise SizeMismatch("names must match element count")
    return _poset_dict(len(spans), interval_cover_pairs(spans), names, meta)


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


def pd_to_dict(pd: PathDecomposition) -> dict:
    return {"bags": pd.bags}


def pd_from_dict(d: dict) -> PathDecomposition:
    bags = _field(d, "bags")
    if not isinstance(bags, list) or not all(_is_int_list(bag) for bag in bags):
        raise FormatError("'bags' must be a list of integer lists")
    return PathDecomposition(tuple(tuple(bag) for bag in bags))


def witness_to_dict(w: KkWitness) -> dict:
    return {"k": w.k, "a": w.a, "b": w.b}
