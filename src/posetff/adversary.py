"""Lower-bound generators: posets that force First-Fit to open many chains.

``kierstead(q)`` builds the classic width-2 ladder on rows 1..q (row i has
i elements) whose natural presentation order forces exactly q chains.
``stacked(k, w)`` glues w-1 such ladders (parameter k-1) on top of each
other, keeping the top rows incomparable across copies; the concatenated
natural order then forces (k-1)(w-1) chains while the result has width w
and no two disjoint incomparable k-chains.  There is no k = 2 family: its
stand-in is an antichain of w elements, which forces w chains in any order.

Both return one record, ``LadderPoset(poset, names)``: the poset closed
from its cover pairs by ``build_poset``, whose closure proves the order, so
neither runs the checked constructor's kernels, and each element's name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import ParamError
from .firstfit import PresentationOrder
from .order import Poset, build_poset

__all__ = ["LadderPoset", "kierstead", "stacked"]


def _ladder_covers(q: int, copies: int) -> Iterator[tuple[int, int]]:
    """Cover pairs of ``copies`` ladders on rows 1..q, each copy's ids after the last's.

    The ladder's order is v(i,j) < v(i',j') iff i' >= i+2, or i' in {i, i+1}
    with j' >= j+1.  With v(i,j) the j-th element of row i, its covers are
    v(i,j+1) for j < i, v(i+1,j+1) for i < q, and v(i+2,1) for j = i (for
    j < i, v(i,j+1) lies between).  Every non-top-row element of a copy lies
    below the next copy, so the one cross cover runs from v(q-1,q-1), the
    greatest of them, to the next copy's two minimal elements v(1,1) and
    v(2,1).  Pairs come in sorted order.
    """
    u = 0
    for copy in range(1, copies + 1):
        for i in range(1, q + 1):
            for j in range(1, i + 1):
                if j < i:
                    yield u, u + 1
                if i < q:
                    yield u, u + i + 1
                if j == i and i + 2 <= q:
                    yield u, u + i + 2
                if j == i == q - 1 and copy < copies:
                    yield u, u + q + 1
                    yield u, u + q + 2
                u += 1


@dataclass(frozen=True)
class LadderPoset:
    """``copies`` ladders on rows 1..q, presented in id order, and their names.

    Ids run row by row through each copy in turn: element v(i,j) of copy c
    (all 1-based) has id (c-1)·q(q+1)/2 + i(i-1)/2 + j-1.  First-Fit in the
    natural order puts it in chain q(c-1) + i - j + 1, the lower-bound claim
    that the tests check element by element.
    """

    poset: Poset
    names: tuple[str, ...]

    @property
    def natural_order(self) -> PresentationOrder:
        return PresentationOrder.identity(self.poset.n)


def _ladders(q: int, copies: int, name: str) -> LadderPoset:
    """Close the cover pairs of ``copies`` ladders; ``name`` formats element v(i,j) of copy c."""
    names = tuple(name.format(c=c, i=i, j=j)
                  for c in range(1, copies + 1) for i in range(1, q + 1) for j in range(1, i + 1))
    return LadderPoset(build_poset(len(names), _ladder_covers(q, copies)), names)


def kierstead(q: int) -> LadderPoset:
    """The ladder P on q rows: q(q+1)/2 elements, width 2 for q >= 2."""
    if q < 1:
        raise ParamError("q must be at least 1")
    return _ladders(q, 1, "v[{i},{j}]")


def stacked(k: int, w: int) -> LadderPoset:
    """w-1 ladders with parameter k-1, every non-top-row element below later copies.

    Width is exactly w and no two disjoint incomparable k-chains exist.
    Raises ParamError for k < 3 or w < 2: at k = 2 the ladders have one row,
    which is their own top row, so nothing is stacked and the width is w-1.
    """
    if k < 3:
        raise ParamError("k must be at least 3")
    if w < 2:
        raise ParamError("w must be at least 2")
    return _ladders(k - 1, w - 1, "v{c}[{i},{j}]")
