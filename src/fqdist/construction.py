"""The counterexample family: tower parameters, the subspace V, the set E.

For an odd prime p and r >= 1 the field F_q = GF(p^(6r)) contains the
index-3 subfield F of order p^(2r) and a square root i of -1.  V is a
2-dimensional F-subspace of F_q and E = {(u, i*v) : u, v in V} has exactly
q^(4/3) points.  E_axes gives the two axes of that grid as index arrays,
E_indices its points as two index arrays, and enumerate_E wraps them in
Points on demand; its distance set is available through the subspace
structure.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from . import ff, setalg
from .errors import BudgetExceeded, DependentBasis, InvalidInput, WrongSubfieldDegree
from .ff import add_indices
from .setalg import Point

# largest point count enumerate_E will materialize by default
DEFAULT_ENUM_BUDGET = 2**26


@dataclass(frozen=True)
class Subspace:
    """A 2-dimensional subspace of F_q over the subfield, fully enumerated.

    indices holds the canonical indices of all |F|^2 members, sorted and
    read-only; it is a function of (field, basis), so equality ignores it.
    elements is the same members as FieldElems, and squares the sorted
    distinct indices of their squares; both are built on first use.
    """

    field: ff.ExtField
    subfield: ff.SubfieldHandle
    basis: tuple
    indices: np.ndarray = dc_field(compare=False)

    @cached_property
    def elements(self) -> tuple:
        return tuple(self.field.from_index(i) for i in self.indices.tolist())

    @cached_property
    def squares(self) -> np.ndarray:
        s = setalg.square_indices(self)
        s.flags.writeable = False
        return s


def _span_indices(subF, e1, e2):
    """Sorted indices of {a*e1 + b*e2 : a, b in F}; DependentBasis on a dependent pair.

    The pair is F-independent exactly when all |F|^2 combinations are
    distinct, so the enumeration doubles as the independence check.  The
    sums are taken in row blocks of ff._block_rows(|F|).
    """
    f, F = e1.field, subF.indices
    # column k of parts holds the indices of F times basis element k
    parts = f.mul(F[:, None], [e1.index, e2.index])
    span = np.empty((len(F), len(F)), dtype=np.int64)
    block = ff._block_rows(len(F))
    for a in range(0, len(F), block):
        span[a : a + block] = add_indices(parts[a : a + block, :1], parts[:, 1], f.p, f.n)
    span = span.ravel()
    span.sort()
    if (span[1:] == span[:-1]).any():
        raise DependentBasis(e1.index, e2.index)
    span.flags.writeable = False
    return span


def build_subspace(field: ff.ExtField, subF: ff.SubfieldHandle, basis="auto") -> Subspace:
    """Span two F-independent elements of F_q, enumerating all members.

    basis is either "auto", the indices (1, p) of 1 and the modulus root x,
    or an explicit pair of canonical indices; anything else raises
    InvalidInput.  x has degree n = 3m over Z_p, so it lies outside F and
    (1, x) is always F-independent.
    """
    if field.n % 3 != 0 or subF.m != field.n // 3:
        raise WrongSubfieldDegree(subF.m, field.n)
    try:
        i1, i2 = (1, field.p) if basis == "auto" else (operator.index(i) for i in basis)
    except (TypeError, ValueError):
        raise InvalidInput(f"basis must be two element indices, not {basis!r}") from None
    e1, e2 = field.from_index(i1), field.from_index(i2)
    return Subspace(field=field, subfield=subF, basis=(e1, e2), indices=_span_indices(subF, e1, e2))


@dataclass(frozen=True)
class Construction:
    """The full object (p, r, F_q, F, i, V); E = {(u, i*v)} stays implicit."""

    p: int
    r: int
    field: ff.ExtField
    subF: ff.SubfieldHandle
    i: ff.FieldElem
    V: Subspace

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def size_E(self) -> int:
        return len(self.V.indices) ** 2

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "r": self.r,
            "field": self.field.to_json(),
            "subfield_m": self.subF.m,
            "i_index": self.i.index,
            "basis": [b.index for b in self.V.basis],
        }

    @classmethod
    def from_json(cls, d: dict) -> "Construction":
        field = ff.ExtField.from_json(d["field"])
        p, r = d["p"], d["r"]
        if field.p != p or field.n != 6 * r:
            raise InvalidInput("field descriptor inconsistent with (p, r)")
        if d["subfield_m"] != 2 * r:
            raise InvalidInput("subfield degree must be 2r")
        i = field.from_index(d["i_index"])
        if i * i != -field.one:
            raise InvalidInput("i_index does not square to -1")
        subF = ff.locate_subfield(field, d["subfield_m"])
        V = build_subspace(field, subF, d["basis"])
        return cls(p=p, r=r, field=field, subF=subF, i=i, V=V)


def build_construction(p: int, r: int, basis="auto") -> Construction:
    """Assemble the (p, r) instance with q = p^(6r).

    Rejects composite p, q beyond the size guard, and characteristics in
    which -1 has no square root (in particular p = 2).
    """
    if r < 1:
        raise InvalidInput("r must be at least 1")
    field = ff.ExtField(p, 6 * r)  # checks p and q before any search
    subF = ff.locate_subfield(field, 2 * r)
    i = ff._subfield_sqrt_minus_one(subF)
    V = build_subspace(field, subF, basis)
    if len(V.indices) != p ** (4 * r):
        raise AssertionError("|V| != p^(4r)")
    return Construction(p=p, r=r, field=field, subF=subF, i=i, V=V)


def E_axes(c: Construction) -> tuple:
    """The two axes of the grid E = V x iV as int64 index arrays (V, i*V).

    E is defined as this grid; E_indices lists its points, and brute
    force (setalg.distance_set_of_grid) reads the axes alone.
    """
    V = c.V.indices
    return V, c.field.mul(c.i.index, V)


def E_indices(c: Construction, budget: int = DEFAULT_ENUM_BUDGET) -> tuple:
    """The |V|^2 points (u, i*v) of the grid E_axes as two int64 index arrays (xs, ys).

    Point k is (xs[k], ys[k]), in (index of u, index of v) order: xs
    repeats each member of V |V| times and ys cycles through i*V.  More
    than budget points raise BudgetExceeded before any array is built.
    """
    m = len(c.V.indices)
    if m * m > budget:
        raise BudgetExceeded("E points", m * m, budget)
    xs, ys = E_axes(c)
    return np.repeat(xs, m), np.tile(ys, m)


def enumerate_E(c: Construction, budget: int = DEFAULT_ENUM_BUDGET) -> list[Point]:
    """The points of E_indices as Points, sharing one FieldElem per coordinate value.

    Oversized requests raise; callers should use the structured distance
    path, or E_indices for brute force, instead of materializing E.
    """
    xs, ys = E_indices(c, budget)
    m = len(c.V.indices)
    f = c.field
    us = [f.from_index(u) for u in xs[::m].tolist()]
    ws = [f.from_index(w) for w in ys[:m].tolist()]
    return [Point(u, w) for u in us for w in ws]
