"""Independent reference implementations used as test oracles.

Everything here is deliberately slow and simple: plain scalar loops and
trial division, and at most numpy arithmetic on coefficient vectors,
sharing no code path with the vectorized implementations they check.
"""

from itertools import product as iproduct

import numpy as np


def scalar_distance_set(points) -> set:
    """Distance-set indices by plain scalar loops over all ordered pairs."""
    out = set()
    for a in points:
        for b in points:
            dx = a.x - b.x
            dy = a.y - b.y
            out.add((dx * dx + dy * dy).index)
    return out


def scalar_product_set(elements) -> set:
    """{u*v} indices by the naive double loop."""
    out = set()
    for u in elements:
        for v in elements:
            out.add((u * v).index)
    return out


def scalar_square_difference_set(elements) -> set:
    """{u^2 - v^2} indices: the distinct squares, then all their differences.

    The squares come from scalar multiplication.  A difference is the
    coefficient vectors' difference mod p, read as the base-p digits of
    its index, one square against all the others at a time.
    """
    f = elements[0].field
    squares = np.array(sorted({(u * u).coeffs for u in elements}), dtype=np.int64)
    weights = f.p ** np.arange(f.n, dtype=np.int64)
    out = set()
    for a in squares:
        out.update((((a - squares) % f.p) @ weights).tolist())
    return out


def element_order(e) -> int:
    """Multiplicative order by stepping powers one at a time."""
    if not e:
        raise ValueError("zero has no multiplicative order")
    one = e.field.one
    cur = e
    k = 1
    while cur != one:
        cur = cur * e
        k += 1
    return k


def scalar_subfield_powers(field, m) -> list:
    """Indices of gamma^k, gamma = g^step, for k < p^m - 1, in exponent order.

    The powers are stepped one scalar product at a time, until they return to 1.
    """
    order = field.p**m
    gamma = field.generator ** ((field.q - 1) // (order - 1))
    out, cur = [], field.one
    for _ in range(order - 1):
        out.append(cur.index)
        cur = cur * gamma
    if cur != field.one:
        raise AssertionError("g^step does not have order p^m - 1")
    return out


def scalar_subfield(field, m) -> list:
    """Sorted indices of the order-p^m subfield: 0 and the powers of g^step."""
    return sorted([0] + scalar_subfield_powers(field, m))


def scalar_span(sub_elements, e1, e2) -> list:
    """Sorted distinct indices of a*e1 + b*e2 over all a, b in sub_elements."""
    return sorted({(a * e1 + b * e2).index for a in sub_elements for b in sub_elements})


def poly_divides(g, f, p) -> bool:
    """Long division over Z_p, written from scratch; coefficients low-first."""
    rem = [c % p for c in f]
    dg = len(g) - 1
    lead_inv = pow(g[-1] % p, -1, p)
    for k in range(len(rem) - dg - 1, -1, -1):
        c = (rem[k + dg] * lead_inv) % p
        if c:
            for j, b in enumerate(g):
                rem[k + j] = (rem[k + j] - c * b) % p
    return not any(rem[:dg])


def irreducible_by_trial_division(f, p) -> bool:
    """Monic f irreducible iff no monic divisor of degree 1..deg(f)//2."""
    d = len(f) - 1
    for dd in range(1, d // 2 + 1):
        for tail in iproduct(range(p), repeat=dd):
            if poly_divides(list(tail) + [1], f, p):
                return False
    return True


def grid_points(field):
    """All q^2 points of F_q^2."""
    from fqdist.setalg import Point

    elems = list(field.elements())
    return [Point(x, y) for x in elems for y in elems]


def distance_mask(witness, q) -> int:
    """Distance set of integer-coordinate points over Z_q as a bitmask."""
    mask = 0
    for (a1, b1) in witness:
        for (a2, b2) in witness:
            mask |= 1 << (((a1 - a2) ** 2 + (b1 - b2) ** 2) % q)
    return mask
