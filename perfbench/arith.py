"""Number theory and GF(p^n) arithmetic for making inputs and expected values.

Nothing here imports sdfam: the benchmark derives its inputs and the
parameters each theorem promises by a second route, so that a defect in the
library cannot make its own expectations agree with it.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def prime_factors(n: int) -> list[int]:
    return [q for q in range(2, n + 1) if n % q == 0 and is_prime(q)]


def mult_order(c: int, n: int) -> int:
    """Order of the unit c modulo n."""
    k, acc = 1, c % n
    while acc != 1:
        acc = acc * c % n
        k += 1
    return k


@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    qs = prime_factors(p - 1)
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


def unit_of_order(p: int, k: int, e: int = 1) -> int:
    """A generator of the order-k subgroup of Z_p^*; e (coprime to k) picks which."""
    if gcd(e, k) != 1:
        raise ValueError(f"exponent {e} is not coprime to {k}")
    return pow(primitive_root(p), (p - 1) // k * e, p)


def units_fpf(c: int, d: int, n: int) -> bool:
    """Whether x -> c^i x (0 <= i < d) is fixed-point-free on Z_n: every
    difference of two distinct powers must be a unit."""
    powers = [pow(c, i, n) for i in range(d)]
    return all(gcd(a - b, n) == 1 for i, a in enumerate(powers) for b in powers[i + 1:])


# -- GF(p^n): elements are coefficient tuples, low degree first ---------------

def gf_mul(a, b, modulus, p: int) -> tuple[int, ...]:
    """a*b in Z_p[x] / (modulus), with a monic modulus of degree n."""
    n = len(modulus) - 1
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for top in range(len(prod) - 1, n - 1, -1):
        f = prod[top]
        if f:
            for i in range(n + 1):
                prod[top - n + i] = (prod[top - n + i] - f * modulus[i]) % p
    return tuple(prod[:n])


def _one(n: int) -> tuple[int, ...]:
    return (1,) + (0,) * (n - 1)


def _x(n: int) -> tuple[int, ...]:
    return (0, 1) + (0,) * (n - 2)


@lru_cache(maxsize=None)
def primitive_moduli(p: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Every monic polynomial of degree n >= 2 modulo which x has
    multiplicative order p^n - 1, in index order; such a polynomial is
    irreducible."""
    q1 = p ** n - 1
    out = []
    for enc in range(p ** n):
        mod = tuple((enc // p ** i) % p for i in range(n)) + (1,)
        acc, k = _x(n), 1
        while acc != _one(n) and k <= q1:
            acc = gf_mul(acc, _x(n), mod, p)
            k += 1
        if k == q1:
            out.append(mod)
    if not out:
        raise ValueError(f"no primitive polynomial of degree {n} over GF({p})")
    return tuple(out)


def primitive_modulus(p: int, n: int) -> tuple[int, ...]:
    return primitive_moduli(p, n)[0]


def unit_subgroup(p: int, n: int, h: int, modulus=None) -> list[tuple[int, ...]]:
    """The order-h subgroup of GF(p^n)^*, under the given primitive modulus
    (primitive_modulus(p, n) by default)."""
    mod = modulus or primitive_modulus(p, n)
    step = _one(n)
    for _ in range((p ** n - 1) // h):
        step = gf_mul(step, _x(n), mod, p)
    out, acc = [], _one(n)
    for _ in range(h):
        out.append(acc)
        acc = gf_mul(acc, step, mod, p)
    return out


def subfield_orders(p: int, n: int) -> set[int]:
    return {p ** m for m in range(1, n + 1) if n % m == 0}
