"""GF(p^n) arithmetic against sympy's polynomials over Z_p, for every field
order up to the group-order cap.

sympy is a test-only oracle (the ``test`` extra): it decides irreducibility
and multiplies residues by its own routes, so the trial division, the
default-modulus search and ``FiniteField.mul`` are checked by a second
implementation.
"""

from __future__ import annotations

import random

import pytest

from sdfam import build_field
from sdfam.fields import _default_modulus, _irreducible_witness
from sdfam.groups import MAX_ORDER, digits_of, is_prime

sympy = pytest.importorskip("sympy")
X = sympy.symbols("x")

FIELD_ORDERS = sorted((p, n) for p in range(2, MAX_ORDER + 1) if is_prime(p)
                      for n in range(1, MAX_ORDER.bit_length()) if p ** n <= MAX_ORDER)


def poly(coeffs, p):
    """A low-degree-first coefficient tuple as a sympy polynomial over Z_p."""
    return sympy.Poly(list(reversed(coeffs)), X, modulus=p)


def coeffs_of(polynomial, p, n):
    """The residue as a length-n low-degree-first tuple in [0, p)."""
    out = [int(c) % p for c in reversed(polynomial.all_coeffs())]
    return tuple(out) + (0,) * (n - len(out))


def monic(enc, p, n):
    return digits_of(enc, p, n) + (1,)


def test_every_field_order_up_to_the_cap_is_covered():
    assert len(FIELD_ORDERS) == 97 + 8 + 4 + 2 + 2 + 4  # p^1, p = 2, 3, 5, 7, 11..19
    assert max(p ** n for p, n in FIELD_ORDERS) == 512


@pytest.mark.parametrize("p,n", FIELD_ORDERS)
def test_default_modulus_is_the_first_irreducible_in_index_order(p, n):
    mod = _default_modulus(p, n)
    assert len(mod) == n + 1 and mod[-1] == 1
    assert poly(mod, p).is_irreducible
    enc = sum(c * p ** i for i, c in enumerate(mod[:-1]))
    assert not any(poly(monic(e, p, n), p).is_irreducible for e in range(enc))


@pytest.mark.parametrize("p,n", [(p, n) for p, n in FIELD_ORDERS if n > 1 or p < 20])
def test_irreducible_witness_agrees_with_sympy(p, n):
    rng = random.Random(p ** n)
    count = p ** n
    encs = range(count) if count <= 64 else rng.sample(range(count), 48)
    verdicts = set()
    for enc in encs:
        mod = monic(enc, p, n)
        target = poly(mod, p)
        witness = _irreducible_witness(mod, p)
        verdicts.add(witness is None)
        assert (witness is None) == target.is_irreducible
        if witness is not None:
            factor, cofactor = witness
            assert factor[-1] == 1 and len(factor) - 1 <= n // 2
            assert poly(factor, p) * poly(cofactor, p) == target
            # Trial division in degree order finds a factor of least degree.
            least = min(f.degree() for f, _ in target.factor_list()[1])
            assert len(factor) - 1 == least
    assert verdicts == ({True, False} if n > 1 else {True})


@pytest.mark.parametrize("p,n", FIELD_ORDERS)
def test_field_products_agree_with_sympy(p, n):
    field = build_field(p, n)
    q = field.order
    rng = random.Random(7 * q)
    pairs = ([(a, b) for a in range(q) for b in range(q)] if q <= 16
             else [(rng.randrange(q), rng.randrange(q)) for _ in range(40)])
    modulus = poly(field.modulus, p)
    for a, b in pairs:
        x, y = field.element_at(a), field.element_at(b)
        expected = coeffs_of((poly(x, p) * poly(y, p)).rem(modulus), p, n)
        assert field.mul(x, y) == expected
