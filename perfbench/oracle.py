"""Checks on the library's results that do not use sdfam.

Every check raises Mismatch with a reason when a result is wrong. Pair
coverage and developments are counted with numpy over plain integer arrays,
so a defect in the library's own counting paths cannot hide here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class Mismatch(Exception):
    """A result disagrees with what the theorem or the oracle says."""


class KnownDefect(Mismatch):
    """A wrong outcome that is recorded as a known defect of the library."""


def require(cond, reason: str) -> None:
    if not cond:
        raise Mismatch(reason)


def check_design(v: int, k: int, lam: int, blocks) -> None:
    """Blocks form a 2-(v, k, lam) design: b*k(k-1) = lam*v(v-1), no repeated
    point or block, and every pair of points lies in exactly lam blocks."""
    arr = np.asarray(blocks, dtype=np.int64)
    require(arr.ndim == 2 and arr.shape[1] == k, f"blocks are not all of size {k}")
    b = arr.shape[0]
    require(b * k * (k - 1) == lam * v * (v - 1),
            f"b*k(k-1) = {b * k * (k - 1)} but lambda*v(v-1) = {lam * v * (v - 1)}")
    require(arr.min() >= 0 and arr.max() < v, f"a point lies outside [0,{v})")
    s = np.sort(arr, axis=1)
    require(bool((np.diff(s, axis=1) > 0).all()), "a block repeats a point")
    require(len(np.unique(s, axis=0)) == b, "a block is repeated")
    i, j = np.triu_indices(k, 1)
    counts = np.bincount((s[:, i] * v + s[:, j]).ravel(), minlength=v * v).reshape(v, v)
    pairs = counts[np.triu_indices(v, 1)]
    bad = np.flatnonzero(pairs != lam)
    require(len(bad) == 0, f"{len(bad)} point pairs are not covered exactly {lam} times")


def cyclic_add(v: int) -> np.ndarray:
    """Addition table of Z_v."""
    idx = np.arange(v)
    return (idx[:, None] + idx[None, :]) % v


@lru_cache(maxsize=None)
def elementary_add(p: int, n: int) -> np.ndarray:
    """Addition table of (Z_p)^n with index sum(d_i * p^i), as GF(p^n) uses it."""
    q = p ** n
    weights = p ** np.arange(n)
    dig = (np.arange(q)[:, None] // weights) % p
    return ((dig[:, None, :] + dig[None, :, :]) % p) @ weights


def develop(blocks, add: np.ndarray) -> np.ndarray:
    """All right translates B + g of the distinct blocks, deduplicated."""
    base = np.unique(np.sort(np.asarray(blocks, dtype=np.int64), axis=1), axis=0)
    k = base.shape[1]
    translates = add[base].transpose(0, 2, 1).reshape(-1, k)  # row = B + g
    return np.unique(np.sort(translates, axis=1), axis=0)


def check_certificate(cert: dict, v: int, k: int, lam_prime: int | None = None) -> None:
    """A certificate's v and k, its lam*mu*nu = lam_prime identity, and the
    lam_prime the theorem promises (when it promises one)."""
    require((cert["v"], cert["k"]) == (v, k),
            f"certificate has (v, k) = ({cert['v']}, {cert['k']}), expected ({v}, {k})")
    require(cert["lambda"] * cert["mu"] * cert["nu"] == cert["lambda_prime"],
            "certificate lambda*mu*nu != lambda_prime")
    if lam_prime is not None:
        require(cert["lambda_prime"] == lam_prime,
                f"certificate lambda_prime = {cert['lambda_prime']}, expected {lam_prime}")
