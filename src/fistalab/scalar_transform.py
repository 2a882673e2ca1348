"""Averaging transform on scalar sequences and its limit-transfer machinery.

For a weight sequence phi_k, the forward transform of (h_k) is

    g_k = h_{k+1} + phi_k (h_{k+1} - h_k).

It takes any real phi (FISTA's momentum identity is this transform with
phi_k = t_k - 1, 0 at k = 0 and on PGM). The inverse needs phi > 0: with
lambda_k = phi_k / (1 + phi_k), the transform inverts to the recursion
h_{k+1} = (1 - lambda_k) g_k + lambda_k h_k, whose unrolled closed form is

    h_n = sum_{k<n} w_{n,k} g_k + h_0 prod_{j<n} lambda_j,
    w_{n,k} = (1 - lambda_k) prod_{j=k+1}^{n-1} lambda_j,

with weights that telescope to 1 - prod lambda_j. When sum 1/phi_k
diverges, the weights behave like an averaging kernel and (h_k) inherits
any limit of (g_k), finite or infinite; when the sum converges the
transfer can fail. The bundled scenarios exercise both regimes.

The inverse side checks phi > 0 and forms lambda in one place,
``_phi_lambdas``. Long products of lambda_j underflow well before 10^6
terms, so :func:`divergence_witness` keeps their logarithm, next to the
running sums of 1/phi_k and 1/(1+phi_k) = 1 - lambda_k.

Sequences are given by index-array callables: ``phi``, ``h_closed`` and
``g_closed`` map an integer array of absolute indices k to a float array
of the same shape. The library functions call them once on
``np.arange(start, start + count)``; a :class:`Scenario` calls them once
per block of ``_RECURSION_CHUNK`` absolute indices (h_closed on the block
and one index past it), in order, and builds its full-length sequences
from those blocks. The indices arrive as ``int64``,
whose arithmetic wraps silently (``k ** 4`` overflows past k ~ 55108), so
a formula converts to float before any power or product, as the bundled
``np.float64(k) ** 2`` does. A callable that fails on an array or
returns another shape is a ``ValueError`` naming the argument; ``phi``
may also be given as an array of values. The bundled scenarios are
written as array expressions whose bits equal the scalar formulas they
stand for (``np.where(k % 2, -1.0, 1.0) / k`` for ``(-1)^k / k``).

:func:`reconstruct` keeps the sequential recursion, which rounds like the
textbook loop and cannot underflow the way a product of lambdas does. It
computes ``(1 - lambda_k) g_k`` as one array and runs the recursion on
Python floats, converting ``_RECURSION_CHUNK`` terms at a time with
``tolist`` so that the float objects of a long sequence never exist all
at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "forward_transform",
    "reconstruct",
    "transform_weights",
    "weighted_reconstruction",
    "DivergenceWitness",
    "divergence_witness",
    "Scenario",
    "SCENARIO_NAMES",
    "get_scenario",
]

_RECURSION_CHUNK = 16384


def _on_indices(fn, name: str, start: int, count: int) -> np.ndarray:
    """One call of ``fn`` on the absolute indices start..start+count-1."""
    ks = np.arange(start, start + count)
    try:
        vals = np.asarray(fn(ks), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"{name} failed on an index array ({exc}); "
            "sequence callables map an integer array k to a float array"
        ) from exc
    if vals.shape != ks.shape:
        raise ValueError(f"{name} returned shape {vals.shape} for indices of shape {ks.shape}")
    return vals


def _phi_values(phi, start: int, count: int) -> np.ndarray:
    """Evaluate phi on absolute indices start..start+count-1."""
    if callable(phi):
        return _on_indices(phi, "phi", start, count)
    vals = np.asarray(phi, dtype=float)[:count]
    if vals.size != count:
        raise ValueError(f"need {count} phi values, got {vals.size}")
    return vals


def _phi_lambdas(phi, start: int, count: int) -> tuple:
    """phi as :func:`_phi_values` gives it, checked positive (the inverse side needs it),
    and lambda = phi / (1 + phi)."""
    phis = _phi_values(phi, start, count)
    if np.any(~(phis > 0)):
        bad = int(np.argmax(~(phis > 0)))
        raise ValueError(f"phi must be positive; offending index {start + bad}")
    return phis, phis / (1.0 + phis)


def _inverse_inputs(g, phi, start: int) -> tuple:
    """g as a finite float array and the lambdas of its len(g) weights."""
    gg = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(gg)):
        raise ValueError("g must be finite-valued")
    return gg, _phi_lambdas(phi, start, gg.size)[1]


def _weights(lams: np.ndarray) -> np.ndarray:
    """w_{n,k} = (1 - lambda_k) prod_{j=k+1}^{n-1} lambda_j for n = len(lams)."""
    suffix = np.ones(lams.size)  # empty product = 1
    if lams.size > 1:
        suffix[:-1] = np.cumprod(lams[:0:-1])[::-1]
    return (1.0 - lams) * suffix


def forward_transform(h, phi, start: int = 0) -> np.ndarray:
    """g_k = h_{k+1} + phi_k (h_{k+1} - h_k) for any real phi; one entry shorter than h."""
    hh = np.asarray(h, dtype=float)
    if hh.size < 2:
        raise ValueError("need at least two h values")
    phis = _phi_values(phi, start, hh.size - 1)
    return hh[1:] + phis * (hh[1:] - hh[:-1])


def reconstruct(g, phi, h_seed: float, start: int = 0) -> np.ndarray:
    """Invert the transform by its recursion; returns h of length len(g) + 1.

    ``h_seed`` is the leading value h_{start}; entry i of the result is
    h_{start + i}.
    """
    gg, lams = _inverse_inputs(g, phi, start)
    drive = (1.0 - lams) * gg
    h = np.empty(gg.size + 1)
    h[0] = h_seed
    prev = float(h[0])
    for lo in range(0, gg.size, _RECURSION_CHUNK):
        terms = drive[lo : lo + _RECURSION_CHUNK].tolist()
        weights = lams[lo : lo + _RECURSION_CHUNK].tolist()
        for i, lam in enumerate(weights):
            prev = terms[i] + lam * prev
            terms[i] = prev
        h[lo + 1 : lo + 1 + len(terms)] = terms
    return h


def transform_weights(phi, n: int, start: int = 0) -> np.ndarray:
    """The n mixing weights w_{n,k}, k = 0..n-1 (positional, offset by start).

    All weights are positive and sum to 1 - prod_{j<n} lambda_j.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _weights(_phi_lambdas(phi, start, n)[1])


def weighted_reconstruction(g, phi, h_seed: float, start: int = 0) -> np.ndarray:
    """Invert the transform by the closed weighted form, entry by entry.

    Independent of :func:`reconstruct` (explicit weights and a dot product
    per entry, quadratic total cost); the two must agree to roundoff.
    """
    gg, lams = _inverse_inputs(g, phi, start)
    h = np.empty(gg.size + 1)
    h[0] = h_seed
    for n in range(1, gg.size + 1):
        h[n] = float(_weights(lams[:n]) @ gg[:n]) + h_seed * float(np.prod(lams[:n]))
    return h


@dataclass(frozen=True, eq=False)
class DivergenceWitness:
    """Partial-sum evidence about the weight sequence up to a horizon.

    ``inv_phi`` and ``inv_one_plus_phi`` hold the running sums of 1/phi_k
    and 1/(1+phi_k) = 1 - lambda_k over the first ``count`` indices.
    ``chain_ok`` records the pointwise chain 1/(1+phi) >= min(1, 1/phi)/2,
    which links divergence of sum 1/phi to divergence of sum (1 - lambda);
    ``log_weight_product`` is sum log(lambda_k), finite even when the plain
    product underflows.
    """

    inv_phi: np.ndarray
    inv_one_plus_phi: np.ndarray
    chain_ok: bool
    log_weight_product: float


def divergence_witness(phi, count: int, start: int = 0) -> DivergenceWitness:
    """Accumulate the divergence evidence for the first ``count`` weights."""
    if count < 1:
        raise ValueError("count must be >= 1")
    phis, lams = _phi_lambdas(phi, start, count)
    # Every full-length array is allocated by this call and reused in place
    # (phis may be the caller's), so the two running sums are the only
    # arrays that outlive it.
    inv = 1.0 / phis
    inv_one_plus = np.add(1.0, phis)
    del phis
    np.divide(1.0, inv_one_plus, out=inv_one_plus)
    half_min1 = np.minimum(1.0, inv)
    half_min1 *= 0.5
    half_min1 -= 1e-15
    chain_ok = bool(np.all(inv_one_plus >= half_min1))
    del half_min1
    log_weight_product = float(np.sum(np.log(lams, out=lams)))
    del lams
    np.cumsum(inv, out=inv)
    np.cumsum(inv_one_plus, out=inv_one_plus)
    return DivergenceWitness(
        inv_phi=inv,
        inv_one_plus_phi=inv_one_plus,
        chain_ok=chain_ok,
        log_weight_product=log_weight_product,
    )


@dataclass(frozen=True, eq=False)
class Scenario:
    """A (phi, h or g) pair with a known limit, for exercising the transform.

    ``h_closed``/``g_closed`` give whichever sequence has an explicit
    formula, as index-array callables like ``phi``; the other side is
    derived by the transform or its inverse (``h_seed`` seeds the
    reconstruction when only g is explicit).
    ``expected_limit`` may be +-inf, in which case only hurdle exceedance
    is checkable at a finite horizon.
    """

    name: str
    start: int
    phi: Callable[[np.ndarray], np.ndarray]
    expected_limit: float
    provenance: str
    h_closed: Optional[Callable[[np.ndarray], np.ndarray]] = None
    g_closed: Optional[Callable[[np.ndarray], np.ndarray]] = None
    h_seed: Optional[float] = None

    def blocks(self, count: int):
        """(lo, phi, h, g) on each block of ``_RECURSION_CHUNK`` of the count indices from start.

        phi is evaluated once per block. With ``h_closed``, h is evaluated
        on the block and one index past it, and g is its forward transform;
        with ``g_closed``, h is :func:`reconstruct` of the block's g from the
        last h of the block before (``h_seed`` first). Entry i of a block's
        sequences is index start + lo + i.
        """
        h_next = self.h_seed
        for lo in range(0, count, _RECURSION_CHUNK):
            n = min(_RECURSION_CHUNK, count - lo)
            phis = _phi_values(self.phi, self.start + lo, n)
            if self.h_closed is not None:
                h = _on_indices(self.h_closed, "h_closed", self.start + lo, n + 1)
                yield lo, phis, h[:-1], forward_transform(h, phis)
            else:
                g = _on_indices(self.g_closed, "g_closed", self.start + lo, n)
                h = reconstruct(g[: count - 1 - lo], phis, h_next, start=self.start + lo)  # to index count - 1
                h_next = h[-1]
                yield lo, phis, h[:n], g

    def _fill(self, count: int, which: int) -> np.ndarray:
        if count < 1:
            raise ValueError("count must be >= 1")
        out = np.empty(count)
        for lo, *sequences in self.blocks(count):
            out[lo : lo + _RECURSION_CHUNK] = sequences[which]
        return out

    def h_values(self, count: int) -> np.ndarray:
        """h over absolute indices start..start+count-1, filled from :meth:`blocks`."""
        return self._fill(count, 1)

    def g_values(self, count: int) -> np.ndarray:
        """g over absolute indices start..start+count-1, filled from :meth:`blocks`."""
        return self._fill(count, 2)


def _ex42(ell: float) -> Scenario:
    return Scenario(
        name="ex42",
        start=1,
        phi=np.float64,
        expected_limit=ell,
        provenance="alternating 1/k perturbation of the limit; the transform "
        "oscillates with amplitude 2 while h still settles",
        h_closed=lambda k: ell + np.where(k % 2, -1.0, 1.0) / k,
    )


def _ex43(ell: float) -> Scenario:
    return Scenario(
        name="ex43",
        start=1,
        phi=np.float64,
        expected_limit=ell,
        provenance="alternating 1/sqrt(k) perturbation; the transform is unbounded",
        h_closed=lambda k: ell + np.where(k % 2, -1.0, 1.0) / np.sqrt(k),
    )


# scenarios whose limit is their own, not a free ell
_FIXED_LIMIT = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="ex44-sinh",
            start=1,
            phi=lambda k: np.float64(k) ** 2,
            expected_limit=math.pi / math.sinh(math.pi),
            provenance="h is the partial product of j^2/(1+j^2), whose limit is the "
            "reciprocal of the classical Euler product for sinh(pi)/pi; g is "
            "identically 0, so limit transfer fails when sum 1/phi converges",
            g_closed=lambda k: np.zeros(k.shape),
            h_seed=1.0,
        ),
        Scenario(
            name="linf-plus",
            start=1,
            phi=np.float64,
            expected_limit=math.inf,
            provenance="g_k = k grows without bound and the averaged h follows, "
            "clearing any fixed hurdle",
            g_closed=np.float64,
            h_seed=0.0,
        ),
        Scenario(
            name="linf-minus",
            start=1,
            phi=np.float64,
            expected_limit=-math.inf,
            provenance="negation of the unbounded-growth scenario",
            g_closed=lambda k: -np.float64(k),
            h_seed=0.0,
        ),
    )
}
_FREE_LIMIT = {"ex42": _ex42, "ex43": _ex43}

SCENARIO_NAMES = tuple(sorted([*_FIXED_LIMIT, *_FREE_LIMIT]))


def get_scenario(name: str, ell: float = 1.0) -> Scenario:
    """Look up a bundled scenario; ``ell`` sets the limit of ``ex42`` and ``ex43``.

    The other scenarios have a limit of their own, so for them any ``ell``
    but 1.0 is a ``ValueError``.
    """
    if name in _FREE_LIMIT:
        return _FREE_LIMIT[name](ell)
    if name not in _FIXED_LIMIT:
        raise KeyError(f"unknown scenario {name!r}; known: {list(SCENARIO_NAMES)}")
    if ell != 1.0:
        raise ValueError(f"scenario {name!r} has a fixed limit; ell must be 1.0, got {ell!r}")
    return _FIXED_LIMIT[name]
