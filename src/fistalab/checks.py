"""Named trace checks: the runtime assertions behind `fistalab run`.

Each check turns one inequality or identity satisfied by the solver
sequences into a pass/fail judgment with an explicit residual and, where a
convergence proxy is involved, its window and tolerance. Tolerances on
exact identities scale with max(1, magnitude of the participating terms)
so that genuine violations stand out from accumulated roundoff on long
runs. A non-finite residual or scale makes the reported value NaN, and a
check passes only on a finite value: nothing passes vacuously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .diagnostics import (
    inner_product_seq,
    momentum_identity_residual,
    orthonormal_span_basis,
    verdict,
    xi_difference,
)
from .problem import CompositeProblem, eval_F
from .solver import Trace, finite_only

__all__ = ["CheckResult", "ANALYSES", "run_analyses"]

IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    claim: str
    passed: bool
    residual_or_oscillation: Optional[float]
    window: Optional[int] = None
    tol: Optional[float] = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """Strict-JSON form: each non-finite float becomes null, tagged under "nonfinite"."""
        out = {
            "claim": self.claim,
            "pass": bool(self.passed),
            "residual_or_oscillation": self.residual_or_oscillation,
            "window": self.window,
            "tol": self.tol,
        }
        if self.details:
            out["details"] = self.details
        nonfinite = {}
        out = finite_only(out, nonfinite)
        if nonfinite:
            out["nonfinite"] = nonfinite
        return out


def _worst(residual, scale=1.0) -> float:
    """Largest residual / scale; NaN when any residual or scale is not finite."""
    residual, scale = np.broadcast_arrays(np.asarray(residual, dtype=float), scale)
    finite = np.isfinite(residual) & np.isfinite(scale)
    ratio = np.divide(residual, scale, out=np.full(residual.shape, np.nan), where=finite)
    return float(np.max(ratio))


def _verdict_result(claim: str, v) -> CheckResult:
    return CheckResult(
        claim=claim,
        passed=v.converged,
        residual_or_oscillation=v.tail_oscillation,
        window=v.window,
        tol=v.tol,
        details={"limit_estimate": v.limit_estimate},
    )


def _pair_directions(trace: Trace, directions=None) -> list:
    """The given probe directions, else s_i - s_j for every pair i < j of s_refs."""
    if directions is not None:
        return [np.asarray(d, dtype=float) for d in directions]
    refs = () if trace.s_refs is None else trace.s_refs
    return [refs[i] - refs[j] for i in range(len(refs)) for j in range(i + 1, len(refs))]


def _required_directions(trace: Trace, params: dict) -> list:
    directions = _pair_directions(trace, params.get("directions"))
    if not directions:
        raise ValueError("check needs explicit directions or at least two s_refs")
    return directions


# ---- identity checks --------------------------------------------------------


def structural_check(trace: Trace, problem, params, rng) -> list:
    """Rowwise residuals of the three identities tying x, y, z together."""
    tol = params.get("tol", IDENTITY_TOL)
    trace.require_vectors()
    t = trace.ts
    with np.errstate(over="ignore", invalid="ignore"):  # _worst turns inf/NaN into a failure
        norm_y = np.linalg.norm(trace.ys, axis=1)

        zdef_scale = np.maximum(1.0, np.abs(1.0 - t) * trace.norm_x + t * norm_y)
        zdef = _worst(trace.res_zdef, zdef_scale)

        recur_res = trace.z_recursion_residuals()[1:]
        recur_scale = np.maximum(
            1.0, t[:-1] * (trace.norm_x[:-1] + trace.norm_x[1:]) + trace.norm_x[:-1]
        )
        recur = _worst(recur_res, recur_scale)

        convex_scale = np.maximum(1.0, trace.norm_x[:-1] + trace.norm_z[1:])
        convex = _worst(trace.res_convex[1:], convex_scale)

    return [
        CheckResult("z-definition", zdef <= tol, zdef, tol=tol),
        CheckResult("z-recursion", recur <= tol, recur, tol=tol),
        CheckResult("convex-combination", convex <= tol, convex, tol=tol),
    ]


def momentum_identity_check(trace: Trace, problem, params, rng) -> list:
    """Scalar momentum identity along probe directions (linear in d)."""
    tol = params.get("tol", IDENTITY_TOL)
    count = params.get("count", 3)
    trace.require_vectors()
    dim = trace.xs.shape[1]
    directions = _pair_directions(trace)
    while len(directions) < count:
        directions.append(rng.standard_normal(dim))
    sup_x = np.max(trace.norm_x)
    out = []
    for i, d in enumerate(directions[:count]):
        with np.errstate(over="ignore", invalid="ignore"):  # _worst turns inf/NaN into a failure
            res = momentum_identity_residual(trace, d)
            worst = _worst(res, np.maximum(1.0, np.linalg.norm(d) * sup_x))
        out.append(CheckResult(f"momentum-identity[d{i}]", worst <= tol, worst, tol=tol))
    return out


# ---- inequality checks ------------------------------------------------------


def rate_bound_check(trace: Trace, problem: CompositeProblem, params, rng) -> list:
    """Objective gap against the accelerated 1/(k+1)^2 guarantee, k >= 1."""
    if trace.delta is None or problem.solution is None:
        raise ValueError("rate_bound needs a problem with known optimal value")
    trace.require_vectors()
    tol = params.get("tol", IDENTITY_TOL)
    k = np.arange(1, len(trace), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # _worst turns inf/NaN into a failure
        d0 = problem.solution.distance(trace.xs[0])
        slack = tol * np.maximum(1.0, trace.beta * trace.norm_x[0] ** 2)
        bound = 2.0 * trace.beta * d0**2 / (k + 1.0) ** 2 + slack
        excess = _worst(trace.delta[1:] - bound)
    return [
        CheckResult(
            "rate-bound",
            excess <= 0.0,
            excess,
            tol=tol,
            details={"per_s_surrogate": not problem.solution.exact_distance},
        )
    ]


def xi_monotone_check(trace: Trace, problem, params, rng) -> list:
    """Monotone decay, initial bound, and nonnegativity of each xi column."""
    if trace.xi is None:
        raise ValueError("xi_monotone needs xi columns (known optimal value and s_refs)")
    trace.require_vectors()
    out = []
    x0 = trace.xs[0]
    for j in range(trace.xi.shape[1]):
        col = trace.xi[1:, j]
        xi1 = float(col[0])
        step_tol = 1e-9 * max(1.0, xi1)
        max_inc = float(np.max(np.diff(col))) if col.size > 1 else 0.0
        out.append(
            CheckResult(f"xi-monotone[s{j}]", max_inc <= step_tol, max_inc, tol=step_tol)
        )
        start_bound = 0.5 * trace.beta * float(np.sum((x0 - trace.s_refs[j]) ** 2)) + 1e-9
        out.append(
            CheckResult(
                f"xi-initial-bound[s{j}]",
                xi1 <= start_bound,
                xi1 - start_bound,
                tol=1e-9,
                details={"xi1": xi1, "bound": start_bound},
            )
        )
        min_xi = float(np.min(col))
        out.append(CheckResult(f"xi-nonnegative[s{j}]", min_xi >= -1e-10, min_xi, tol=1e-10))
    return out


def sufficient_decrease_check(trace: Trace, problem: CompositeProblem, params, rng) -> list:
    """Per-step decrease inequality against random feasible probe points.

    Probes are generated through the prox map, which lands them in the
    domain of g. A probe that is not finite or has no finite objective
    value is skipped; with no usable probe left, or a NaN slack, the
    reported value is NaN and the check fails.
    """
    trace.require_vectors()
    n_probes = params.get("probes", 20)
    n_points = params.get("points", 100)
    tol = params.get("tol", IDENTITY_TOL)
    beta = trace.beta
    rows = len(trace)
    ks = np.unique(np.linspace(0, rows - 2, min(n_points, rows - 1)).astype(int))
    x_next = trace.xs[ks + 1]
    y_at = trace.ys[ks]
    F_next = trace.F_x[ks + 1]
    x0 = trace.xs[0]
    step = 1.0 / beta
    worst_per_probe = []
    with np.errstate(over="ignore", invalid="ignore"):  # unusable probes are skipped, NaN fails
        spread = max(1.0, float(np.linalg.norm(x0)))
        for _ in range(n_probes):
            probe = np.asarray(
                problem.g.prox(x0 + spread * rng.standard_normal(problem.dim), step), dtype=float
            )
            if not np.isfinite(probe).all():
                continue
            F_probe = eval_F(problem, probe)
            if not np.isfinite(F_probe):
                continue  # prox should land in dom g; stay safe regardless
            d_next = np.sum((probe - x_next) ** 2, axis=1)
            d_y = np.sum((probe - y_at) ** 2, axis=1)
            slack = F_probe - F_next - 0.5 * beta * (d_next - d_y)
            worst_per_probe.append(np.min(slack))
    worst = float(np.min(worst_per_probe)) if worst_per_probe else math.nan
    return [CheckResult("sufficient-decrease", worst >= -tol, worst, tol=tol)]


def gap_decay_check(trace: Trace, problem, params, rng) -> list:
    """Extrapolation gap bounded by (||z|| + ||x||) / t and decaying."""
    tol = params.get("tol", IDENTITY_TOL)
    with np.errstate(over="ignore", invalid="ignore"):  # _worst turns inf/NaN into a failure
        bound = (trace.norm_z + trace.norm_x) / trace.ts
        excess = _worst(trace.gap_xy - bound, np.maximum(1.0, bound))
    out = [CheckResult("gap-bound", excess <= tol, excess, tol=tol)]
    n = len(trace)
    if n >= 50:
        decile = n // 10
        first = float(np.max(trace.gap_xy[:decile]))
        last = float(np.max(trace.gap_xy[-decile:]))
        out.append(
            CheckResult(
                "gap-decay",
                last <= first,
                last - first,
                details={"first_decile_max": first, "last_decile_max": last},
            )
        )
    return out


def bounded_iterates_check(trace: Trace, problem, params, rng) -> list:
    """sup ||x_k|| within max(||x_0||, sup ||z_k||), the convex-combination bound."""
    sup_x = float(np.max(trace.norm_x))
    cap = max(float(trace.norm_x[0]), float(np.max(trace.norm_z))) + 1e-8
    excess = _worst(sup_x - cap)
    return [
        CheckResult(
            "bounded-iterates", excess <= 0.0, excess, details={"sup_x": sup_x, "cap": cap}
        )
    ]


# ---- convergence-proxy checks ----------------------------------------------


def cluster_products_check(trace: Trace, problem, params, rng) -> list:
    """Verdicts on <x_k, w1 - w2> for every pair of reference solutions."""
    window = params.get("window", 100)
    tol = params.get("tol", 1e-6)
    directions = _required_directions(trace, params)
    out = []
    for i, d in enumerate(directions):
        seq = inner_product_seq(trace, "x", d)
        out.append(_verdict_result(f"cluster-product[d{i}]", verdict(seq, window, tol)))
    return out


def xi_difference_check(trace: Trace, problem, params, rng) -> list:
    """Verdicts on xi(s_i) - xi(s_j); the gap terms cancel pairwise."""
    if trace.xi is None or trace.xi.shape[1] < 2:
        raise ValueError("xi_difference needs at least two xi columns")
    window = params.get("window", 100)
    rel_tol = params.get("tol", 1e-6)
    out = []
    m = trace.xi.shape[1]
    for i in range(m):
        for j in range(i + 1, m):
            seq = xi_difference(trace, i, j)
            tol = rel_tol * max(1.0, abs(float(trace.xi[1, i])), abs(float(trace.xi[1, j])))
            out.append(_verdict_result(f"xi-difference[s{i},s{j}]", verdict(seq, window, tol)))
    return out


def span_check(trace: Trace, problem, params, rng) -> list:
    """Projection onto span of probe directions: projector laws + verdicts."""
    trace.require_vectors()
    window = params.get("window", 100)
    tol = params.get("tol", 1e-6)
    basis = orthonormal_span_basis(_required_directions(trace, params))
    dim = basis.shape[1]
    proj = basis.T @ basis

    idem = 0.0
    adj = 0.0
    for _ in range(8):
        u = rng.standard_normal(dim)
        v = rng.standard_normal(dim)
        pu = proj @ u
        idem = max(idem, float(np.linalg.norm(proj @ pu - pu)))
        adj = max(adj, abs(float(pu @ v - u @ (proj @ v))))
    out = [
        CheckResult("span-idempotent", idem <= 1e-10, idem, tol=1e-10),
        CheckResult("span-self-adjoint", adj <= 1e-10, adj, tol=1e-10),
    ]
    for i, b in enumerate(basis):
        seq = inner_product_seq(trace, "x", b)
        out.append(_verdict_result(f"span-coefficient[{i}]", verdict(seq, window, tol)))
    return out


def final_point_check(trace: Trace, problem, params, rng) -> list:
    """Terminal iterate within tol of a configured target point."""
    if "target" not in params or "tol" not in params:
        raise ValueError("final_point needs 'target' and 'tol' parameters")
    trace.require_vectors()
    target = np.asarray(params["target"], dtype=float)
    dist = float(np.linalg.norm(trace.xs[-1] - target))
    return [
        CheckResult(
            "final-point",
            dist <= params["tol"],
            dist,
            tol=params["tol"],
            details={"final": trace.xs[-1].tolist(), "target": target.tolist()},
        )
    ]


ANALYSES: dict[str, Callable] = {
    "structural": structural_check,
    "momentum_identity": momentum_identity_check,
    "rate_bound": rate_bound_check,
    "xi_monotone": xi_monotone_check,
    "sufficient_decrease": sufficient_decrease_check,
    "gap_decay": gap_decay_check,
    "bounded_iterates": bounded_iterates_check,
    "cluster_products": cluster_products_check,
    "xi_difference": xi_difference_check,
    "span": span_check,
    "final_point": final_point_check,
}


def run_analyses(trace: Trace, problem: CompositeProblem, analyses, rng) -> list:
    """Run a list of named analyses (strings or {'name': ..., params} dicts)."""
    results = []
    for entry in analyses:
        if isinstance(entry, str):
            name, params = entry, {}
        else:
            params = dict(entry)
            name = params.pop("name")
        results.extend(ANALYSES[name](trace, problem, params, rng))
    return results
