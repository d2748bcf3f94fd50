"""Correctness checks on the outputs of the benchmark's workloads.

The checks compare the program's outputs with values computed apart from
`cogrelay.rates` -- the exhaustive slot-outcome oracle of
`tests/support.py` and the Geo/Geo/1 delay law written out below -- or
with properties the method must have.  Each check takes plain records
and returns a list of failure messages; an empty list means the outputs
passed.
"""

from __future__ import annotations

import math

from bench_setup import add_paths

add_paths()

from cogrelay.network import TrafficParams  # noqa: E402
from support import (delay_limited_secondary_ceiling,  # noqa: E402
                     oracle_user_rates)

COMPARE_FLOOR = 0.01    # the `compare` verb's own floor on the tolerance
SENSING_FLOOR = 0.005   # criterion 09's floor for the sensing-error bounds
REL_TOL = 1e-9          # float rounding between two evaluations of a formula


def oracle_quantities(outages, params, traffic: TrafficParams) -> dict:
    """Oracle values of every quantity the `compare` verb checks, keyed by
    the verb's quantity names.  User-queue quantities appear only when
    both user queues are stable."""
    mu_p, mu_s, lambda_pk, lambda_sk = oracle_user_rates(outages, params,
                                                         traffic)
    out = {"mu_p_saturated": mu_p}
    if traffic.lambda_p < mu_p and traffic.lambda_s < mu_s:
        out["mu_s"] = mu_s
        out["pi_p0"] = 1.0 - traffic.lambda_p / mu_p
        out["pi_s0"] = 1.0 - traffic.lambda_s / mu_s
        for k in range(outages.n_relays):
            out[f"lambda_p{k + 1}"] = lambda_pk[k]
            out[f"lambda_s{k + 1}"] = lambda_sk[k]
    return out


def check_compare(points) -> list[str]:
    """Each point is (label, oracle quantities, comparisons), a comparison
    being (quantity, simulated, ci_half_width).  Every oracle quantity must
    be compared, and every simulated value must lie within
    max(3 * CI, COMPARE_FLOOR) of the oracle."""
    failures = []
    for label, expected, comparisons in points:
        seen = set()
        for quantity, simulated, ci in comparisons:
            seen.add(quantity)
            if quantity not in expected:
                failures.append(f"{label}: unexpected quantity {quantity}")
                continue
            tol = max(3.0 * ci, COMPARE_FLOOR)
            gap = abs(simulated - expected[quantity])
            if not gap <= tol:
                failures.append(
                    f"{label}: {quantity} simulated {simulated:.6f} is "
                    f"{gap:.6f} from the oracle {expected[quantity]:.6f} "
                    f"(tolerance {tol:.6f})")
        for quantity in sorted(set(expected) - seen):
            failures.append(f"{label}: {quantity} was not compared")
    return failures


def _user_delay(lam, mu, lam_k, mu_k) -> float:
    """Geo/Geo/1 end-to-end delay of one user: its own queue plus each
    relay path weighted by the share of packets that take it."""
    if not lam < mu:
        return math.inf
    delay = (1.0 - lam) / (mu - lam)
    if lam == 0.0:
        return delay
    relayed = 0.0
    for l_k, m_k in zip(lam_k, mu_k):
        if l_k == 0.0:
            continue
        if not l_k < m_k:
            return math.inf
        relayed += l_k * (1.0 - l_k) / (m_k - l_k)
    return delay + relayed / lam


def oracle_rescore(outages, params, traffic: TrafficParams) -> dict:
    """mu_p, mu_s and both end-to-end delays of an operating point, from
    the oracle's rates and the Geo/Geo/1 delay law (inf when a queue on
    the user's path is unstable)."""
    mu_p, mu_s, lambda_pk, lambda_sk = oracle_user_rates(outages, params,
                                                         traffic)
    lam_p, lam_s = traffic.lambda_p, traffic.lambda_s
    if not (lam_p < mu_p and lam_s < mu_s):
        return {"mu_p": mu_p, "mu_s": mu_s, "d_p": math.inf,
                "d_s": math.inf}
    idle = params.omega * (1.0 - lam_p / mu_p) * (1.0 - lam_s / mu_s)
    mu_pk = idle * params.alpha * (1.0 - outages.relay_pd)
    mu_sk = idle * (1.0 - params.alpha) * (1.0 - outages.relay_sd)
    return {"mu_p": mu_p, "mu_s": mu_s,
            "d_p": _user_delay(lam_p, mu_p, lambda_pk, mu_pk),
            "d_s": _user_delay(lam_s, mu_s, lambda_sk, mu_sk)}


def check_optimize(points) -> list[str]:
    """Each point is a dict with label, outages, traffic, d_p_max, d_s_max,
    ceiling (the relaxation bound, or None), and the optimizer's feasible,
    best_mu_s, best_params and first_violation.

    A feasible best point must re-score as stable and within both delay
    ceilings, with the reported mu_s; best_mu_s may not exceed
    1 - lambda_p or the ceiling.  Where the ceiling is None, the result
    must be infeasible with first violation "delay"."""
    failures = []
    for p in points:
        label = p["label"]
        lam_p = p["traffic"].lambda_p
        if p["ceiling"] is None:
            if p["feasible"] or p["first_violation"] != "delay":
                failures.append(
                    f"{label}: no point meets the ceilings, but the result is "
                    f"feasible={p['feasible']} first_violation="
                    f"{p['first_violation']!r} (expected infeasible, 'delay')")
            continue
        if not p["feasible"]:
            continue
        best = p["best_mu_s"]
        cap = min(1.0 - lam_p, p["ceiling"])
        if best > cap * (1.0 + REL_TOL):
            failures.append(f"{label}: best_mu_s {best:.6f} exceeds the "
                            f"bound {cap:.6f}")
        got = oracle_rescore(p["outages"], p["best_params"], p["traffic"])
        if abs(got["mu_s"] - best) > REL_TOL * max(1.0, best):
            failures.append(f"{label}: best_mu_s {best:.9f} re-scores as "
                            f"{got['mu_s']:.9f}")
        for name, limit in (("d_p", p["d_p_max"]), ("d_s", p["d_s_max"])):
            if not got[name] <= limit * (1.0 + REL_TOL):
                failures.append(f"{label}: {name} re-scores as "
                                f"{got[name]:.6f} over its ceiling {limit:g}")
    return failures


def check_sensing_sim(points) -> list[str]:
    """Each point is a dict with label and, for q in (mu_p, mu_s), the
    simulated value `q`, its half-width `ci_q`, the backlogged-relay lower
    bound `lower_q` and the perfect-sensing oracle rate `upper_q`.  The
    simulated rate must lie between them within max(3 * CI,
    SENSING_FLOOR)."""
    failures = []
    for p in points:
        for q in ("mu_p", "mu_s"):
            slack = max(3.0 * p[f"ci_{q}"], SENSING_FLOOR)
            value = p[q]
            low, high = p[f"lower_{q}"], p[f"upper_{q}"]
            if not low - slack <= value <= high + slack:
                failures.append(
                    f"{p['label']}: simulated {q} {value:.6f} outside "
                    f"[{low:.6f}, {high:.6f}] by more than {slack:.6f}")
    return failures


def check_ladder(counts: dict, relaxed: dict, n_ceilings: int) -> list[str]:
    """`counts[(lambda_p, i, sensing)]` is the minimum relay count at the
    i-th ceiling pair (tight to loose), `relaxed[(lambda_p, i)]` the
    smallest relay count at which the relaxation bound admits a point.

    Looser ceilings may not need more relays, sensing errors may not need
    fewer, and no perfect-sensing count may be below the relaxed one."""
    failures = []
    for lam in sorted({key[0] for key in counts}):
        for sensing in (False, True):
            rungs = [counts[(lam, i, sensing)] for i in range(n_ceilings)]
            if any(b > a for a, b in zip(rungs, rungs[1:])):
                failures.append(f"lambda_p={lam} sensing={sensing}: counts "
                                f"{rungs} rise as the ceilings loosen")
        for i in range(n_ceilings):
            perfect = counts[(lam, i, False)]
            if counts[(lam, i, True)] < perfect:
                failures.append(f"lambda_p={lam} ceiling {i}: sensing errors "
                                f"need {counts[(lam, i, True)]} relays, "
                                f"fewer than {perfect} without")
            if perfect < relaxed[(lam, i)]:
                failures.append(f"lambda_p={lam} ceiling {i}: {perfect} "
                                f"relays, below the relaxation's "
                                f"{relaxed[(lam, i)]}")
    return failures


def relaxed_min_relays(network_at_n, traffic, d_p_max, d_s_max, strategy,
                       n_max: int) -> int:
    """Smallest n in 0..n_max at which the relaxation bound admits a point
    (n_max + 1 when none does); `network_at_n(n)` gives the n-relay
    network."""
    for n in range(n_max + 1):
        outages = network_at_n(n).outages(strategy)
        if delay_limited_secondary_ceiling(outages, traffic, d_p_max,
                                           d_s_max) is not None:
            return n
    return n_max + 1


def first_difference(reference, other) -> str | None:
    """Where two rounds' output digests differ, or None when they are
    identical: a fixed (input, seed) must give bit-identical output.
    Digests compare by repr, which is exact for floats and equates NaNs."""
    if len(reference) != len(other):
        return f"{len(other)} outputs instead of {len(reference)}"
    for a, b in zip(reference, other):
        if repr(a) != repr(b):
            return f"{b!r} instead of {a!r}"
    return None
