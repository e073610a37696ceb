"""Seeded request streams for the three benchmark workloads.

A stream is an endless sequence of rounds.  Every round of a workload holds
the same slots in the same proportions; the benchmark seed only draws the
parameters inside each slot (orders within a narrow band, levels, output
format, expression parameters, per-request verify seeds) and the order of
requests within the round.  That keeps throughput comparable across seeds
while the exact argv lists differ.

This module must not import the program: the program sees only the argv
lists generated here.
"""

from __future__ import annotations

import random

WORKLOADS = ("routes", "species", "laws")

# Wall seconds one round took before any optimisation (commit 405349840fc1,
# 2-vCPU Xeon VM); the traced run sizes its fixed number of rounds from these.
NOMINAL_ROUND_S = {"routes": 5.3, "species": 3.4, "laws": 5.4}


def _fmt(rng: random.Random) -> list[str]:
    return ["--format", rng.choice(("json", "csv"))]


def _routes_round(rng: random.Random) -> list[list[str]]:
    """Cross-route tables with --route all (the default).

    Level-1 Bernoulli numbers carry the 2^(n-1) composition formula, so
    their orders are pinned or drawn from narrow bands: one order step
    doubles the cost of that route.  Ten Euler tables, whose cost is flat
    over orders 20..24, hold the median.
    """
    out = []
    for order in (21, 20, 20, 19, rng.randint(16, 17), rng.randint(2, 12)):
        out.append(["bernoulli", "--order", str(order)] + _fmt(rng))
    for _ in range(2):
        out.append(["bernoulli", "--poly", "--order", str(rng.randint(10, 11))] + _fmt(rng))
    for low, high in ((10, 16),) * 5:
        level = str(rng.randint(2, 3))
        out.append(["bernoulli", "--N", level, "--order", str(rng.randint(low, high))] + _fmt(rng))
    for _ in range(2):
        level = str(rng.randint(2, 3))
        out.append(["bernoulli", "--N", level, "--poly", "--order", str(rng.randint(7, 10))] + _fmt(rng))
    for low, high, count in ((10, 14, 3), (20, 24, 10)):
        for _ in range(count):
            out.append(["euler", "--order", str(rng.randint(low, high))] + _fmt(rng))
    for _ in range(2):
        out.append(["euler", "--poly", "--order", str(rng.randint(9, 12))] + _fmt(rng))
    return out


BERNOULLI_EXPR = "geominv(pospart(d/dx1(Z)))"
UNIT_EXPR = "prod(Exp,geominv(pospart(Exp)))"
COMPOSE_EXPR = "compose(Exp2,pospart(Exp2),pospart(Exp2))"


def _egf(rng: random.Random, expr: str, low: int, high: int) -> list[str]:
    return ["egf", expr, "--order", str(rng.randint(low, high))] + _fmt(rng)


def _species_round(rng: random.Random) -> list[list[str]]:
    """The structural (species) route only, up to the geominv cap of 25.

    Sixteen one-sort geometric-inverse tables at orders 22..25 (closed-form
    egf expressions and Euler numbers) hold the median; two order-8
    two-sort compositions per round hold the tail.
    """
    species = ["--route", "species"]
    out = []
    for _ in range(4):
        out.append(_egf(rng, "had(Zpow(%d),Spow(%d))" % (rng.randint(1, 3), rng.randint(0, 2)), 15, 25))
    for verb in ("euler", "euler", "euler", "bernoulli", "bernoulli"):
        out.append([verb] + species + ["--order", str(rng.randint(10, 14))] + _fmt(rng))
    for _ in range(4):
        out.append(_egf(rng, UNIT_EXPR, 22, 25))
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        out.append(_egf(rng, "scaledrecip(%d,%d,pospart(Exp))" % (a, b), 22, 25))
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        out.append(_egf(rng, "binpow(%d,%d)" % (a, b), 22, 25))
        out.append(["euler"] + species + ["--order", str(rng.randint(22, 25))] + _fmt(rng))
    for level in ("1", "1", str(rng.randint(2, 3)), str(rng.randint(2, 3))):
        order = str(rng.randint(21, 25))
        out.append(["bernoulli"] + species + ["--N", level, "--order", order] + _fmt(rng))
    for _ in range(2):
        out.append(_egf(rng, BERNOULLI_EXPR, 21, 25))
        out.append(["euler"] + species + ["--poly", "--order", str(rng.randint(9, 12))] + _fmt(rng))
    out.append(["bernoulli"] + species + ["--poly", "--order", str(rng.randint(11, 12))] + _fmt(rng))
    level = str(rng.randint(2, 3))
    out.append(["bernoulli"] + species + ["--N", level, "--poly", "--order", str(rng.randint(10, 11))] + _fmt(rng))
    out.append(_egf(rng, COMPOSE_EXPR, 5, 6))
    for _ in range(2):
        out.append(_egf(rng, COMPOSE_EXPR, 8, 8))
    return out


def quotient_work(verify_seed: int, trials: int = 100) -> int:
    """Modelled cost of `verify --suite quotient --seed verify_seed`.

    The suite draws `trials` random permutation groups from its seed
    (degree 2..6, then 0..2 shuffled generators) and validates each one in
    time proportional to |G|^2 * degree.  Replaying those draws with the
    standard library prices a seed before it is sent; closure is computed
    here, independently of the program.  The model copies how the suite
    consumes its seed; should that change, the band turns into a random
    pick, and the spread of quotient latencies that run.py records in
    `detail.quotient_latency_s` widens.
    """
    rng = random.Random(verify_seed)
    work = 0
    for _ in range(trials):
        degree = rng.randint(2, 6)
        base = list(range(1, degree + 1))
        gens = []
        for _ in range(rng.randint(0, 2)):
            perm = base[:]
            rng.shuffle(perm)
            gens.append(tuple(perm))
        seen = {tuple(base)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    q = tuple(g[i - 1] for i in p)
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        work += len(seen) ** 2 * degree
    return work


# Accepted band of quotient_work: the middle of its distribution over seeds
# (median about 9.7e6).  Unfiltered, the cost of one quotient request varies
# sixfold between seeds, which no run length averages out.
QUOTIENT_WORK_BAND = (9_200_000, 10_200_000)


def _quotient_seed(rng: random.Random) -> int:
    low, high = QUOTIENT_WORK_BAND
    while True:
        seed = rng.randrange(1_000_000)
        if low <= quotient_work(seed) <= high:
            return seed


def _laws_round(rng: random.Random) -> list[list[str]]:
    """verify suites, each request with a fresh --seed.

    One quotient request per round: at about 3 s each, more per round would
    leave too few rounds in a run.  Eight valuation requests hold both the
    median and the tail; valuation costs spread out at their low end, so
    only two cheap requests sit below them and the median lands where they
    are dense.
    """
    suites = ["quotient"] + ["valuation"] * 8 + ["inverse", "factorial"]
    out = []
    for suite in suites:
        seed = _quotient_seed(rng) if suite == "quotient" else rng.randrange(1_000_000)
        out.append(["verify", "--suite", suite, "--order", "6", "--trials", "100", "--seed", str(seed)])
    return out


_ROUNDS = {"routes": _routes_round, "species": _species_round, "laws": _laws_round}


def rounds(workload: str, seed: int):
    """Endless rounds of argv lists; the same seed gives the same rounds."""
    make = _ROUNDS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    while True:
        batch = make(rng)
        rng.shuffle(batch)
        yield batch


def request_order(argv: list[str]) -> int:
    """The table order a request asks for (every generated argv names one)."""
    return int(argv[argv.index("--order") + 1])


def input_properties(requests: list[list[str]]) -> dict:
    """Highest order, share above n = 20, share repeating an earlier argv."""
    orders = [request_order(a) for a in requests]
    seen: set[tuple[str, ...]] = set()
    repeats = 0
    for argv in requests:
        key = tuple(argv)
        repeats += key in seen
        seen.add(key)
    n = len(requests)
    return {
        "requests": n,
        "max_order": max(orders),
        "share_order_above_20": sum(o > 20 for o in orders) / n,
        "share_repeated_argv": repeats / n,
    }
