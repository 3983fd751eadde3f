"""Seeded input lists for the benchmark workloads.

Each workload is a list of inputs (plain dicts, so they travel to the
worker as JSON).  Seed 0 is the fixed grid of each workload; its outputs
are pinned in ``golden_seed0.json``.  Any other seed draws its twists
from wider ranges by stratified sampling: a range is cut into as many
strata as there are draws and one twist is drawn from each.  Every seed
then carries the same mix of cheap and expensive twists, so the run time
reflects the program and not the luck of the draw.  With plain uniform
draws the run time of ``d-box`` moves by about 25% between seeds (its
cost per pair varies 2x with the parity of the twists and their distance
from the centre of the range).

This module does not import locind: inputs are made before any program
code runs.
"""

from __future__ import annotations

import random

WORKLOADS = ("d-box", "a-line", "bc-gate")

# The default case of A, B and D on which the degree-0 oracle runs in
# bc-gate.  D uses window 4 (not its default 8) so that the torus-block
# path stays a small share of that workload.
_ORACLE_ITEMS = (("A", -2, None, 30), ("B", 0, 0, 30), ("D", (-2, -3), None, 4))


def _item(kind: str, family: str, lam, window: int | None,
          parity: int | None = None) -> dict:
    """One input; its id is the harness case id (``oracle:`` in front for
    an oracle input)."""
    text = ",".join(map(str, lam)) if isinstance(lam, tuple) else str(lam)
    case_id = f"{family}:{text}" + (f":p{parity}" if parity is not None else "")
    return {"kind": kind, "id": ("oracle:" if kind == "oracle" else "") + case_id,
            "family": family, "lambda": list(lam) if isinstance(lam, tuple) else lam,
            "parity": parity, "window": window,
            "fixture": family == "C" and lam == -1}


def _stratified(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """One integer from each of k equal strata of [lo, hi]."""
    n = hi - lo + 1
    return [lo + rng.randrange(i * n // k, (i + 1) * n // k) for i in range(k)]


def _d_pairs(rng: random.Random, lo: int = -6, hi: int = 2) -> list[tuple[int, int]]:
    """Eight pairs from [lo, hi]^2: for each parity class of the pair,
    one near the centre of the square and one far from it."""
    mid = (lo + hi) // 2
    square = [(a, b) for a in range(lo, hi + 1) for b in range(lo, hi + 1)]
    out = []
    for pa in (0, 1):
        for pb in (0, 1):
            cls = sorted((p for p in square if p[0] % 2 == pa and p[1] % 2 == pb),
                         key=lambda p: (abs(p[0] - mid) + abs(p[1] - mid), p))
            half = len(cls) // 2
            out += [rng.choice(cls[:half]), rng.choice(cls[half:])]
    return out


def inputs(workload: str, seed: int) -> list[dict]:
    """The input list of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "d-box":
        if seed == 0:
            return [_item("case", "D", p, 10) for p in ((-2, -3), (-4, -2))]
        return [_item("case", "D", p, 6) for p in _d_pairs(rng)]
    if workload == "a-line":
        lams = range(-2, -9, -1) if seed == 0 else _stratified(rng, -40, 40, 7)
        return [_item("case", "A", lam, 120) for lam in lams]
    if seed == 0:
        b = [(lam, p) for lam in (0, 1, 2) for p in (0, 1)]
        c = list(range(-60, 61))
    else:
        b = [(lam, rng.randrange(2)) for lam in _stratified(rng, -40, 40, 6)]
        c = _stratified(rng, -80, 80, 121)
    return ([_item("case", "B", lam, 120, parity=p) for lam, p in b]
            + [_item("case", "C", lam, None) for lam in c]
            + [{"kind": "selftest", "id": "selftest"}]
            + [_item("oracle", fam, lam, w, parity=p)
               for fam, lam, p, w in _ORACLE_ITEMS])
