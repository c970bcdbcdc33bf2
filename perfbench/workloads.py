"""The benchmark's workloads.  Each one builds its inputs from a workload
seed, runs a body that calls ohmwalk's public functions, and checks the
body's outputs against answers recorded in expected.json (written by
record.py) and against oracles computed here.

verify         checks.run_suite(VERIFY_N_MAX) with its defaults.
exact_large_n  exact R(l), Kirchhoff index, FPT and MFPT at large n.
walk           a Monte Carlo calibration sweep through walks.simulate_fpt.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ohmwalk import checks, resistance, walks
from ohmwalk.circulant import complete_minus_opposite

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# run_suite(101), the ROADMAP's headline, takes ~70 s on a 2-vCPU Xeon VM:
# too long to repeat within a run.  61 is the smallest n_max whose suite
# still takes markov_fpt's float route (n > EXACT_SOLVE_LIMIT = 60) as
# well as its exact one, and spectral (check_foster) is still its largest
# share, in ~5 s.
VERIFY_N_MAX = 61

EXACT_SIZES = (3001, 10001)
EXACT_RANDOM_DISTANCES = 2
EXACT_REL_TOL = 1e-9
# workload seeds whose exact results have recorded digests
RECORDED_EXACT_SEEDS = range(64)
# prime for the residue oracle of the exact results
MODULUS = (1 << 61) - 1

# (n, l, trials, calls per repetition); 100k-trial calls mirror acceptance
# criterion 10, and (51, 25) adds walks of ~51 steps.  One call per case
# keeps a repetition at ~3.5 s, so a run repeats the body about ten times.
WALK_CASES = (
    (5, 2, 100_000, 1),
    (7, 1, 100_000, 1),
    (7, 3, 100_000, 1),
    (11, 2, 100_000, 1),
    (51, 25, 20_000, 1),
)
# simulation seeds a run draws from; expected.json holds the kernel sums
# of every (case, pool seed), so every workload seed is checked bit for bit
WALK_SEED_POOL = tuple(range(1000, 1016))


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], Any]
    body: Callable[[Any], Any]
    # (inputs, outputs, expected) -> (outputs checked, failure messages)
    check: Callable[[Any, Any, dict], tuple[int, list[str]]]


# --- verify -----------------------------------------------------------------

def build_verify(seed: int) -> int:
    # the suite's inputs are fixed by definition; the seed changes nothing
    return VERIFY_N_MAX


def run_verify(n_max: int) -> list:
    return checks.run_suite(n_max)


def check_verify(n_max: int, rows: list, expected: dict) -> tuple[int, list[str]]:
    failures = [f"row {r.name} n={r.n} failed: {r.detail or r.max_dev}" for r in rows if not r.passed]
    got = sorted([r.name, r.n] for r in rows)
    if got != sorted(expected["verify_rows"]):
        failures.append(f"row set differs from the recorded one ({len(got)} rows)")
    return len(rows) + 1, failures


# --- exact_large_n -----------------------------------------------------------

def build_exact(seed: int) -> list[tuple[int, tuple[int, ...], int]]:
    """Per size: distances (1, (n-1)/2 and seeded ones, some past n/2 so
    the fold R(l) = R(n-l) runs) and the distance for fpt_closed."""
    rng = random.Random(seed)
    plan = []
    for n in EXACT_SIZES:
        drawn = rng.sample(range(2, n - 1), EXACT_RANDOM_DISTANCES)
        dists = tuple(sorted({1, (n - 1) // 2, *drawn}))
        plan.append((n, dists, rng.choice(dists)))
    return plan


def run_exact(plan) -> dict[str, Fraction]:
    out = {}
    for n, dists, l_fpt in plan:
        for l in dists:
            out[f"R/{n}/{l}"] = resistance.two_point_resistance(n, l)
        out[f"K/{n}"] = resistance.total_effective_resistance(n)
        out[f"F/{n}/{l_fpt}"] = walks.fpt_closed(n, l_fpt)
        out[f"M/{n}"] = walks.mfpt_closed(n)
    return out


def exact_keys(plan) -> list[str]:
    keys = []
    for n, dists, l_fpt in plan:
        keys += [f"R/{n}/{l}" for l in dists]
        keys += [f"K/{n}", f"F/{n}/{l_fpt}", f"M/{n}"]
    return keys


def digest(x: Fraction) -> str:
    """Short hash of a reduced fraction; hex, since decimal conversion of
    numbers this long is quadratic and capped by the interpreter."""
    return hashlib.sha256(f"{x.numerator:x}/{x.denominator:x}".encode()).hexdigest()[:16]


def spectral_oracle(n: int) -> tuple[np.ndarray, float]:
    """R(l) for every distance l, and the Kirchhoff index, in floats from
    the circulant Laplacian's DFT spectrum; independent of ohmwalk:

        R(l) = (2/n) * (S - sum_k cos(2 pi k l / n) / lambda_k),
        S = sum_{k>0} 1/lambda_k,   Kirchhoff index = n * S.
    """
    row = np.zeros(n)
    jumps = np.arange(1, (n - 1) // 2)
    row[0] = 2 * len(jumps)
    row[jumps] = -1.0
    row[n - jumps] = -1.0
    lam = np.fft.fft(row).real
    inv = np.zeros(n)
    inv[1:] = 1.0 / lam[1:]
    s = inv.sum()
    return 2.0 / n * (s - np.fft.fft(inv).real), n * s


class Residues:
    """The closed forms modulo MODULUS, from the B/P recurrences run in
    modular arithmetic: an exact check of a result's numerator and
    denominator that costs O(n) small-integer steps."""

    def __init__(self, n: int):
        p = MODULUS
        m = n - 2
        bs, ps = [0, 1], [2, m]
        for _ in range(n - 1):
            bs.append((m * bs[-1] - bs[-2]) % p)
            ps.append((m * ps[-1] - ps[-2]) % p)
        d = n * (n - 4)
        inv_pn2 = pow(ps[n] + 2, -1, p)
        self.n, self.bs = n, bs
        self.ratio = d * bs[n] * inv_pn2 % p
        self.kirchhoff = n * (
            (ps[n] - (n - 2)) * pow(d, -1, p) - (bs[n] - n) * bs[n] * inv_pn2
        ) % p

    def resistance(self, l: int) -> int:
        l = min(l, self.n - l)
        return (self.bs[2 * l] - self.ratio * self.bs[l] ** 2) % MODULUS

    def of(self, quantity: str, l: int) -> int:
        n = self.n
        if quantity == "R":
            return self.resistance(l)
        if quantity == "F":
            return n * (n - 3) // 2 * self.resistance(l) % MODULUS
        if quantity == "K":
            return self.kirchhoff
        return (n - 3) * self.kirchhoff * pow(n, -1, MODULUS) % MODULUS


def residue(x: Fraction) -> int:
    return x.numerator * pow(x.denominator, -1, MODULUS) % MODULUS


def float_value(quantity: str, n: int, l: int, spectrum: tuple[np.ndarray, float]) -> float:
    r, kirchhoff = spectrum
    if quantity == "R":
        return float(r[l])
    if quantity == "F":
        return n * (n - 3) / 2 * float(r[l])
    if quantity == "K":
        return float(kirchhoff)
    return (n - 3) * float(kirchhoff) / n


def check_exact(plan, out: dict, expected: dict) -> tuple[int, list[str]]:
    digests = expected["exact_digests"]
    keys = exact_keys(plan)
    failures = []
    oracles = {n: (spectral_oracle(n), Residues(n)) for n, _, _ in plan}
    for key in keys:
        value = out.get(key)
        if not isinstance(value, Fraction):
            failures.append(f"{key}: missing or not a Fraction")
            continue
        quantity, n, *rest = key.split("/")
        n, l = int(n), int(rest[0]) if rest else 0
        spectrum, residues = oracles[n]
        problems = []
        if key in digests and digest(value) != digests[key]:
            problems.append("digest differs from the recorded one")
        if residue(value) != residues.of(quantity, l):
            problems.append("residue mod 2^61-1 differs from the closed form's")
        approx = float_value(quantity, n, l, spectrum)
        if abs(float(value) - approx) > EXACT_REL_TOL * abs(approx):
            problems.append(f"{float(value)!r} vs spectral oracle {approx!r}")
        if problems:
            failures.append(f"{key}: " + "; ".join(problems))
    return len(keys), failures


# --- walk --------------------------------------------------------------------

def build_walk(seed: int) -> list[tuple[int, int, int, int, int]]:
    """Calls (n, l, trials, sim seed, split).  One call runs as two
    trial_offset chunks, the first `split` trials and then the rest; each
    chunk keeps at least two trials so its stderr is finite."""
    rng = random.Random(seed)
    calls = [
        (n, l, trials, sim_seed, 0)
        for n, l, trials, count in WALK_CASES
        for sim_seed in rng.sample(WALK_SEED_POOL, count)
    ]
    i = rng.randrange(len(calls))
    n, l, trials, sim_seed, _ = calls[i]
    calls[i] = (n, l, trials, sim_seed, rng.randrange(2, trials - 1))
    return calls


def run_walk(calls) -> list[tuple]:
    graphs = {n: complete_minus_opposite(n) for n, *_ in calls}
    out = []
    for n, l, trials, sim_seed, split in calls:
        chunks = [(split, 0), (trials - split, split)] if split else [(trials, 0)]
        out.append(
            tuple(
                walks.simulate_fpt(graphs[n], 0, l, walks.WalkConfig(trials=t, seed=sim_seed), trial_offset=off)
                for t, off in chunks
            )
        )
    return out


def kernel_sums(est) -> tuple[int, int, int] | None:
    """(total, total_sq, truncated) behind an estimate.  Its mean and
    stderr are floats, but the sums are integers far below 2**53 here, so
    rounding recovers them exactly; None if they do not land on integers."""
    t = est.trials
    total = est.mean * t
    total_sq = (est.stderr**2 * t * t * (t - 1) + round(total) ** 2) / t
    if abs(total - round(total)) > 1e-3 or abs(total_sq - round(total_sq)) > 1e-2:
        return None
    return round(total), round(total_sq), est.truncated


def walk_key(n: int, l: int, trials: int, sim_seed: int) -> str:
    return f"{n},{l},{trials},{sim_seed}"


def check_walk(calls, out: list, expected: dict) -> tuple[int, list[str]]:
    known = expected["walk_sums"]
    failures = []
    for (n, l, trials, sim_seed, split), chunks in zip(calls, out):
        sums = [kernel_sums(est) for est in chunks]
        key = walk_key(n, l, trials, sim_seed)
        if None in sums:
            failures.append(f"{key}: mean/stderr do not come from integer sums")
            continue
        got = [sum(column) for column in zip(*sums)]
        if got != known[key]:
            what = "chunk sums" if split else "sums"
            failures.append(f"{key}: {what} {got} differ from the known answer {known[key]}")
    return len(calls), failures


WORKLOADS = {
    "verify": Workload(build_verify, run_verify, check_verify),
    "exact_large_n": Workload(build_exact, run_exact, check_exact),
    "walk": Workload(build_walk, run_walk, check_walk),
}
