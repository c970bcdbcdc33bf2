#!/usr/bin/env python3
"""Record the answers the output checks compare against, from the code in
src/, into expected.json:

* verify_rows: the (check, n) rows of run_suite(VERIFY_N_MAX);
* exact_digests: digests of every exact_large_n result that workload
  seeds RECORDED_EXACT_SEEDS produce;
* walk_sums: the kernel sums (total, total_sq, truncated) of every walk
  case for every seed in WALK_SEED_POOL.

Run it only at a commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/record.py
"""

import json

from ohmwalk import checks, resistance, walks
from ohmwalk.circulant import complete_minus_opposite

import workloads as w


def main() -> None:
    rows = checks.run_suite(w.VERIFY_N_MAX)
    assert all(r.passed for r in rows), "verify fails at this commit"

    keys = sorted({k for seed in w.RECORDED_EXACT_SEEDS for k in w.exact_keys(w.build_exact(seed))})
    routes = {
        "R": resistance.two_point_resistance,
        "K": resistance.total_effective_resistance,
        "F": walks.fpt_closed,
        "M": walks.mfpt_closed,
    }
    digests = {}
    for key in keys:
        quantity, *args = key.split("/")
        digests[key] = w.digest(routes[quantity](*map(int, args)))

    sums = {}
    for n, l, trials, _ in w.WALK_CASES:
        g = complete_minus_opposite(n)
        for seed in w.WALK_SEED_POOL:
            est = walks.simulate_fpt(g, 0, l, walks.WalkConfig(trials=trials, seed=seed))
            assert est.valid, (n, l, seed)
            sums[w.walk_key(n, l, trials, seed)] = list(w.kernel_sums(est))

    expected = {
        "verify_rows": [[r.name, r.n] for r in rows],
        "exact_digests": digests,
        "walk_sums": sums,
    }
    with open(w.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
