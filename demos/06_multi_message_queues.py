"""Multi-message codes: queueing several coded pieces per worker.

With a queue of `load` coded subtasks per worker, fast workers deliver
several results per update while stragglers deliver none.  The number
finished at each queue position ("level") follows a chain of balance
equations; solving it gives the service time and lets the optimizer pick
the code size for each load.
"""
from coded_aoi import (
    MultiMDS,
    SystemParams,
    level_counts,
    opt_mm_mds,
    run,
    service_moments,
    solve_levels,
)

# The level split in a small concrete case: 10 workers, queue of 3, and a
# code that needs 7 results in a low-straggling regime.  The integer split
# starts at k1 = round(alpha_1 * n), the count the age uses, and spreads the
# rest of k over the deeper levels.
alphas = solve_levels(3, 7 / 30, 0.01)
print("7 results from 10 workers with 3 queued pieces each (mild straggling):")
print("  level fractions:", [f"{a:.4f}" for a in alphas])
print("  integer split:  ", level_counts(alphas, 10, 7),
      " (fastest worker finishes 3, next 2, ...)")

# More load, lower optimized age: here straggling is slow compared to the
# deterministic part, so extra queue depth pays off steadily.
p = SystemParams(arrival_rate=1.0, shift=1.0, straggling=0.01, nworkers=100)
print("\noptimized age by load (100 workers, straggling rate 0.01):")
for load in range(1, 6):
    r = opt_mm_mds(p, load)
    print(f"  load {load}: k* = {r.k_star:>3}  age {r.delta_star:.5f}  levels {r.levels}")

# The analytic service time treats the first level as the whole story,
# which is exact in the large-pool limit; the sampler plays out the real
# finite-pool multiset race and lands close by n = 1000.
p1k = SystemParams(1.0, 1.0, 0.1, 1000)
scheme = MultiMDS(600, 2)
m = service_moments(scheme, p1k)
rep = run(scheme, p1k, 50_000, seed=7)
gap = abs(rep.empirical_es - m.es) / m.es
print(f"\nfinite-pool check at n=1000: analytic E[S] {m.es:.6f}, "
      f"sampled {rep.empirical_es:.6f} ({gap * 100:.2f}% apart)")
