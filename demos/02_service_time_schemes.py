"""Service-time behavior of the four task distribution schemes.

The same update can be spread over the pool in different ways; what the
destination feels is the service time S until enough results are back.
This script tabulates E[S] for each scheme and confirms the analytic
moments against the samplers.  The single-level schemes sample the law of
their order statistic: one uniform per service time for the largest of n
(uncoded, and repetition's slowest group), n - k + 1 uniforms for MDS's
k-th of n near the top, where that is at most 8, and two gamma draws
below; MultiMDS at load 2 samples the exact law of the workers' queues,
drawing only the results near the k-th.
"""
import numpy as np
from numpy.random import Generator, PCG64

from coded_aoi import (
    MDS,
    MultiMDS,
    Repetition,
    SystemParams,
    Uncoded,
    sample_service_batch,
    service_moments,
)

p = SystemParams(arrival_rate=1.0, shift=1.0, straggling=1.0, nworkers=100)
rng = Generator(PCG64(2))

print(f"pool of {p.nworkers} workers, whole-task runtime ShiftedExp(1, 1)\n")
print(f"{'scheme':<22}{'E[S] analytic':>14}{'E[S] sampled':>14}")
for scheme in (Uncoded(), Repetition(50), MDS(50), MDS(69),
               MultiMDS(100, 2), MultiMDS(129, 2)):
    m = service_moments(scheme, p)
    x = sample_service_batch(scheme, p, rng, 50_000)
    print(f"{str(scheme):<22}{m.es:>14.5f}{x.mean():>14.5f}")

print("""
Waiting for all n workers (uncoded) pays for the slowest straggler; an
(n, k) code needs only the k fastest, and queuing several coded pieces
per worker (MultiMDS) also harvests partial progress from mid-pack
workers.  The trade-off in k: smaller k means fewer results to wait for
but a larger slice of work per worker.""")

# Repetition with k = n falls back to the uncoded scheme exactly.
assert service_moments(Repetition(100), p) == service_moments(Uncoded(), p)
# A multi-message code with load 1 is a plain MDS code.
assert service_moments(MultiMDS(42, 1), p) == service_moments(MDS(42), p)
print("edge cases hold: Repetition(n) == Uncoded, MultiMDS(load=1) == MDS")
