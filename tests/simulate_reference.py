"""Reference full-stream walk: the round rule of ``simulate._cycles``.

``round_walk`` draws the same random stream as the library's walk and adds
each cycle's gaps one at a time in Python floats, so the library's output
must equal it bit for bit, whatever layout its scans take.
"""
import numpy as np

from coded_aoi import sample_service_batch
from coded_aoi.simulate import MAX_DROPS_PER_CYCLE


def round_walk(scheme, params, rng, cycles):
    """The round rule of the full-stream _cycles one gap at a time, in Python floats.

    Each round draws one (waiting cycles, w) matrix of gaps, whatever the
    slice size, and adds each row's gaps in turn onto the cycle's wait.
    """
    lam = params.arrival_rate
    s = sample_service_batch(scheme, params, rng, cycles + 1)
    # the inverse CDF on 1 - U, U in [0, 1), written out as in the event walk
    d_used = -np.log1p(-rng.random(cycles)) / lam
    z = [0.0] * cycles
    waiting = [(j, s[j], 0.0) for j in range(cycles)]
    dropped = 0
    while waiting:
        rest = np.array([need - waited for _, need, waited in waiting])
        w = 1 + int(min(lam * rest.mean(), MAX_DROPS_PER_CYCLE))
        gaps = (-np.log1p(-rng.random((len(waiting), w))) / lam).tolist()
        still = []
        for (j, need, t), row in zip(waiting, gaps):
            for early, gap in enumerate(row):
                t += gap
                if t >= need:
                    z[j] = t - need
                    dropped += early
                    break
            else:
                dropped += w
                still.append((j, need, t))
        waiting = still
    return s, d_used, np.array(z), cycles + 1 + dropped
