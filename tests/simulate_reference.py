"""Reference full-stream walk: the round rule of ``simulate._cycles``.

``round_walk`` draws the same random stream as the library's walk and adds
each cycle's gaps one at a time in Python floats, so the library's output
must equal it bit for bit, whatever layout its scans take.
"""
import math

import numpy as np

from coded_aoi import sample_service_batch
from coded_aoi.simulate import _ROUND_GAPS, MAX_DROPS_PER_CYCLE


def round_walk(scheme, params, rng, cycles):
    """The round rule of the full-stream _cycles one gap at a time, in Python floats.

    Each round draws one matrix of gaps, whatever the slice size: w rows of
    one gap per waiting cycle, in the cycles' order.  Each cycle adds its w
    gaps in turn onto its wait.  A round that would draw fewer than
    _ROUND_GAPS gaps widens w to the longest remaining wait's arrival count
    plus four standard deviations and four, within that budget.
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
        if len(waiting) * w < _ROUND_GAPS:
            x = lam * rest.max()
            w = max(w, int(min(x + 4 * math.sqrt(x) + 5, MAX_DROPS_PER_CYCLE,
                               _ROUND_GAPS // len(waiting))))
        gaps = (-np.log1p(-rng.random((w, len(waiting)))) / lam).T.tolist()
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
