"""The Ascend tile recurrence as it ran before it became one loop.

:func:`pipeline_cycles_reference` is the simulator's recurrence plus its
steady-state extrapolation, and :func:`trace_reference` the pipeline
trace's instrumented copy of the same recurrence, each kept as it was
written when the two ran side by side.  ``test_pipeline_oracle.py``
holds :func:`repro.camodel.ascend_sim._pipeline_cycles` and
:func:`repro.camodel.trace._stage_stats` to them bit for bit, so a
faster recurrence has a fixed point to be measured against.
"""

from repro.camodel.ascend_sim import MAX_SIMULATED_TILES


def pipeline_cycles_reference(costs, n_tiles, trips_k, banks):
    """Total cycles of ``n_tiles`` tiles (see ``_pipeline_cycles``)."""
    durations = list(costs)
    num_stages = len(durations)
    simulate = min(n_tiles, MAX_SIMULATED_TILES)
    finish = [[0.0] * simulate for _ in range(num_stages)]
    for t in range(simulate):
        last_k = (t % trips_k) == trips_k - 1
        for s in range(num_stages):
            duration = durations[s]
            if s >= 4 and not last_k:  # vector / dma_out only on k-completion
                duration = 0.0
            start = finish[s - 1][t] if s > 0 else 0.0
            if t > 0:
                start = max(start, finish[s][t - 1])
            if s + 1 < num_stages:
                depth = banks[s]
                if t - depth >= 0:
                    start = max(start, finish[s + 1][t - depth])
            finish[s][t] = start + duration
    total = finish[-1][simulate - 1]
    if n_tiles > simulate:
        # steady-state extrapolation from the back half of the window
        half = simulate // 2
        rate = (finish[-1][simulate - 1] - finish[-1][half - 1]) / (simulate - half)
        total += (n_tiles - simulate) * rate
    return total


def trace_reference(costs, n_tiles, trips_k, banks):
    """``(window total, busy per stage, stall per stage)`` of the
    instrumented recurrence (see ``trace_layer``)."""
    durations = list(costs)
    num_stages = len(durations)
    simulate = min(n_tiles, MAX_SIMULATED_TILES)
    finish = [[0.0] * simulate for _ in range(num_stages)]
    busy = [0.0] * num_stages
    stalls = [0.0] * num_stages
    for t in range(simulate):
        last_k = (t % trips_k) == trips_k - 1
        for s in range(num_stages):
            duration = durations[s]
            if s >= 4 and not last_k:
                duration = 0.0
            earliest = finish[s - 1][t] if s > 0 else 0.0
            if t > 0:
                earliest = max(earliest, finish[s][t - 1])
            start = earliest
            if s + 1 < num_stages:
                depth = banks[s]
                if t - depth >= 0:
                    start = max(start, finish[s + 1][t - depth])
            stalls[s] += start - earliest
            busy[s] += duration
            finish[s][t] = start + duration
    total = finish[-1][simulate - 1]
    return total, busy, stalls
