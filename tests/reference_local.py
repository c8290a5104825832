"""The key-at-a-time local mode both kernels ran until the asynchronous
path went columnar -- kept as the oracle.

``python_apply_local`` and ``numpy_apply_local`` are the bodies of
``PythonKernel._apply_local`` and ``NumpyKernel._apply_local`` as they
stood, moved here verbatim (``self`` became ``kernel``): fetch each key
of the batch at its turn, accumulate, apply ``F'`` along its out-edges
one edge at a time, push contributions for owned keys and hand foreign
ones to ``emit(dst, value, ops_so_far)``.  The kernels' set-at-a-time
local mode must leave the same state behind and return the ``emit`` log
as its payload (``tests/test_local_mode.py``).
"""

import numpy as np

from repro.runtime.base import BatchResult


def python_apply_local(kernel, keys, emit) -> BatchResult:
    plan = kernel.plan
    owned = kernel._owned
    counters = kernel.counters
    changed = 0
    magnitude = 0.0
    ops = 0
    edges_applied = 0
    for key in keys:
        tmp = kernel.fetch_and_reset(key)
        if tmp is None:
            continue
        did_change, delta_mag = kernel.accumulate(key, tmp)
        ops += 1
        if not did_change:
            continue
        changed += 1
        magnitude += delta_mag
        for dst, params, fn in plan.edges_from(key):
            value = fn(tmp, *params)
            ops += 1
            edges_applied += 1
            if owned is None or dst in owned:
                kernel.push(dst, value)
            elif emit is None:
                raise TypeError("foreign contribution without an emit callback")
            else:
                emit(dst, value, ops)
    counters.fprime_applications += edges_applied
    return BatchResult(changed=changed, magnitude=magnitude, ops=ops)


def numpy_apply_local(kernel, keys, emit) -> BatchResult:
    csr = kernel._csr
    key_names = kernel._keys
    owned = kernel._owned_mask
    counters = kernel.counters
    pend = kernel._pend
    pend_has = kernel._pend_has
    changed = 0
    magnitude = 0.0
    ops = 0
    edges_applied = 0
    for key in keys:
        i = kernel._index[key]
        if not pend_has[i]:
            continue
        pend_has[i] = False
        kernel._pend_live -= 1
        tmp = float(pend[i])
        did_change, delta_mag = kernel._accumulate_idx(i, tmp)
        ops += 1
        if not did_change:
            continue
        changed += 1
        magnitude += delta_mag
        start, end = int(csr.indptr[i]), int(csr.indptr[i + 1])
        if start == end:
            continue
        eids = np.arange(start, end, dtype=np.int64)
        dsts, vals = csr.apply_edges(eids, np.full(end - start, tmp))
        edges_applied += end - start
        for d, v in zip(dsts.tolist(), vals.tolist()):
            ops += 1
            if owned is None or owned[d]:
                kernel._push_idx(d, v)
            elif emit is None:
                raise TypeError("foreign contribution without an emit callback")
            else:
                emit(key_names[d], v, ops)
    counters.fprime_applications += edges_applied
    return BatchResult(changed=changed, magnitude=magnitude, ops=ops)
