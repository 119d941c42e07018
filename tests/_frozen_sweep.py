"""Frozen copies of both correlation sweeps as they stood before the sweeps
restored only the columns a pass wrote, stopped at the half-iteration fixed
point and swept large blocks in slices. Every pass restores every column,
every iteration runs both passes, and a block is swept in one piece.

The oracles of the sweep-equality tests: the library and batch sweeps must
return these designs and traces bit for bit.
"""

import numpy as np

from slicedlhd import SweepTrace, residualize, rms_correlation


def _block_rms(block):
    return rms_correlation(block) if block.shape[0] > 1 else 0.0


def frozen_reduce_correlations(design, iterations=10):
    p = design.p
    slice_rows = design.sizes.rows
    t = design.sizes.t

    values = design.values.copy()
    blocks = [values[slice_rows[j], :] for j in range(t)]
    own = [block.T.copy() for block in blocks]
    for rows in own:
        rows.sort(axis=1)

    whole_trace = [rms_correlation(values)]
    slice_traces = [[_block_rms(blocks[j])] for j in range(t)]

    def residual_pass(covariate, responses):
        for block in blocks:
            if block.shape[0] < 2:
                continue
            for l in responses:
                block[:, l] = residualize(block[:, l], block[:, covariate])

    def restore_all():
        for block, rows in zip(blocks, own):
            order = np.argsort(block, axis=0, kind="stable")
            for l in range(p):
                block[order[:, l], l] = rows[l]

    for it in range(iterations):
        before = values.copy()
        residual_pass(p - 1, range(p - 1))
        restore_all()
        residual_pass(0, range(1, p))
        restore_all()
        if np.array_equal(values, before):
            pad = iterations - it
            whole_trace.extend([whole_trace[-1]] * pad)
            for row in slice_traces:
                row.extend([row[-1]] * pad)
            break
        whole_trace.append(rms_correlation(values))
        for j in range(t):
            slice_traces[j].append(_block_rms(blocks[j]))

    trace = SweepTrace(
        whole=tuple(whole_trace),
        per_slice=tuple(tuple(s) for s in slice_traces),
    )
    return values, trace


def frozen_sweep_batch(stacked, blocks, iterations=10):
    if stacked.shape[2] >= 2:
        for rows, mids in blocks:
            if mids.size >= 2:
                _sweep_block(stacked[:, rows, :], mids, iterations)
    return stacked


def _sweep_block(dest, mids, iterations):
    state = dest.transpose(0, 2, 1).copy()
    m, p, n_j = state.shape
    offsets = np.arange(0, state.size, n_j).reshape(m, p, 1)
    live = np.arange(m)
    for _ in range(iterations):
        before = state.copy()
        _residual_pass(state, p - 1, slice(0, p - 1))
        _rank_restore_rows(state, mids, offsets[: live.size])
        _residual_pass(state, 0, slice(1, p))
        _rank_restore_rows(state, mids, offsets[: live.size])
        moved = (state != before).reshape(live.size, -1).any(axis=1)
        del before
        if not moved.all():
            dest[live[~moved]] = state[~moved].transpose(0, 2, 1)
            state, live = state[moved], live[moved]
            if live.size == 0:
                return
    dest[live] = state.transpose(0, 2, 1)


def _residual_pass(state, covariate, responses):
    centred = state - np.add.reduce(state, axis=2, keepdims=True) / state.shape[2]
    cd = centred[:, covariate, :]
    num = np.einsum("ikj,ij->ik", centred, cd)
    den = num[:, covariate, None]
    num = num[:, responses]
    slope = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    shift = np.multiply(slope[:, :, None], cd[:, None, :], out=centred[:, responses, :])
    state[:, responses, :] -= shift


def _rank_restore_rows(state, mids, offsets):
    order = np.argsort(state, axis=2, kind="stable")
    order += offsets
    np.put(state, order, mids)
