"""Iterative residualize / rank-restore sweep that shrinks column correlations.

One iteration is four steps, applied slice block by slice block:

  1. forward pass: for k = 2..p, l = 1..k-1, replace column l of the block
     by its simple-linear-regression residual against column k;
  2. rank restore: map each column back onto the values it held in the
     input design, by rank (stable ties);
  3. backward pass: same as 1 with k = p-1..1, l = p..k+1;
  4. rank restore again.

Residualization within a pass reads BOTH the response and the covariate from
the block state as it was at the START of that pass. Writes do not chain:
when several k touch the same l inside one pass, the last write wins (k = p
in the forward pass, k = 1 in the backward pass). This stale-read behavior
is deliberate and pinned by golden tests; chaining the updates produces
different (and not reproducible) matrices. So both sweeps compute only the
surviving writes: forward, every column l < p against column p; backward,
every column l > 1 against column 1. Each is the very call the literal
loops make last, so reduce_correlations returns their result bit for bit.

Rank restoration preserves each slice column's multiset of values exactly,
so the sweep never damages the stratification guarantees of the input design.
Only the columns a pass wrote are restored: the other one (p forward, 1
backward) holds its own values, and a stable rank restore maps it to itself.

An iteration is a deterministic map of the design, so once one iteration
leaves a design unchanged, every later one would too. Both sweeps stop
there: reduce_correlations ends its loop and repeats the last trace entries.
They stop half an iteration sooner too. Write S_k = B(F(S_{k-1})), F the
forward pass and its restore, B the backward one. If F(S_{k-1}) equals the
last F(S_{k-2}), then S_k = B(F(S_{k-2})) = S_{k-1}: the fixed point, so
S_{k-1} is kept and B not run. Outputs and traces are bit-identical to
running all iterations in full, unless a slice column holds both 0.0 and
-0.0: then the sign of a zero can differ.

The batch sweep (the benchmark's) sweeps whatever replicates it is given;
the benchmark hands it one chunk at a time, and the chunk's size bounds
the sweep's memory. A pass reads only its own block's rows, so each block
is copied into a contiguous (replicate, column, row) array and swept there
to its own fixed point: a (replicate, block) pair that stops drops out
while the replicate's other blocks go on. Every sum runs along a block
row, in the same order as one replicate swept alone, so neither the batch
size nor the per-block stop changes a bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Design, LevelPartition, _as_integer

__all__ = [
    "SweepTrace",
    "residualize",
    "rms_correlation",
    "reduce_correlations",
]


def residualize(response, covariate) -> np.ndarray:
    """Residual of ``response`` regressed on ``covariate`` (mean kept).

    Returns response - slope * (covariate - mean(covariate)) with
    slope = cov(covariate, response) / var(covariate); the output's sample
    correlation with ``covariate`` is zero (within float error) whenever both
    standard deviations are positive. Degenerate inputs (length < 2 or a
    constant covariate) return the response unchanged.
    """
    resp = np.asarray(response, dtype=np.float64)
    cov = np.asarray(covariate, dtype=np.float64)
    if resp.shape != cov.shape or resp.ndim != 1:
        raise ValueError("response and covariate must be equal-length vectors")
    if resp.size < 2:
        return resp.copy()
    cd = cov - cov.mean()
    den = float(cd @ cd)
    if den == 0.0:
        return resp.copy()
    slope = float(cd @ (resp - resp.mean())) / den
    return resp - slope * cd


def rms_correlation(matrix) -> float:
    """Root mean square of all pairwise column correlations."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] < 2:
        raise ValueError("need a matrix with at least two columns")
    if m.shape[0] < 2:
        raise ValueError("need at least two rows to correlate")
    if np.any(m.std(axis=0) == 0.0):
        raise ValueError("zero-variance column has undefined correlation")
    corr = np.corrcoef(m, rowvar=False)
    iu = np.triu_indices(m.shape[1], k=1)
    return float(np.sqrt(np.mean(corr[iu] ** 2)))


def _block_rms(block: np.ndarray) -> float:
    # Per-slice trace entry; a block too small to correlate contributes 0.0
    # so trace entries stay within [0, 1].
    if block.shape[0] < 2:
        return 0.0
    return rms_correlation(block)


@dataclass(frozen=True)
class SweepTrace:
    """rho_rms history: index 0 is the initial state, then one per iteration."""

    whole: tuple[float, ...]
    per_slice: tuple[tuple[float, ...], ...]

    @property
    def iterations(self) -> int:
        return len(self.whole) - 1


def reduce_correlations(
    design: Design,
    partition: LevelPartition | None = None,
    iterations: int = 10,
) -> tuple[Design, SweepTrace]:
    """Run the four-step sweep ``iterations`` times; returns a new design.

    Rank restoration maps each slice column back onto its own sorted values,
    read from the input design, so any finite design can be swept: a sliced
    design keeps its partition groups, a stack of independent designs each
    block's own grid, and a jittered design its jittered values.

    ``partition`` is not used, as the design carries its own strata. It is
    still accepted, and must be for the design's slice sizes, so that calls
    written for the earlier signature keep working.
    """
    iterations = _as_integer("iterations", iterations)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if design.p < 2:
        raise ValueError("correlation reduction needs at least two columns")
    if design.n < 2:
        raise ValueError("correlation reduction needs at least two rows")
    if partition is not None and partition.sizes != design.sizes:
        raise ValueError("partition slice sizes do not match the design")
    if not np.isfinite(design.values).all():
        raise ValueError("design values must be finite")

    p = design.p
    off = design.slice_offsets
    t = design.sizes.t

    values = design.values.copy()
    blocks = [values[off[j] : off[j + 1], :] for j in range(t)]
    # Each slice column's own values, sorted, one contiguous row per column:
    # rank restore puts exactly these back.
    own = [block.T.copy() for block in blocks]
    for rows in own:
        rows.sort(axis=1)

    whole_trace = [rms_correlation(values)]
    slice_traces = [[_block_rms(blocks[j])] for j in range(t)]

    def sweep_pass(covariate: int, responses: range) -> None:
        # Only the surviving write of each response is computed (see the
        # module docstring). The covariate is never written and each
        # response once, so every read sees the block as the pass began.
        # Only the written columns are then restored: the others hold their
        # own sorted values, so their stable rank restore is the identity.
        for block, rows in zip(blocks, own):
            if block.shape[0] < 2:
                continue
            for l in responses:
                block[:, l] = residualize(block[:, l], block[:, covariate])
            order = np.argsort(block[:, responses.start : responses.stop], axis=0, kind="stable")
            for l, rank in zip(responses, order.T):
                block[rank, l] = rows[l]

    half = None  # the forward state of the last iteration
    for it in range(iterations):
        before = values.copy()
        sweep_pass(p - 1, range(p - 1))
        if half is not None and np.array_equal(values, half):
            # F(S_{k-1}) = F(S_{k-2}), so S_k = S_{k-1}: the fixed point,
            # found half an iteration early (see the module docstring).
            values[...] = before
        else:
            half = values.copy()
            sweep_pass(0, range(1, p))
        if np.array_equal(values, before):
            # Fixed point: every later iteration maps the design to itself,
            # so its trace entries repeat the last ones exactly.
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
    return Design(values, design.sizes), trace


def _sweep_batch(
    stacked: np.ndarray,
    blocks: list[tuple[slice, np.ndarray]],
    iterations: int = 10,
) -> np.ndarray:
    """Vectorized sweep over a batch of designs, in place.

    ``stacked`` has shape (R, n, p); ``blocks`` pairs each slice's row range
    with its sorted midpoint vector. Like reduce_correlations it computes
    only the surviving write per (pass, l) (see the module docstring), but
    its floats can differ from reduce_correlations' in the last bit
    (row-wise einsum here, a BLAS dot product in residualize). That decides
    the rank of residuals that tie exactly, so the two sweeps can then
    return different designs.

    A pass reads only its own block's rows, so each block is swept on its
    own, to its own fixed point (_sweep_block), in one call: a few copies of
    the block bound the temporaries, so the batch's size bounds them.
    """
    if stacked.shape[2] >= 2:
        for rows, mids in blocks:
            if mids.size >= 2:
                _sweep_block(stacked[:, rows, :], mids, iterations)
    return stacked


def _sweep_block(dest: np.ndarray, mids: np.ndarray, iterations: int) -> None:
    """Sweep the block ``dest`` (m, n_j, p), a view, to its fixed point.

    The block is copied once into a contiguous (m, p, n_j) array, replicate
    i's column l at [i, l]. A replicate whose forward state repeats the last
    iteration's, or that one iteration leaves unchanged, is at its fixed
    point: it is written back and drops out.
    """
    state = dest.transpose(0, 2, 1).copy()
    m, p, n_j = state.shape
    # Flat start of each (replicate, column) row, for the rank-restore scatter.
    offsets = np.arange(0, state.size, n_j).reshape(m, p, 1)
    live = np.arange(m)
    half = None  # the forward state of the last iteration, live rows only
    for _ in range(iterations):
        before = state.copy()
        _residual_pass(state, p - 1, slice(0, p - 1))
        _rank_restore_rows(state, mids, offsets[: live.size], slice(0, p - 1))
        if half is not None:
            # F(S_{k-1}) = F(S_{k-2}) means S_k = S_{k-1}: write S_{k-1} back.
            done = ~(state != half).reshape(live.size, -1).any(axis=1)
            if done.any():
                dest[live[done]] = before[done].transpose(0, 2, 1)
                state, before, live = state[~done], before[~done], live[~done]
                if live.size == 0:
                    return
        half = state.copy()
        _residual_pass(state, 0, slice(1, p))
        _rank_restore_rows(state, mids, offsets[: live.size], slice(1, p))
        done = ~(state != before).reshape(live.size, -1).any(axis=1)
        del before  # lowers the peak while the live set is compacted
        if done.any():
            dest[live[done]] = state[done].transpose(0, 2, 1)
            state, half, live = state[~done], half[~done], live[~done]
            if live.size == 0:
                return
    dest[live] = state.transpose(0, 2, 1)


def _residual_pass(state: np.ndarray, covariate: int, responses: slice) -> None:
    """Residualize the ``responses`` columns of ``state`` (m, p, n_j) on the
    ``covariate`` column, row by row, all read as the pass starts.

    Each sum runs along one contiguous row: add.reduce / n_j is np.mean's
    own arithmetic, and the einsum row reduction is the one whose last bits
    set the order of exactly tied residuals, so neither may change."""
    centred = state - np.add.reduce(state, axis=2, keepdims=True) / state.shape[2]
    cd = centred[:, covariate, :]
    # [i, k] = sum_j centred[i, k, j] * cd[i, j]; at k = covariate that is
    # the covariate's own sum of squares, the slopes' denominator.
    num = np.einsum("ikj,ij->ik", centred, cd)
    den = num[:, covariate, None]
    num = num[:, responses]
    slope = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    # The responses' centred rows are spent: reuse them for slope * cd.
    shift = np.multiply(slope[:, :, None], cd[:, None, :], out=centred[:, responses, :])
    state[:, responses, :] -= shift


def _rank_restore_rows(
    state: np.ndarray, mids: np.ndarray, offsets: np.ndarray, columns: slice
) -> None:
    """Map each (replicate, column) row of ``state`` in ``columns`` onto
    ``mids`` by rank, ties by position: one stable argsort, one flat scatter."""
    order = np.argsort(state[:, columns], axis=2, kind="stable")
    order += offsets[:, columns]
    np.put(state, order, mids)  # mids repeats along each row of order
