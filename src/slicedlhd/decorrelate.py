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
Only the columns a pass wrote are restored (one stable argsort and one
scatter): the other one (p forward, 1 backward) holds its own values, and a
stable rank restore maps it to itself.

A pass reads only its own block's rows, so both sweeps hold each slice block
as one contiguous (column, row) array (the batch sweep one per replicate) and
sweep it to its own fixed point: once one iteration leaves a block unchanged,
every later one would too. They stop half an iteration sooner too. Write S_k = B(F(S_{k-1})), F the forward pass
and its restore, B the backward one. If F(S_{k-1}) equals the last
F(S_{k-2}), then S_k = B(F(S_{k-2})) = S_{k-1}: the fixed point, so S_{k-1}
is kept and B not run. A stopped block drops out while the others go on:
reduce_correlations repeats its last per-slice trace entry, which would
measure the same state, and pads the whole trace once no block is left.
Outputs and traces are bit-identical to running all iterations in full,
unless a slice column holds both 0.0 and -0.0: then the sign of a zero can
differ.

The two sweeps differ only in the dot kernel of the slopes: one 1-D BLAS dot
per response row in reduce_correlations (residualize's own call), a row-wise
einsum in the batch sweep. Their last bits can differ, and they decide the
rank of residuals that tie exactly, so the sweeps can then return different
designs. The benchmark hands the batch sweep one chunk of replicates at a
time, so the chunk bounds its memory. Every sum runs along a block row, as
for one replicate swept alone, so neither the chunk nor the stop moves a bit.
"""

from __future__ import annotations

import functools
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
    return _rms(m)


_upper = functools.cache(functools.partial(np.triu_indices, k=1))


def _rms(m: np.ndarray) -> float:
    """rms_correlation of a float64 (n, p) array, unchecked: np.corrcoef's
    own steps on the same layouts, so the same bits."""
    X = np.array(m).T
    X -= X.mean(axis=1)[:, None]
    c = np.dot(X, X.T.conj())
    c *= np.true_divide(1, X.shape[1] - 1)
    stddev = np.sqrt(np.diag(c))
    c /= stddev[:, None]
    c /= stddev[None, :]
    np.clip(c, -1, 1, out=c)
    return float(np.sqrt(np.mean(c[_upper(c.shape[0])] ** 2)))


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

    off = design.slice_offsets
    values = design.values.copy()
    blocks = [values[off[j] : off[j + 1]] for j in range(design.sizes.t)]
    whole_trace = [rms_correlation(values)]
    slice_traces = [[_block_rms(block)] for block in blocks]
    sweeps = {j: _slice_sweep(block) for j, block in enumerate(blocks) if block.shape[0] >= 2}
    for it in range(iterations):
        # A slice at its fixed point drops out and repeats its last trace
        # entry. Restores keep each column's multiset: no _rms check needed.
        sweeps = {j: sweep for j, sweep in sweeps.items() if next(sweep, False)}
        if not sweeps:
            pad = iterations - it
            whole_trace.extend([whole_trace[-1]] * pad)
            for row in slice_traces:
                row.extend([row[-1]] * pad)
            break
        whole_trace.append(_rms(values))
        for j, row in enumerate(slice_traces):
            row.append(_rms(blocks[j]) if j in sweeps else row[-1])

    trace = SweepTrace(
        whole=tuple(whole_trace),
        per_slice=tuple(tuple(s) for s in slice_traces),
    )
    return Design(values, design.sizes), trace


def _slice_sweep(block: np.ndarray):
    """Sweep the slice ``block`` (n_j, p), a view, in one contiguous (p, n_j)
    copy, one iteration a step: yields True after each iteration that moved
    it, ends at its fixed point. Rank restore puts back ``own``, the copy's
    sorted rows; the block holds the state as of the last iteration."""
    state = block.T.copy()
    p, n_j = state.shape
    own = np.sort(state, axis=1)
    offsets = np.arange(0, state.size, n_j)[:, None]  # flat start of each row
    half = None  # the forward state of the last iteration
    while True:
        _library_pass(state, own, offsets, p - 1, slice(0, p - 1))
        if half is not None and np.array_equal(state, half):
            # F(S_{k-1}) = F(S_{k-2}), so S_k = S_{k-1}: the fixed point,
            # found half an iteration early (see the module docstring).
            return
        half = state.copy()
        _library_pass(state, own, offsets, 0, slice(1, p))
        done = np.array_equal(state, block.T)
        block[...] = state.T
        if done:
            return
        yield True


def _library_pass(state, own, offsets, covariate: int, responses: slice) -> None:
    """Residualize the ``responses`` rows of ``state`` (p, n_j) on the
    ``covariate`` row, all read as the pass starts, and rank-restore them.
    residualize's arithmetic, its covariate terms computed once: add.reduce
    / n_j is np.mean's, and each slope one 1-D BLAS dot, which sets ties."""
    means = np.add.reduce(state, axis=1) / state.shape[1]
    cd = state[covariate] - means[covariate]
    den = float(cd @ cd)
    if den != 0.0:  # a constant covariate leaves the responses as they are
        for l in range(responses.start, responses.stop):
            slope = float(cd @ (state[l] - means[l])) / den
            state[l] -= slope * cd
    _rank_restore_rows(state, own[responses], offsets, responses)


def _sweep_batch(
    stacked: np.ndarray,
    blocks: list[tuple[slice, np.ndarray]],
    iterations: int = 10,
) -> np.ndarray:
    """Vectorized sweep over a batch of designs, in place.

    ``stacked`` has shape (R, n, p); ``blocks`` pairs each slice's row range
    with its sorted midpoint vector. Each block is swept on its own
    (_sweep_block): a few copies of it bound the temporaries.
    """
    if stacked.shape[2] >= 2:
        for rows, mids in blocks:
            if mids.size >= 2:
                _sweep_block(stacked[:, rows, :], mids, iterations)
    return stacked


def _sweep_block(dest: np.ndarray, mids: np.ndarray, iterations: int) -> None:
    """Sweep the block ``dest`` (m, n_j, p), a view, in one contiguous
    (m, p, n_j) copy: a replicate at its fixed point is written back and
    drops out."""
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
    state: np.ndarray, targets: np.ndarray, offsets: np.ndarray, columns: slice
) -> None:
    """Map each row of ``state`` (..., p, n_j) in ``columns`` onto the sorted
    ``targets`` by rank, ties by position: one stable argsort, one flat
    scatter. ``targets`` is one (n_j,) row, which put repeats along every
    row, or one row per restored row; ``offsets`` is each row's flat start."""
    order = np.argsort(state[..., columns, :], axis=-1, kind="stable")
    order += offsets[..., columns, :]
    np.put(state, order, targets)
