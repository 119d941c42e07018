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
different (and not reproducible) matrices. So the sweep computes only the
surviving writes: forward, every column l < p against column p; backward,
every column l > 1 against column 1. Each is the very call the literal
loops make last, so reduce_correlations returns their result bit for bit.

Rank restoration preserves each slice column's multiset of values exactly,
so the sweep never damages the stratification guarantees of the input design.
Only the columns a pass wrote are restored (one stable argsort and one
scatter): the other one (p forward, 1 backward) holds its own values, and a
stable rank restore maps it to itself.

One loop (_sweep_block) and one pass (_residual_pass) serve both callers. A
pass reads only its own block's rows, so a block is one contiguous (column,
row) array per replicate: reduce_correlations sweeps each slice as a block of
one, the benchmark's batch sweep a chunk of replicates at a time, so the chunk
bounds its memory. Each replicate is swept to its own fixed point, and one
check after each pass finds it. Write S_k = B(F(S_{k-1})), F the forward pass
and its restore, B the backward one. If a pass's new output equals its own
previous one, the next output of the other pass does too, and so on: the
replicate is at its fixed point. After a backward pass that point is the new
S_k; after a forward pass it is S_{k-1}, since F(S_{k-1}) = F(S_{k-2}) gives
S_k = S_{k-1}, so B is not run. A stopped replicate drops out while the
others go on: reduce_correlations repeats a stopped slice's last trace entry,
which would measure the same state, and pads the whole trace once no slice
is left. Outputs and traces are bit-identical to running all iterations in
full, unless a slice column holds both 0.0 and -0.0: then the sign of a zero
can differ. Every sum runs along a block row, as for one replicate swept
alone, so neither the chunk nor the stop moves a bit.

The slope kernel is the only fork: one 1-D BLAS dot per response row in
reduce_correlations (_blas_slopes, residualize's own call), a row-wise einsum
in the batch sweep (_einsum_slopes). Their last bits can differ, and they
decide the rank of residuals that tie exactly, so the two callers can then
return different designs; each kernel keeps its own pinned outputs.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import Design, LevelPartition, _as_integer

__all__ = ["SweepTrace", "residualize", "rms_correlation", "reduce_correlations"]


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
    # Constant by equal entries: a mean of equal floats can round off them.
    if resp.size < 2 or (cov == cov[0]).all():
        return resp.copy()
    cd = cov - cov.mean()
    den = float(cd @ cd)
    if den == 0.0:  # the squares of entries this close underflow
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
    if not np.isfinite(m).all():
        raise ValueError("matrix values must be finite")
    if (m == m[0]).all(axis=0).any():
        raise ValueError("zero-variance column has undefined correlation")
    return _rms(m)


_upper = functools.cache(functools.partial(np.triu_indices, k=1))


def _rms(m: np.ndarray) -> float:
    """rms_correlation of a float64 (n, p) array, unchecked: np.corrcoef's
    own steps on the same layouts, so the same bits. Each np.mean is written
    as its own arithmetic, add.reduce / count, without its Python wrapper."""
    X = np.array(m).T
    X -= (np.add.reduce(X, axis=1) / X.shape[1])[:, None]
    c = np.dot(X, X.T.conj())
    c *= np.true_divide(1, X.shape[1] - 1)
    stddev = np.sqrt(c.diagonal())
    c /= stddev[:, None]
    c /= stddev[None, :]
    np.clip(c, -1, 1, out=c)
    upper = c[_upper(c.shape[0])] ** 2
    return float(np.sqrt(np.add.reduce(upper) / upper.size))


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
    if partition is not None and not isinstance(partition, LevelPartition):
        raise ValueError(f"partition must be a LevelPartition, got {partition!r}")
    if partition is not None and partition.sizes != design.sizes:
        raise ValueError("partition slice sizes do not match the design")

    values = design.values.copy()
    blocks = [values[rows] for rows in design.sizes.rows]
    # rms_correlation checks the design, then each slice, before any is swept.
    whole_trace = [rms_correlation(values)]
    # A slice too small to correlate has trace entries of 0.0, so every entry
    # stays within [0, 1]; each larger one is swept as a block of one,
    # restored onto its own sorted columns.
    slice_traces = [[rms_correlation(block) if len(block) > 1 else 0.0] for block in blocks]
    sweeps = {
        j: _sweep_block(block[None], np.sort(block.T, axis=1), iterations, _blas_slopes)
        for j, block in enumerate(blocks)
        if len(block) > 1
    }
    for _ in range(iterations):
        # A slice at its fixed point drops out and repeats its last trace
        # entry. Restores keep each column's multiset: no _rms check needed.
        for j, sweep in list(sweeps.items()):
            state = next(sweep, None)
            if state is None:
                del sweeps[j]
            else:
                blocks[j][...] = state[0].T
        whole_trace.append(_rms(values) if sweeps else whole_trace[-1])
        for j, row in enumerate(slice_traces):
            row.append(_rms(blocks[j]) if j in sweeps else row[-1])
    trace = SweepTrace(tuple(whole_trace), tuple(map(tuple, slice_traces)))
    return Design(values, design.sizes), trace


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
                # Exhausted without holding a yielded state, which would raise the peak.
                deque(_sweep_block(stacked[:, rows, :], mids, iterations, _einsum_slopes), 0)
    return stacked


def _sweep_block(dest: np.ndarray, targets: np.ndarray, iterations: int, slopes):
    """Sweep the block ``dest`` (m, n_j, p), a view, in contiguous (m, p, n_j)
    states, restoring onto ``targets`` (each row's sorted values, or one
    (n_j,) row for all). Yields the live replicates' state after each
    iteration that moved one; a replicate at its fixed point is written back
    to ``dest`` and drops out, and the rest are written back at the end."""
    # last[i] is pass i's last output, pass 0 the forward and 1 the backward
    # pass; NaN, equal to no value, and the input stand in for them at the
    # start. A spent state is dropped at once, never held under another name.
    last = [np.nan, dest.transpose(0, 2, 1).copy()]
    m, p, n_j = last[1].shape
    restored = np.empty((p, n_j))  # each row's sorted values
    restored[...] = targets
    # Flat start of each (replicate, column) row, for the rank-restore scatter.
    offsets = np.arange(0, last[1].size, n_j).reshape(m, p, 1)
    passes = ((p - 1, slice(0, p - 1), restored[:-1]), (0, slice(1, p), restored[1:]))
    live = np.arange(m)
    for _ in range(iterations):
        for i, step in enumerate(passes):
            # Pass i reads the other pass's output and takes the place of its
            # own previous one, which is popped, compared and dropped.
            last.insert(i, _residual_pass(last[i - 1], *step, offsets, slopes))
            moved = (last.pop(i + 1) != last[i]).any(axis=(1, 2))
            if np.count_nonzero(moved) < live.size:
                # A repeat is the fixed point, and last[1] holds it.
                dest[live[~moved]] = last[1][~moved].transpose(0, 2, 1)
                last, live = [state[moved] for state in last], live[moved]
                if live.size == 0:
                    return
        yield last[1]
    dest[live] = last[1].transpose(0, 2, 1)


def _residual_pass(state, covariate: int, responses: slice, targets, offsets, slopes):
    """``state`` (m, p, n_j) with its ``responses`` rows residualized on the
    ``covariate`` row, all read as the pass starts, and rank-restored onto
    ``targets``, their sorted values: a new array; ``state`` is left as it is.

    Each sum runs along one contiguous row, and add.reduce / n_j is
    np.mean's own arithmetic. ``slopes(centred, covariate, responses)``
    gives the (m, r) slopes; its dot kernel sets the order of exactly tied
    residuals, so neither may change."""
    out = state - np.add.reduce(state, axis=2, keepdims=True) / state.shape[2]
    slope = slopes(out, covariate, responses)
    # The responses' centred rows are spent: they take slope * cd, then the
    # residuals, while the covariate row takes its values back.
    rows = out[:, responses]
    np.multiply(slope[:, :, None], out[:, covariate, None], out=rows)
    np.subtract(state[:, responses], rows, out=rows)
    out[:, covariate] = state[:, covariate]
    # Rank restore, ties by position: one stable argsort, one flat scatter
    # (``offsets`` is each row's flat start), which repeats ``targets`` for
    # every replicate.
    order = rows.argsort(axis=-1, kind="stable")
    order += offsets[: len(out), responses]
    out.put(order, targets)
    return out


def _einsum_slopes(centred, covariate: int, responses: slice) -> np.ndarray:
    """Slopes by one row-wise einsum; 0 on a constant covariate."""
    # [i, k] = sum_j centred[i, k, j] * cd[i, j]; at k = covariate that is
    # the covariate's own sum of squares, the slopes' denominator.
    num = np.einsum("ikj,ij->ik", centred, centred[:, covariate, :])
    den = num[:, covariate, None]
    num = num[:, responses]
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _blas_slopes(centred, covariate: int, responses: slice) -> np.ndarray:
    """Slopes of an m = 1 block by residualize's own 1-D BLAS dots; 0 on a
    constant covariate."""
    cd = centred[0, covariate]
    den = float(cd @ cd)
    return np.array([[float(cd @ row) / den if den else 0.0 for row in centred[0, responses]]])
