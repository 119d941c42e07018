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
Only the columns a pass wrote are restored (one sort and one scatter): the
other one (p forward, 1 backward) holds its own values, and a stable rank
restore maps it to itself. The sort is stable by result, not always by
algorithm: long rows in large calls take numpy's default sort, and only the
rows with an equal pair are sorted again, stably (_tie_checked_order).

One loop (_sweep_block) and one pass (_residual_pass) serve every caller.
reduce_correlations calls the loop one iteration a call on each slice still
moving, each call from a fresh copy of the slice, and measures the trace
between calls. _sweep_batch calls it once a
block for all the iterations and measures nothing: the benchmark's batch
sweep runs it, and so does _swept, reduce_correlations' design without the
trace, which the command line writes unless a trace file is asked for. Both
library drivers start from _slice_blocks: rms_correlation's checks and each
slice's sorted columns. A pass reads only its own block's rows, so a block is
one contiguous (column, row) array per replicate: reduce_correlations and
_swept sweep each slice as a block of one, the benchmark a chunk of
replicates at a time, so the chunk bounds its memory. Each replicate is swept
to its own fixed point, and one check after each pass finds it. Write
S_k = B(F(S_{k-1})), F the forward pass and its restore, B the backward one.
If a pass's new output equals its own previous one, the next output of the
other pass does too, and so on: the replicate is at its fixed point. After a
backward pass that point is the new S_k; after a forward pass it is S_{k-1},
since F(S_{k-1}) = F(S_{k-2}) gives S_k = S_{k-1}, so B is not run. A
one-iteration call, with no earlier forward output, finds that stop after B:
the same state. A stopped replicate drops out while the others go on:
reduce_correlations repeats a stopped slice's last trace entry, which would
measure the same state, and pads the whole trace once no slice is left.
Outputs and traces are bit-identical to running all iterations in full,
unless a slice column holds both 0.0 and -0.0: then the sign of a zero can
differ. Every sum runs along a block row, as for one replicate swept alone,
so neither the chunk nor the stop moves a bit.

The dot kernel is the only fork: a pass takes every row's dot with the
covariate row in one call, a stacked matmul of residualize's 1-D BLAS dot in
reduce_correlations and _swept (_blas_dots), a row-wise einsum in the batch
sweep (_einsum_dots). Their last bits can differ and decide the rank of exact
ties, so the two can return different designs; each keeps its pinned outputs.
"""

from __future__ import annotations

import functools
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
    return _rms(_checked(matrix))


def _checked(matrix) -> np.ndarray:
    """``matrix`` as a float64 array, once it has a correlation to take."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] < 2:
        raise ValueError("need a matrix with at least two columns")
    if m.shape[0] < 2:
        raise ValueError("need at least two rows to correlate")
    if not np.isfinite(m).all():
        raise ValueError("matrix values must be finite")
    if (m == m[0]).all(axis=0).any():
        raise ValueError("zero-variance column has undefined correlation")
    return m


# The rank restore sorts by _tie_checked_order when a response row holds at
# least _LONG_ROW values and the call at least _LONG_CALL, and by numpy's
# stable argsort otherwise. Each sort timed call by call on the sweeps' own
# rows, each call fresh, the rule's share of the all-stable sort time was, in
# two runs: table1-f1-failures at 40 replicates, 0.73-0.75 at (12, 1024),
# 0.75-0.78 at (10, 1024), 0.75-0.76 at (14 or 16, 1024) and 0.75-0.77 at
# (12, 2048); table1-f2 at 320 replicates, 0.87-0.89 for rows of 10-18 and
# 0.93-0.95 at 8, as its 9-row blocks often tie. One-replicate calls of the
# command line's sizes (420 values at most) take the stable sort: the tie
# check cost them 1.55-1.59 times as much.
_LONG_ROW = 12
_LONG_CALL = 1024
# _tie_checked_order gathers the sorted keys _TIE_PIECE values (64 KB) at a
# time: a 40-replicate call of the benchmark's 48-run block (7,680 values)
# is one piece, a 273-replicate chunk of `bench` seven, so the gather holds
# no array the size of the block.
_TIE_PIECE = 8192

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

    values, blocks = _slice_blocks(design)
    views = [values[rows] for rows, _ in blocks]
    # A slice too small to correlate has trace entries of 0.0, so every entry
    # stays within [0, 1]; each larger one is swept as a block of one,
    # restored onto its own sorted columns, one iteration a call.
    whole_trace = [_rms(values)]
    slice_traces = [[_rms(view) if len(view) > 1 else 0.0] for view in views]
    live = [j for j, view in enumerate(views) if len(view) > 1]
    for _ in range(iterations):
        # A slice at its fixed point drops out and repeats its last trace
        # entry. Restores keep each column's multiset: no _rms check needed.
        live = [j for j in live if _sweep_block(views[j][None], blocks[j][1], 1, _blas_dots)]
        whole_trace.append(_rms(values) if live else whole_trace[-1])
        moving = set(live)
        for j, row in enumerate(slice_traces):
            row.append(_rms(views[j]) if j in moving else row[-1])
    trace = SweepTrace(tuple(whole_trace), tuple(map(tuple, slice_traces)))
    return Design(values, design.sizes), trace


def _sweep_block(dest: np.ndarray, targets: np.ndarray, iterations: int, dots) -> bool:
    """Sweep the block ``dest`` (m, n_j, p), a view, in place, in contiguous
    (m, p, n_j) states, restoring onto ``targets`` (each row's sorted values,
    or one (n_j,) row for all). A replicate at its fixed point is written
    back to ``dest`` and drops out, and the rest are written back at the end.
    Returns whether any replicate still moves: False once every one has
    reached its fixed point."""
    # last[i] is pass i's last output, pass 0 the forward and 1 the backward
    # pass; None (the first forward pass has nothing to repeat) and the input
    # stand in for them at the start. A spent state is dropped at once, never
    # held under another name.
    last = [None, dest.transpose(0, 2, 1).copy()]
    m, p, n_j = last[1].shape
    # Flat start of each (replicate, column) row, for the rank-restore scatter.
    offsets = np.arange(0, last[1].size, n_j).reshape(m, p, 1)
    # One midpoint row serves every column as it is (see _residual_pass).
    forward, backward = (targets, targets) if targets.ndim == 1 else (targets[:-1], targets[1:])
    passes = ((p - 1, slice(0, p - 1), forward), (0, slice(1, p), backward))
    live = np.arange(m)
    for _ in range(iterations):
        for i, step in enumerate(passes):
            # Pass i reads the other pass's output and takes the place of its
            # own previous one, which is popped, compared and dropped.
            last.insert(i, _residual_pass(last[i - 1], *step, offsets, dots))
            if last[i + 1] is None:
                del last[i + 1]
                continue
            moved = (last.pop(i + 1) != last[i]).any(axis=(1, 2))
            if np.count_nonzero(moved) < live.size:
                # A repeat is the fixed point, and last[1] holds it.
                dest[live[~moved]] = last[1][~moved].transpose(0, 2, 1)
                last, live = [out[moved] for out in last], live[moved]
                if live.size == 0:
                    return False
    dest[live] = last[1].transpose(0, 2, 1)
    return True


def _residual_pass(state, covariate: int, responses: slice, targets, offsets, dots):
    """``state`` (m, p, n_j) with its ``responses`` rows residualized on the
    ``covariate`` row, all read as the pass starts, and rank-restored onto
    ``targets``, their sorted values: a new array; ``state`` is left as it is.

    Each sum runs along one contiguous row, and add.reduce / n_j is
    np.mean's own arithmetic. ``dots(centred, covariate)`` gives the (m, p)
    row dots; its kernel sets the order of exactly tied residuals, so
    neither may change."""
    out = state - np.add.reduce(state, axis=2, keepdims=True) / state.shape[2]
    slope = _slopes(dots(out, covariate), covariate, responses)
    # The responses' centred rows are spent: they take slope * cd, then the
    # residuals, while the covariate row takes its values back.
    rows = out[:, responses]
    np.multiply(slope[:, :, None], out[:, covariate, None], out=rows)
    np.subtract(state[:, responses], rows, out=rows)
    out[:, covariate] = state[:, covariate]
    # Rank restore, ties by position: each row's stable sort order, as flat
    # indices (``offsets`` is each row's flat start), and one flat scatter,
    # which repeats ``targets`` for every replicate (a 1-D one every row).
    starts = offsets[: len(out), responses]
    if rows.shape[2] >= _LONG_ROW and rows.size >= _LONG_CALL:
        order = _tie_checked_order(out, rows, starts)
    else:
        order = rows.argsort(axis=-1, kind="stable")
        order += starts
    out.put(order, targets)
    return out


def _tie_checked_order(out, rows, starts):
    """``rows.argsort(axis=-1, kind="stable") + starts``, exactly, for
    ``rows`` a view into ``out``: numpy's default sort orders every row, and
    only the rows that hold an equal pair are sorted again, stably.

    A row without an equal pair has one sorted order, which any sort
    returns. Equal neighbours in a row's sorted keys find every tie (+0.0
    and -0.0 too, as they compare equal; no NaN passes rms_correlation's
    checks). The keys are gathered _TIE_PIECE values at a time, whole
    replicates a piece, so they add a bounded array; the first check runs
    over a whole piece at once, and a match across two rows only costs the
    per-row check."""
    order = rows.argsort(axis=-1)
    order += starts
    step = max(1, _TIE_PIECE // (rows.shape[1] * rows.shape[2]))
    for at in range(0, len(order), step):
        piece = order[at:at + step]
        keys = out.take(piece)
        flat = keys.reshape(-1)
        if (flat[1:] == flat[:-1]).any():
            tied = (keys[..., 1:] == keys[..., :-1]).any(axis=-1)
            again = rows[at:at + step][tied].argsort(axis=-1, kind="stable")
            again += starts[at:at + step][tied]
            piece[tied] = again
    return order


def _slopes(dots: np.ndarray, covariate: int, responses: slice) -> np.ndarray:
    """The (m, r) slopes from a kernel's (m, p) dots, whose covariate entry is
    the denominator; 0 on a constant covariate, of a sign that moves only a
    residual's zero, which the rank restore overwrites (+0.0 == -0.0)."""
    den = dots[:, covariate, None]
    return dots[:, responses] / np.where(den > 0, den, np.inf)


def _einsum_dots(centred, covariate: int) -> np.ndarray:
    """The (m, p) row dots by one row-wise einsum, which calls no BLAS."""
    return np.einsum("ikj,ij->ik", centred, centred[:, covariate, :])


def _blas_dots(centred, covariate: int) -> np.ndarray:
    """The (m, p) row dots by one stacked (1, n_j) @ (n_j, 1) matmul: each is
    residualize's 1-D BLAS dot (``centred @ cd[..., None]``, a gemv, is not)."""
    return (centred[:, :, None, :] @ centred[:, None, covariate, :, None])[..., 0, 0]


def _slice_blocks(design: Design) -> tuple[np.ndarray, list[tuple[slice, np.ndarray]]]:
    """A copy of the design's values, and each slice's rows paired with its
    sorted columns, once rms_correlation's checks pass on the design and
    then on each slice of two or more rows."""
    values = _checked(design.values).copy()
    blocks = []
    for rows in design.sizes.rows:
        if rows.stop - rows.start > 1:
            _checked(values[rows])
        # In C order, as the rank-restore scatter reads them without a copy.
        columns = values[rows].T.copy()
        columns.sort(axis=1)
        blocks.append((rows, columns))
    return values, blocks


def _swept(design: Design, iterations: int) -> Design:
    """reduce_correlations(design, iterations=iterations)[0], bit for bit,
    without its trace: the same checks, and the same dot kernel."""
    values, blocks = _slice_blocks(design)
    _sweep_batch(values[None], blocks, iterations, _blas_dots)
    return Design(values, design.sizes)


def _sweep_batch(
    stacked: np.ndarray,
    blocks: list[tuple[slice, np.ndarray]],
    iterations: int = 10,
    dots=_einsum_dots,
) -> np.ndarray:
    """Vectorized sweep over a batch of designs, in place.

    ``stacked`` has shape (R, n, p); ``blocks`` pairs each slice's row range
    with its sorted targets: one midpoint vector (n_j,) for every column, or
    (p, n_j) sorted columns. Each block is swept on its own (_sweep_block):
    a few copies of it bound the temporaries.
    """
    if stacked.shape[2] >= 2:
        for rows, targets in blocks:
            if targets.shape[-1] >= 2:
                _sweep_block(stacked[:, rows, :], targets, iterations, dots)
    return stacked
