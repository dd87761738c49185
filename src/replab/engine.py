"""Seeded numerical integration of replicator dynamics on the simplex.

The SDE is integrated in unnormalized log-shares ``Z_j = log x_j + c(t)``,
with ``x = softmax(Z)`` and
``dZ_j = ((A x)_j - sigma_j^2 / 2) dt + sigma_j dW_j``: the simplex boundary
maps to minus infinity, so every state mapped back is positive and normalized
by construction, and the additive noise gives the Euler-Maruyama step strong
first order here, which the strong-order test of the test suite checks on
coupled Brownian increments.  No strategy serves as a reference coordinate.
The deterministic dynamics is the ``sigma -> 0`` limit and has no integrator
of its own.

The SDE kernel floors each log-share ``Y_CAP`` = 500 below its path's largest:
a share below ``exp(-500)`` times the largest is physically extinct, and the
floor keeps ``Z`` bounded.  The floor acts on each strategy alone, so the
surviving shares keep moving.  Every share stays above ``exp(-Y_CAP) / n``, far
above the smallest normal double, so the loop needs no floor on the shares
themselves.  The floor check runs only on steps where a floor hit is possible:
one step lowers a log-share against its path's largest by at most twice its
largest drift-plus-increment, which is bounded from the payoffs, the noise and
the block of increments drawn, so after a check the next one is due once that
bound could have used up the gap to the floor, and at the start of every
block.  Each path's maximum is subtracted from ``Z`` every ``period`` steps (at
most 64), where ``period`` depends on the payoffs, the noise and the step
alone: unless an increment passes 16 standard deviations, the largest
log-share moves by less than 100 in between, so ``exp(Z)`` neither overflows
nor leaves the normal doubles.  The kernel records each path's first floor
time, and the clamp rule is: a statistic counts a path as clamped when that
time is no later than the last step the statistic reads, which is the first
entry into its region for a hitting kind and the horizon for every other kind.
A statistic's count therefore does not depend on which others share its batch.

Determinism contract: each path's Gaussian increments come from its own
counter-based stream (see :mod:`replab.rng`), and the batched SDE kernel
updates every path's column with the same operations, so a path's values do
not depend on which other paths share its chunk, nor on which process draws
or integrates it.  A batch is cut into the fewest chunks of sorted path
indices that its memory budget allows (at most 512 paths each), of equal size
give or take one path.  Where this process may fork (two usable CPUs; a
chunk worker counts one, since its siblings use the others), a batch that
draws at least ``2 * _CHUNK_MIN_DRAWS`` normals a step is cut into at least
one chunk per usable CPU, each drawing at least ``_CHUNK_MIN_DRAWS``: a
single forked noise producer, at 20-30 ns a normal, would leave the caller
waiting on it.  A batch of two or more chunks runs them in plain forked
workers, one per usable CPU:
worker ``w`` integrates and reduces chunks ``w, w + workers, ...`` and sends
back each chunk's per-path values, which the caller takes in chunk order.
Threads would not help: the interpreter lock serialises the kernel's many
small numpy calls.  Every other batch runs its chunk in-process, and an
in-process chunk of more than one noise block draws its increments in a forked
producer process instead, one block ahead of the integration, which uses the
second CPU; the first block is one segment of steps, so the integration starts
soon, and each later block doubles up to the full block.  The draws are the
same in any block sizes.  A lone path of many records, written as CSV by
:func:`trajectory_csv`, integrates in a forked child that draws its own noise
and sends its records in blocks, which the caller formats while the path
runs on.  These three users, workers, producer and lone-path streamer, share
one protocol (:func:`_child`): each child sends pickled messages on its own
pipe, which the caller takes in order, so a batch raises the first failure in
chunk order, as an in-process loop would, and a child's exception is raised
again in the caller.  Batch output is therefore byte-identical for any
permutation of the requested path indices, any split of them into chunks or
separate batches, any number of workers, and with or without a producer.
The kernel takes at most ``MAX_STRATEGIES`` = 15 strategies: from 16 on,
BLAS rounds a path's payoff term differently in chunks of different widths.

Statistics are data, not code: a :class:`Statistic` names a kind and its
parameters.  A batch records its states one chunk at a time, as an array of
shape (paths, records, n), and :func:`_reduce` turns that array into each
statistic's per-path values at once; no Python runs per path.  Hitting times
are first entries on the step grid, with no Brownian-bridge correction, so an
entry between two steps is missed and the mean hitting time is biased upward
at a rate of order ``sqrt(h)`` (Gobet 2000).  Measured against quadrature on
a two-strategy model (``A = [[0, 1/2], [1/2, 0]]``, ``sigma = (0.3, 0.3)``),
the bias was about ``1.7 sqrt(h)``: 39 steps at ``h = 0.0025``.  Whether the
acceptance slacks cover it is not verified.  Each step writes its states over
the noise increments it has just used, and once per segment of ``_SEGMENT``
steps one region test over the segment's states finds each pending path's
first entry, and one copy takes the segment's recorded steps.
Every other statistic reads the recorded grid, which is the step grid thinned
by ``record_stride``.  A chunk integrates through the last step its recorded
statistics read (none, if all are hitting kinds), then on while some path
has a region still to enter; since entries are seen once per segment, a
hitting-only chunk may run up to ``_SEGMENT - 1`` steps past its last entry.
A batch of hitting kinds only keeps no records, so they neither take memory
nor limit its chunk size.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import mmap
import os
import pickle
import signal
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from . import games, rng
from .errors import InputError, SimulationError, ValidationError
from .games import Region

MAX_RECORD_POINTS = 100_000
MAX_STRATEGIES = 15                 # from K = 16 on, OpenBLAS gemm rounds by column count
Y_CAP = 500.0                       # log-share floor depth below each path's largest
_STEP_ROUNDING = 1e-9               # per-step slack of the floor-reach bound, far above
                                    # a step's rounding at |Z| <= Y_CAP + 100
# Recorded floats per chunk: admits 100 paths x 20 001 records x 3 strategies,
# so full-size 2.3a, 2.4 and 2.8 run as 100 + 100 paths.  A worker of full-size
# 2.3a peaks at 161 MB resident (RUSAGE_CHILDREN, Linux x86-64, numpy 2.4).
_CHUNK_FLOAT_BUDGET = 6_000_300
_MAX_CHUNK_PATHS = 512
# Increments drawn per refill, 2 MB: the producer's two-slot ring takes 4.2 MB and its
# staging buffer fits a 2 MB L2 (a 50-path n = 3 producer: 3.4-3.5 us a step, 3.9 at 6 MB).
_NOISE_BLOCK_FLOATS = 262_144
_SEGMENT = 64                       # steps per hit test and record copy
# Normals drawn per step by each chunk of a batch that is cut for the CPUs.  The
# forked producer draws about 20-30 ns a normal, so from some hundreds of draws a
# step the caller waits on it.  scripts/layout_crossover.py (2-CPU x86-64 host,
# 25 000 steps, 2 MB blocks) timed one chunk per CPU, each worker drawing its own
# noise, at 1.16x one chunk plus producer for 300 draws a step at n = 3, 1.07-1.16x
# for 450 and 0.91x for 600; at n = 9, 0.99-1.05x for 450.  So a batch is cut
# from 2 x 256 = 512 draws a step, and each chunk draws at least 256.
_CHUNK_MIN_DRAWS = 256
# Trajectory CSV rows formatted per call, and sent per message by a streamed lone path
# (20 001 records: 40 messages).
_CSV_ROWS = 512
# Records from which a lone path is formatted while a forked child integrates it.  A
# fork, its first message and its reap cost about 4 ms, and a row about 2 us to format:
# streamed over in-process (n = 3, stride 1, 2-CPU x86-64 host, medians of 15
# alternating runs, two runs) read 1.04-1.06 at 2049 records, 0.92-1.00 at 2561,
# 0.89-0.92 at 4097 and 0.79-0.82 at 6145.
_STREAM_MIN_RECORDS = 5 * _CSV_ROWS
_USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@dataclass(frozen=True)
class SdeConfig:
    """Discretization, horizon and seeding of one integration run.

    A path is ``clamped`` once some share falls below ``exp(-Y_CAP)`` times
    the largest share.
    """

    h: float
    horizon: float
    seed: int
    record_stride: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValidationError("step size must be finite and > 0")
        if not (math.isfinite(self.horizon) and self.horizon >= self.h):
            raise ValidationError("horizon must satisfy 0 < h <= horizon")
        rng.check_seed(self.seed)
        if self.record_stride is not None and int(self.record_stride) < 1:
            raise ValidationError("record_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        """Number of steps; the grid ends at ``n_steps * h`` (~ horizon)."""
        return max(1, int(round(self.horizon / self.h)))

    @property
    def effective_stride(self) -> int:
        if self.record_stride is not None:
            return int(self.record_stride)
        return max(1, math.ceil((self.n_steps + 1) / MAX_RECORD_POINTS))

    def record_steps(self) -> np.ndarray:
        steps = np.arange(0, self.n_steps + 1, self.effective_stride)
        if steps[-1] != self.n_steps:
            steps = np.append(steps, self.n_steps)
        return steps


@dataclass(frozen=True)
class Trajectory:
    """One recorded path: time grid, simplex states and bookkeeping."""

    times: np.ndarray           # (m,)
    states: np.ndarray          # (m, n)
    clamped: bool
    seed: int

    @property
    def n_strategies(self) -> int:
        return self.states.shape[1]


# ---------------------------------------------------------------------------
# drift and diffusion fields


def drift(A, sigma, x) -> np.ndarray:
    """Drift of the noisy dynamics at state ``x``; components sum to zero.

    ``b(x) = [diag(x) - x x^T] (A - diag(sigma^2)) x``; it vanishes at any
    vertex and at any stable mix of the effective payoff matrix.
    """
    A = games.as_payoff_matrix(A)
    s = games.as_noise_vector(sigma, A.shape[0])
    x = games.as_simplex_point(x, A.shape[0])
    m = (A @ x) - (s * s) * x
    return x * (m - float(x @ m))


def diffusion_matrix(sigma, x) -> np.ndarray:
    """Noise-to-state map ``C(x) = [diag(x) - x x^T] diag(sigma)``; columns sum to zero."""
    x = games.as_simplex_point(x)
    s = games.as_noise_vector(sigma, x.size)
    return (np.diag(x) - np.outer(x, x)) * s[None, :]


# ---------------------------------------------------------------------------
# the integrator: Euler-Maruyama in log-shares


def _spans(total_steps: int, block: int) -> list[tuple[int, int]]:
    """The (start, stop) steps of each noise block: the first is ``_SEGMENT``
    steps long, at most ``block``, and each later one doubles, up to ``block``."""
    spans, start, size = [], 0, min(block, _SEGMENT)
    while start < total_steps:
        spans.append((start, min(start + size, total_steps)))
        start, size = spans[-1][1], min(2 * size, block)
    return spans


def _draw_blocks(seed: int, paths, n: int, total_steps: int, scale: np.ndarray,
                 block: int, slot):
    """Draw each path's stream once, in the blocks of :func:`_spans`, and yield
    each block's increments times ``scale`` as a (steps, n, columns) view of
    ``slot(b)``, block ``b``'s buffer.  A lone path's fills every column."""
    gens = [rng.path_generator(seed, p) for p in paths]
    draws = np.empty((len(gens), block, n))
    for b, (start, stop) in enumerate(_spans(total_steps, block)):
        take = stop - start
        for g, rows in zip(gens, draws[:, :take]):
            g.standard_normal(out=rows)
        steps = slot(b)[:take]
        np.copyto(steps, draws[:, :take].transpose(1, 2, 0))
        steps *= scale      # in place: scaling while transposing is slower
        yield steps


def _child(body):
    """Fork a child that runs ``body(send)``, and return its pid and the read end
    of its pipe, for :func:`_take`.  ``send`` pickles one message onto the
    child's buffered write pipe and flushes it; an exception that escapes
    ``body`` is pickled as the child's last message, and the child then exits.
    The path-key type is made before the fork, so that no child imports
    ``numpy.random`` (about 18 ms) for itself."""
    rng._path_key()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:                                # the child; never returns
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:

                def send(value) -> None:
                    pickle.dump(value, pipe)
                    pipe.flush()

                try:
                    body(send)
                except BaseException as exc:    # raised again by the caller
                    send(exc)
        finally:
            os._exit(0)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _take(pipe, gone: str):
    """The next message of a :func:`_child`: its value, or its exception raised
    again here; ``SimulationError(gone)`` if the pipe ends before it."""
    try:
        value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):     # empty or cut short
        raise SimulationError(gone) from None
    if isinstance(value, BaseException):
        raise value
    return value


def _reap(pid: int) -> None:
    """Kill the child ``pid`` if it still runs, and wait for it."""
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)
    with contextlib.suppress(ChildProcessError):
        os.waitpid(pid, 0)


def _increments(seed: int, paths, n: int, total_steps: int, scale: np.ndarray):
    """Blocks of each step's Gaussian increments times ``scale``, as (steps, n,
    columns) views valid until the next is taken; the caller may overwrite a
    block it holds.  A chunk of more than one block (:func:`_spans`) draws
    them in a producer, a :func:`_child`, where two CPUs are usable: in the
    caller of a batch that runs in-process, never in a chunk worker, which
    draws its own.  A batch wide enough to keep a producer busy runs in workers
    instead (see ``_CHUNK_MIN_DRAWS``)."""
    columns = scale.shape[1]
    block = min(total_steps, max(1, _NOISE_BLOCK_FLOATS // (columns * n)))
    if block < total_steps and _USABLE_CPUS >= 2:
        yield from _produced_blocks(seed, paths, n, total_steps, scale, block)
    else:
        buf = np.empty((block, n, columns))
        yield from _draw_blocks(seed, paths, n, total_steps, scale, block, lambda b: buf)


def _produced_blocks(seed: int, paths, n: int, total_steps: int, scale: np.ndarray,
                     block: int):
    """:func:`_draw_blocks` run in a :func:`_child`, one block ahead of the caller.

    The child fills a two-slot ring in anonymous shared memory and sends each
    block's index once it is filled; the caller sends one byte on ``freed``
    when it takes the next block, which frees the slot of the last.  A child
    that fails sends its exception instead, which the caller raises; a child
    whose caller has gone exits at its next message.  The child is reaped when
    this generator finishes or is closed."""
    ring = np.frombuffer(mmap.mmap(-1, 2 * block * scale.size * 8))
    ring = ring.reshape(2, block, *scale.shape)
    freed_r, freed_w = os.pipe()

    def produce(send) -> None:
        os.close(freed_w)

        def slot(b: int) -> np.ndarray:
            if b >= 2:
                os.read(freed_r, 1)
            return ring[b % 2]

        for b, _ in enumerate(_draw_blocks(seed, paths, n, total_steps, scale, block, slot)):
            send(b)

    pid, filled = _child(produce)
    os.close(freed_r)
    try:
        for b, (start, stop) in enumerate(_spans(total_steps, block)):
            if b:
                with contextlib.suppress(BrokenPipeError):    # the child may have finished
                    os.write(freed_w, b"\1")
            yield ring[_take(filled, f"noise producer exited before block {b}") % 2, :stop - start]
    finally:
        _reap(pid)
        filled.close()
        os.close(freed_w)


def check_kernel_size(n: int) -> None:
    """Refuse a game of ``n`` strategies if the SDE kernel cannot run it."""
    if n > MAX_STRATEGIES:
        raise InputError(f"the SDE kernel takes at most {MAX_STRATEGIES} strategies, got {n}: "
                         "beyond that BLAS rounds a path differently in chunks of other widths")


@dataclass
class _ChunkResult:
    times: np.ndarray
    states: np.ndarray                  # (paths, records, n); no records if none is read
    first_floor: np.ndarray             # (paths,) first time at the floor, inf = never
    first_hit: dict[Region, np.ndarray]  # (paths,) first entry time, inf = never
    steps: int                          # steps integrated

    def clamped(self, region: Region | None) -> np.ndarray:
        """The clamp rule, for a statistic whose hit region is ``region``."""
        return self.first_floor <= np.minimum(self.first_hit.get(region, math.inf), self.times[-1])


def _sde_chunk(A, sigma, x0, cfg: SdeConfig, paths, hit_regions: Iterable[Region] = (),
               read_steps: float = math.inf,
               on_records: Callable[[int, np.ndarray], None] | None = None) -> _ChunkResult:
    """Euler-Maruyama in log-share coordinates for a chunk of seeded paths, held as
    (n, columns) in buffers reused every step.  A lone path runs as two columns on
    one stream: BLAS gemv rounds ``A @ x`` differently from gemm for n >= 4, and a
    path must give the same bytes in any chunk.  Each noise block takes the
    constant drift ``-h sigma^2 / 2`` once, so a step makes six numpy calls:
    ``(hA) x``, two adds, ``exp``, the column sums as the gemm ``1 x`` (``1`` the
    all-ones matrix) and a full-shape divide, plus a re-centering every
    ``period`` steps and a floor check where one is due.  At a few columns these
    calls cost more to dispatch than to run, so the gemms are bound
    ``ndarray.dot`` methods and every output is passed by position.  For n <=
    ``MAX_STRATEGIES`` both gemms sum in one chain from zero, in row order, in
    any column count, which is also the order of ``add.reduce`` over the
    strategies; more strategies raise ``InputError``.  The fused gemm
    ``[hA | I | I] [x; Z; dw]`` would cut a step to four calls, but it sums 3n
    terms, which rounds by column count from n = 6 on, and a second loop body
    for small n would be a second kernel.  Each step writes its shares over the
    increments it has just used, so a noise block ends up holding the states of
    its own steps; hit tests and records read them once per segment of
    ``_SEGMENT`` steps.  The loop runs through step ``read_steps`` (default: the
    horizon; 0: no record is read or kept), then on while some path has a region
    still to enter, to the end of the segment where the last one enters.
    ``on_records``, if given, is called once a segment's records are copied, with
    the first new record row and the (paths, rows, n) view of the new rows."""
    A = games.as_payoff_matrix(A)
    n = A.shape[0]
    check_kernel_size(n)
    m = len(paths)
    columns = max(m, 2)
    grid = cfg.record_steps()
    times, record = grid * cfg.h, (grid.tolist() if read_steps else [])
    states = np.empty((m, len(record), n))
    first_floor = np.full(m, math.inf)
    first_hit = {region: np.full(m, math.inf) for region in hit_regions}
    pending = {region: np.ones(m, dtype=bool) for region in first_hit}
    row = 0                                             # next record row to write

    def observe(seg: np.ndarray, k0: int) -> None:
        """Hit tests and records for ``seg``, the (steps, n, columns) states of
        steps ``k0, k0 + 1, ...``."""
        nonlocal row
        k1 = k0 + len(seg)
        if row < len(record) and record[row] < k1:
            end = bisect.bisect_left(record, k1, row)
            states[:, row:end] = seg[np.subtract(record[row:end], k0)].transpose(2, 0, 1)[:m]
            if on_records is not None:
                on_records(row, states[:, row:end])
            row = end
        for region, mask in list(pending.items()):
            # every column, so that a lone path's sums round as in a wider chunk
            inside = region.contains(seg.transpose(0, 2, 1))[:, :m]
            inside &= mask
            entered = inside.any(axis=0)
            if entered.any():
                first_hit[region][entered] = (k0 + inside.argmax(axis=0)[entered]) * cfg.h
                mask ^= entered
                if not mask.any():
                    del pending[region]

    x_start = games.as_simplex_point(x0, n, interior=True)
    own = np.repeat(x_start[:, None], columns, axis=1)
    Z = np.log(own)
    step, top = np.empty_like(own), np.empty((1, columns))
    ones = np.ones((n, n))
    sig = np.repeat(games.as_noise_vector(sigma, n)[:, None], columns, axis=1)
    ito = 0.5 * cfg.h * sig * sig                       # each step's constant drift is -ito
    hA = cfg.h * A
    # |(hA x)_j| <= max|hA| on the simplex, so this bounds each step's payoff term
    drift_reach = float(np.abs(hA).max())
    # a bound on one step's move of the largest log-share, but for increments past 16
    # standard deviations; from the game and the step alone, never from the layout
    move = drift_reach + float(ito.max()) + 16.0 * math.sqrt(cfg.h) * float(sig.max())
    period = max(1, min(64, int(100.0 // max(move, 1.0))))
    cap = Y_CAP
    # bound ndarray.dot: the BLAS call of np.dot without its __array_function__ dispatch
    payoff, sums, exp, maximum = hA.dot, ones.dot, np.exp, np.maximum
    add, subtract, divide = np.add, np.subtract, np.divide
    max_reduce, min_reduce = np.maximum.reduce, np.minimum.reduce

    noise = _increments(cfg.seed, paths, n, cfg.n_steps, math.sqrt(cfg.h) * sig)
    try:
        observe(own[None], 0)
        x, k = own, 0
        while k < read_steps or pending:
            block = next(noise, None)
            if block is None:
                break
            subtract(block, ito, out=block)
            # A step lowers a log-share against the largest by at most twice its largest
            # |payoff term + block entry|, so no step before ``check`` can reach the floor.
            # NaN or inf: check every step.
            reach = 2.0 * (drift_reach + max(block.max(), -block.min())) + _STEP_ROUNDING
            check = k + 1
            for lo in range(0, len(block), _SEGMENT):
                segment = block[lo:lo + _SEGMENT]
                for dw in segment:
                    k += 1
                    add(Z, payoff(x, step), Z)
                    add(Z, dw, Z)
                    if not k % period:
                        subtract(Z, max_reduce(Z, axis=0, out=top, keepdims=True), Z)
                    if k >= check:
                        # the floor lies Y_CAP below each path's largest log-share, and
                        # Z - level < 0 exactly when Z < level, so the floor moves only
                        # the entries found below it
                        level = subtract(max_reduce(Z, axis=0, out=top, keepdims=True), cap, top)
                        gap = min_reduce(subtract(Z, level, step), axis=None)
                        if not gap >= 0.0:      # a floored share, or a non-finite one
                            bad = ~np.isfinite(Z[:, :m]).all(axis=0)
                            if bad.any():
                                raise SimulationError(
                                    f"non-finite log-shares at step {k} (t={cfg.h * k:g}) "
                                    f"for paths {[paths[i] for i in np.flatnonzero(bad)[:5]]}"
                                )
                            floored = (step[:, :m] < 0.0).any(axis=0)
                            first_floor[floored & (first_floor == math.inf)] = k * cfg.h
                            maximum(Z, level, out=Z)
                            gap = 0.0
                        span = gap / reach
                        check = k + 1 + (int(span) if span >= 0.0 else 0)
                    x = exp(Z, dw)
                    divide(x, sums(x, step), x)
                observe(segment, k + 1 - len(segment))
                if k >= read_steps and not pending:
                    break
            np.copyto(own, x)       # the block's buffer goes back to the noise source
            x = own
    finally:
        noise.close()       # and with it any producer, also when a step has raised
    return _ChunkResult(times, states, first_floor, first_hit, k)


# ---------------------------------------------------------------------------
# single-path interface


def simulate_sde(A, sigma, x0, cfg: SdeConfig, path_index: int = 0) -> Trajectory:
    """Integrate the noisy dynamics from an interior state; one seeded path."""
    res = _sde_chunk(A, sigma, x0, cfg, [path_index])
    return Trajectory(times=res.times, states=res.states[0],
                      clamped=bool(res.clamped(None)[0]), seed=cfg.seed)


# ---------------------------------------------------------------------------
# named per-path statistics


@dataclass(frozen=True)
class Statistic:
    """A named per-path diagnostic for batch runs, held as plain data.

    ``kind`` selects the reduction in :func:`_reduce`, and the remaining
    fields are its parameters (``None`` where a kind does not use them).
    """

    name: str
    kind: str
    j: int | None = None                    # strategy index
    t: float | None = None                  # recorded time, or start of a window
    region: Region | None = None
    point: tuple[float, ...] | None = None
    level: float | None = None

    @property
    def hit_region(self) -> Region | None:
        """The region whose first entry the kernel detects on the step grid, if any."""
        return self.region if self.kind in ("hitting_time", "hit_flag") else None

    def fn(self, traj: Trajectory) -> float:
        """Value on one recorded path; hitting kinds detect entry on its recorded grid."""
        first_hit = None
        if self.hit_region is not None:
            inside = np.flatnonzero(self.region.contains(traj.states))
            first_hit = np.array([traj.times[inside[0]] if inside.size else math.inf])
        return float(_reduce(self, traj.times, traj.states[None], first_hit)[0])


def _reduce(st: Statistic, times: np.ndarray, states: np.ndarray,
            first_hit: np.ndarray | None) -> np.ndarray:
    """Values of ``st`` for recorded ``states`` of shape (paths, records, n).

    ``first_hit`` is each path's first entry time into ``st.hit_region``
    (``inf``: never).  The result is a fresh array, never a view of
    ``states``, so a chunk's states are freed once it is reduced.
    """
    kind = st.kind
    if kind == "final_share":
        return states[:, -1, st.j].copy()
    if kind == "max_final_share":
        return states[:, -1].max(axis=1)
    if kind == "share_at":
        i = int(np.argmin(np.abs(times - st.t)))
        if abs(times[i] - st.t) > 1e-9 * max(1.0, abs(st.t)):
            raise ValidationError(
                f"share_at: t={st.t:g} is not a recorded time (nearest {times[i]:g})")
        return states[:, i, st.j].copy()
    if kind in ("window_max_share", "occupation") and st.t < 0.0:
        raise ValidationError(f"t_start={st.t:g} must be >= 0")
    if kind == "window_max_share":
        return states[:, times >= st.t, st.j].max(axis=1)
    if kind == "occupation":
        if not st.t < times[-1]:
            raise ValidationError("t_start must precede the end of the trajectory")
        return st.region.contains(states[:, times >= st.t]).mean(axis=1)
    if kind == "time_avg_sq_distance":
        p = games.as_simplex_point(st.point, states.shape[2])
        f = ((states - p) ** 2).sum(axis=2)
        integral = (0.5 * np.diff(times) * (f[:, 1:] + f[:, :-1])).sum(axis=1)
        return integral / float(times[-1] - times[0])
    if kind == "hitting_time":
        return np.where(np.isfinite(first_hit), first_hit, times[-1])
    if kind == "hit_flag":
        return np.isfinite(first_hit).astype(float)
    if kind == "captured":
        stayed = st.region.contains(states).all(axis=1)
        return (stayed & (states[:, -1, st.j] > 1.0 - st.level)).astype(float)
    raise ValidationError(f"unknown statistic kind {kind!r}")


def final_share(j: int, name: str | None = None) -> Statistic:
    return Statistic(name=name or f"final_share_{j}", kind="final_share", j=j)


def max_final_share() -> Statistic:
    return Statistic(name="max_final_share", kind="max_final_share")


def share_at(j: int, t: float) -> Statistic:
    """Share of strategy ``j`` at the recorded time ``t``; an off-grid ``t`` raises."""
    return Statistic(name=f"share_{j}_at_{t:g}", kind="share_at", j=j, t=t)


def window_max_share(j: int, t_start: float) -> Statistic:
    return Statistic(name=f"max_share_{j}_from_{t_start:g}", kind="window_max_share",
                     j=j, t=t_start)


def occupation_stat(region: Region, t_start: float) -> Statistic:
    """Fraction of recorded grid points at or after ``t_start`` lying in the region."""
    return Statistic(name=f"occupation[{region.describe()}]", kind="occupation",
                     region=region, t=t_start)


def time_avg_sq_distance_stat(p, name: str = "time_avg_sq_distance") -> Statistic:
    """Trapezoidal time average of the squared Euclidean distance to ``p``."""
    point = tuple(float(v) for v in games.as_simplex_point(p))
    return Statistic(name=name, kind="time_avg_sq_distance", point=point)


def hitting_time_stat(region: Region, name: str | None = None) -> Statistic:
    """First step-grid time in the region; the horizon for a path that never enters."""
    return Statistic(name=name or f"hitting_time[{region.describe()}]",
                     kind="hitting_time", region=region)


def hit_flag_stat(region: Region, name: str | None = None) -> Statistic:
    """1 if the path enters the region on the step grid, else 0."""
    return Statistic(name=name or f"hit[{region.describe()}]",
                     kind="hit_flag", region=region)


def captured_stat(region: Region, j: int, level: float, name: str | None = None) -> Statistic:
    """1 if the path never leaves the region and ends with share ``j`` above
    ``1 - level``, else 0."""
    return Statistic(name=name or f"captured[{region.describe()}]", kind="captured",
                     region=region, j=j, level=level)


# ---------------------------------------------------------------------------
# batch running


@dataclass(frozen=True)
class BatchResult:
    """Per-path values of one statistic plus their mean and standard error."""

    statistic: str
    mean: float
    std_error: float
    values: np.ndarray          # per path, in the requested path order
    n_paths: int
    seed: int
    # paths at the log-share floor by the last step this statistic reads: its
    # region's first entry for a hitting kind, the horizon for every other kind
    clamped_paths: int = 0

    @property
    def aborted(self) -> int:
        """Always 0: the log-share scheme cannot abort a path."""
        return 0

    def to_json_dict(self) -> dict:
        per_path = [None if not math.isfinite(v) else float(v) for v in self.values]
        return {
            "statistic": self.statistic,
            "mean": self.mean,
            "std_error": self.std_error,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "clamped_paths": self.clamped_paths,
            "per_path": per_path,
        }


def _chunk_size(cfg: SdeConfig, n: int) -> int:
    records = cfg.record_steps().size
    return max(1, min(_MAX_CHUNK_PATHS, _CHUNK_FLOAT_BUDGET // max(1, records * n)))


def _forked_chunks(run, spans: list[tuple[int, int]], workers: int) -> list:
    """``run(span)`` of every span, run in ``workers`` :func:`_child` workers.

    Worker ``w`` runs chunks ``w, w + workers, ...`` and sends one message per
    chunk: its values, or the exception it raised, after which it stops.  The
    caller takes chunk ``i`` from worker ``i % workers``, in index order, so it
    raises the lowest failing chunk's exception, as an in-process loop would,
    or a ``SimulationError`` for the lowest chunk whose worker exited before
    sending it.  Fork hands ``run`` to each worker without pickling it.  Every
    child is reaped when this returns or raises."""

    def work(send, w: int) -> None:
        global _USABLE_CPUS
        _USABLE_CPUS = 1                        # so it forks no producer of its own
        for i in range(w, len(spans), workers):
            send(run(spans[i]))

    children = []
    try:
        for w in range(workers):
            children.append(_child(lambda send, w=w: work(send, w)))
        return [_take(children[i % workers][1], f"chunk worker {i % workers} exited "
                      f"before sending its values for chunk {i}") for i in range(len(spans))]
    finally:
        for pid, pipe in children:
            _reap(pid)
            pipe.close()


def batch_run_many(A, sigma, x0, cfg: SdeConfig, n_paths: int,
                   statistics: Mapping[str, Statistic],
                   *, path_indices=None) -> dict[str, BatchResult]:
    """Evaluate several per-path statistics over a batch of seeded paths.

    Path indices default to ``0..n_paths-1``; an explicit list may be given in
    any order (results are reported in that order, computed canonically, so
    permutations change nothing but the reporting order).
    """
    if path_indices is None:
        if n_paths < 1:
            raise ValidationError("need at least one path")
        path_indices = list(range(n_paths))
    else:
        path_indices = [int(i) for i in path_indices]
        if len(path_indices) != n_paths:
            raise ValidationError("n_paths must match the number of path indices")
        if len(set(path_indices)) != n_paths:
            raise ValidationError("path indices must be distinct")
    if not statistics:
        raise ValidationError("need at least one statistic")

    A = games.as_payoff_matrix(A)
    n = A.shape[0]
    times = cfg.record_steps() * cfg.h
    for st in statistics.values():      # a bad statistic raises before any path runs
        try:
            _reduce(st, times, np.empty((0, times.size, n)), np.empty(0))
        except ValidationError:
            raise
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"statistic {st.name} does not fit this batch "
                                  f"({n} strategies, last record at t={times[-1]:g}): "
                                  f"{exc}") from exc
    order = sorted(range(n_paths), key=lambda i: path_indices[i])
    # a hitting-only batch reads no records, so they neither exist nor bound its chunks
    read_steps = cfg.n_steps if any(st.hit_region is None for st in statistics.values()) else 0
    chunk = _chunk_size(cfg, n) if read_steps else _MAX_CHUNK_PATHS
    hit_regions = {st.hit_region for st in statistics.values()} - {None}
    sorted_paths = [path_indices[i] for i in order]

    def run(span: tuple[int, int]) -> list[tuple[np.ndarray, int]]:
        """Each statistic's values and clamped-path count on the chunk ``span``."""
        res = _sde_chunk(A, sigma, x0, cfg, sorted_paths[slice(*span)], hit_regions, read_steps)
        return [(_reduce(st, res.times, res.states, res.first_hit.get(st.hit_region)),
                 int(res.clamped(st.hit_region).sum())) for st in statistics.values()]

    count = -(-n_paths // chunk)                # chunks of equal size, give or take one
    workers = _USABLE_CPUS
    # a batch that would keep one producer busy runs as one chunk per CPU instead
    if workers > 1 and n_paths * n >= 2 * _CHUNK_MIN_DRAWS:
        count = max(count, min(workers, n_paths * n // _CHUNK_MIN_DRAWS))
    bounds = [n_paths * i // count for i in range(count + 1)]
    spans = list(zip(bounds, bounds[1:]))
    workers = min(workers, count)
    if workers > 1:
        done = _forked_chunks(run, spans, workers)
    else:
        done = [run(span) for span in spans]

    inverse = np.empty(n_paths, dtype=np.int64)
    inverse[order] = np.arange(n_paths)

    out: dict[str, BatchResult] = {}
    for name, chunks in zip(statistics, zip(*done)):
        values = np.concatenate([v for v, _ in chunks])[inverse]
        valid = values[np.isfinite(values)]
        mean = float(valid.mean()) if valid.size else math.nan
        if valid.size > 1:
            se = float(valid.std(ddof=1) / math.sqrt(valid.size))
        else:
            se = math.nan
        out[name] = BatchResult(
            statistic=statistics[name].name,
            mean=mean,
            std_error=se,
            values=values,
            n_paths=n_paths,
            seed=cfg.seed,
            clamped_paths=sum(clamped for _, clamped in chunks),
        )
    return out


def batch_run(A, sigma, x0, cfg: SdeConfig, n_paths: int, statistic: Statistic,
              *, path_indices=None) -> BatchResult:
    """Run one statistic over a batch; see :func:`batch_run_many`."""
    res = batch_run_many(A, sigma, x0, cfg, n_paths, {statistic.name: statistic},
                         path_indices=path_indices)
    return res[statistic.name]


# ---------------------------------------------------------------------------
# exports


def _csv_header(n: int) -> str:
    return "t," + ",".join(f"x_{j + 1}" for j in range(n)) + "\n"


def _csv_rows(times: np.ndarray, states: np.ndarray) -> str:
    """CSV rows ``t,x_1,...,x_n`` of (m,) ``times`` and (m, n) ``states`` at
    ``%.17g``, formatted ``_CSV_ROWS`` rows at a time."""
    row = ",".join(["%.17g"] * (states.shape[1] + 1)) + "\n"
    values = np.column_stack([times, states])
    return "".join(row * len(block) % tuple(block.ravel().tolist())
                   for block in np.split(values, range(_CSV_ROWS, len(values), _CSV_ROWS)))


def trajectory_csv_text(traj: Trajectory) -> str:
    """CSV with header ``t,x_1,...,x_n`` at full double precision."""
    return _csv_header(traj.n_strategies) + _csv_rows(traj.times, traj.states)


def trajectory_csv(A, sigma, x0, cfg: SdeConfig, path_index: int = 0) -> tuple[str, bool]:
    """:func:`trajectory_csv_text` of :func:`simulate_sde`, and whether the path
    is clamped, with the same bytes, formatted while the path integrates.

    Where two CPUs are usable and the path records at least
    ``_STREAM_MIN_RECORDS`` rows, it integrates in a :func:`_child` that sends
    its records in messages of at least ``_CSV_ROWS`` rows, then its clamp flag,
    and this process formats each message as it arrives.  Otherwise the path
    integrates here and is formatted after."""
    A = games.as_payoff_matrix(A)
    times = cfg.record_steps() * cfg.h
    if _USABLE_CPUS < 2 or times.size < _STREAM_MIN_RECORDS:
        traj = simulate_sde(A, sigma, x0, cfg, path_index)
        return trajectory_csv_text(traj), traj.clamped

    def stream(send) -> None:
        global _USABLE_CPUS
        _USABLE_CPUS = 1                        # so it forks no producer of its own
        held = []                               # views of records not yet sent

        def records(first: int, rows: np.ndarray) -> None:
            held.append(rows[0])
            if sum(map(len, held)) >= _CSV_ROWS:
                send(np.concatenate(held))
                held.clear()

        res = _sde_chunk(A, sigma, x0, cfg, [path_index], on_records=records)
        if held:
            send(np.concatenate(held))
        send(bool(res.clamped(None)[0]))

    parts, row = [_csv_header(A.shape[0])], 0
    pid, pipe = _child(stream)
    try:
        while row < times.size:
            rows = _take(pipe, f"path {path_index} exited after sending {row} of its "
                               f"{times.size} records")
            parts.append(_csv_rows(times[row:row + len(rows)], rows))
            row += len(rows)
        clamped = _take(pipe, f"path {path_index} exited before sending its clamp flag")
    finally:
        _reap(pid)
        pipe.close()
    return "".join(parts), clamped
