"""Seeded numerical integration of replicator dynamics on the simplex.

Both the SDE and the ODE are integrated in unnormalized log-shares
``Z_j = log x_j + c(t)``, with ``x = softmax(Z)`` and, for the SDE,
``dZ_j = ((A x)_j - sigma_j^2 / 2) dt + sigma_j dW_j``: the simplex boundary
maps to minus infinity, so every state mapped back is positive and normalized
by construction, and the additive noise gives the Euler-Maruyama step strong
first order here.  No strategy serves as a reference coordinate.

Each SDE step subtracts each path's maximum from ``Z`` and floors it at
``-y_cap`` (default 500, at most ``MAX_Y_CAP``): a share below ``exp(-500)``
times the largest is physically extinct, and the floor keeps ``Z`` bounded.
The floor acts on each strategy alone, so the surviving shares keep moving.
Every share stays above ``exp(-y_cap) / n``, far above the smallest positive
double, so the loop needs no floor on the shares themselves.  The floor check
runs only on steps where a floor hit is possible: one step lowers a log-share
by at most twice its largest drift-plus-increment, which is bounded from the
payoffs, the noise and the block of increments drawn, so after a check the
next one is due once that bound could have used up the gap to the floor, and
at the start of every block.  The kernel records each path's first floor
time, and the clamp rule is: a statistic counts a path as clamped when that
time is no later than the last step the statistic reads, which is the first
entry into its region for a hitting kind and the horizon for every other kind.
A statistic's count therefore does not depend on which others share its batch.

Determinism contract: each path's Gaussian increments come from its own
counter-based stream (see :mod:`replab.rng`), and the batched SDE kernel
updates every path's column with the same operations, so a path's values do
not depend on which other paths share its chunk, nor on which process runs
it.  A batch is cut into the fewest chunks of sorted path indices that its
memory budget allows (at most 512 paths each), of equal size give or take one
path.  A batch of two or more chunks runs them in forked worker processes,
one per usable CPU; each worker integrates and reduces whole chunks and sends
back only per-path values, which the caller joins in chunk order.  Threads
would not help: the interpreter lock serialises the kernel's many small
numpy calls.  A single-chunk batch, a host with one usable CPU, and a batch
called inside a daemonic worker run the chunks in-process.  A wide chunk run
in-process may draw its increments in a forked producer process instead, one
noise block ahead of the integration, which uses the second CPU; the draws
are the same.  Batch output is therefore byte-identical for any permutation
of the requested path indices, any split of them into chunks or separate
batches, any number of workers, and with or without a producer.

Statistics are data, not code: a :class:`Statistic` names a kind and its
parameters.  A batch records its states one chunk at a time, as an array of
shape (paths, records, n), and :func:`_reduce` turns that array into each
statistic's per-path values at once; no Python runs per path.  Hitting times
are first entries on the step grid (no Brownian-bridge correction: the bias is
at most one step and the acceptance slacks absorb it).  Each step writes its
states over the noise increments it has just used, and once per segment of
``_SEGMENT`` steps one region test over the segment's states finds each
pending path's first entry, and one copy takes the segment's recorded steps.
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
import itertools
import math
import mmap
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import games, rng
from .errors import SimulationError, ValidationError
from .games import Region

MAX_RECORD_POINTS = 100_000
MAX_Y_CAP = 600.0                   # exp(-600) / n stays far above STATE_FLOOR
STATE_FLOOR = 1e-300                # the ODE's share floor
_STEP_ROUNDING = 1e-9               # per-step slack of the floor-reach bound, far
                                    # above a step's rounding at |Z| <= MAX_Y_CAP
# Recorded floats per chunk: admits 100 paths x 20 001 records x 3 strategies,
# so full-size 2.3a, 2.4 and 2.8 run as 100 + 100 paths.  A worker of full-size
# 2.3a peaks at 163 MB resident (RUSAGE_CHILDREN, Linux x86-64, numpy 2.4).
_CHUNK_FLOAT_BUDGET = 6_000_300
_MAX_CHUNK_PATHS = 512
_NOISE_BLOCK_FLOATS = 786_432      # increments drawn per refill
_SEGMENT = 64                       # steps per hit test and record copy
_PIPE_MIN_DRAWS = 512               # normals per step from which a producer pays
_USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@dataclass(frozen=True)
class SdeConfig:
    """Discretization, horizon and seeding of one integration run.

    ``y_cap`` is the depth of the log-share floor, from 50 to ``MAX_Y_CAP``: a
    path is ``clamped`` once some share falls below ``exp(-y_cap)`` times the
    largest share.
    """

    h: float
    horizon: float
    seed: int
    y_cap: float = 500.0
    record_stride: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValidationError("step size must be finite and > 0")
        if not (math.isfinite(self.horizon) and self.horizon >= self.h):
            raise ValidationError("horizon must satisfy 0 < h <= horizon")
        if not 50.0 <= self.y_cap <= MAX_Y_CAP:
            raise ValidationError(f"y_cap must lie in [50, {MAX_Y_CAP:g}]")
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
    path_index: int = 0

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
# integrators: one kernel per scheme


def _shares(Z: np.ndarray) -> np.ndarray:
    """Simplex states from log-shares whose row maximum is 0, floored at ``STATE_FLOOR``."""
    x = np.exp(Z)
    x /= x.sum(axis=1, keepdims=True)
    np.maximum(x, STATE_FLOOR, out=x)
    return x


def _record_slots(cfg: SdeConfig) -> tuple[np.ndarray, dict[int, int]]:
    """Recorded times, and the row of each recorded step."""
    steps = cfg.record_steps()
    return steps * cfg.h, {int(k): row for row, k in enumerate(steps)}


def _draw_blocks(seed: int, paths, n: int, total_steps: int, scale: np.ndarray,
                 block: int, slot):
    """Draw each path's stream once, a block of steps at a time, and yield each
    block's increments times ``scale`` as a (steps, n, columns) view of
    ``slot(b)``, block ``b``'s buffer.  A lone path's fills every column."""
    gens = [rng.path_generator(seed, p) for p in paths]
    draws = np.empty((len(gens), block, n))
    for b, done in enumerate(range(0, total_steps, block)):
        take = min(block, total_steps - done)
        for g, rows in zip(gens, draws[:, :take]):
            g.standard_normal(out=rows)
        steps = slot(b)[:take]
        np.copyto(steps, draws[:, :take].transpose(1, 2, 0))
        steps *= scale      # in place: scaling while transposing is slower
        yield steps


def _in_daemon() -> bool:
    """Whether this is a daemonic process, such as a pool worker, which may not
    have children; without ``multiprocessing`` loaded it cannot be one."""
    mp = sys.modules.get("multiprocessing")
    return mp is not None and mp.current_process().daemon


def _increments(seed: int, paths, n: int, total_steps: int, scale: np.ndarray):
    """Blocks of each step's Gaussian increments times ``scale``, as (steps, n,
    columns) views valid until the next is taken; the caller may overwrite a
    block it holds.  A wide chunk of several blocks, run outside a daemonic
    process on a host with two usable CPUs, draws them in a forked producer."""
    columns = scale.shape[1]
    block = min(total_steps, max(1, _NOISE_BLOCK_FLOATS // (columns * n)))
    if (block < total_steps and columns * n >= _PIPE_MIN_DRAWS and _USABLE_CPUS >= 2
            and not _in_daemon()):
        yield from _produced_blocks(seed, paths, n, total_steps, scale, block)
    else:
        buf = np.empty((block, n, columns))
        yield from _draw_blocks(seed, paths, n, total_steps, scale, block, lambda b: buf)


def _produced_blocks(seed: int, paths, n: int, total_steps: int, scale: np.ndarray,
                     block: int):
    """:func:`_draw_blocks` run in a forked child, one block ahead of the caller.

    The child fills a two-slot ring in anonymous shared memory and sends one
    byte on ``filled`` per block; the caller sends one byte on ``freed`` when it
    takes the next block, which frees the slot of the last.  A child that fails
    sends its pickled exception instead, which the caller raises; a child whose
    caller has gone exits at its next read or write.  The child is killed and
    reaped when this generator finishes or is closed."""
    ring = np.frombuffer(mmap.mmap(-1, 2 * block * scale.size * 8))
    ring = ring.reshape(2, block, *scale.shape)
    filled_r, filled_w = os.pipe()
    freed_r, freed_w = os.pipe()
    pid = os.fork()
    if pid == 0:                                # the producer; never returns
        try:
            os.close(filled_r)
            os.close(freed_w)

            def slot(b: int) -> np.ndarray:
                if b >= 2 and not os.read(freed_r, 1):
                    os._exit(1)                 # the caller has gone
                return ring[b % 2]

            for _ in _draw_blocks(seed, paths, n, total_steps, scale, block, slot):
                os.write(filled_w, b"\1")
        except BaseException as exc:            # raised again by the caller
            with contextlib.suppress(BaseException):
                os.write(filled_w, b"\0" + pickle.dumps(exc))
            os._exit(1)
        finally:
            os._exit(0)
    os.close(filled_w)
    os.close(freed_r)
    try:
        for b, done in enumerate(range(0, total_steps, block)):
            if b:
                with contextlib.suppress(BrokenPipeError):    # the child may have finished
                    os.write(freed_w, b"\1")
            token = os.read(filled_r, 1)
            if token != b"\1":
                if not token:
                    raise SimulationError(f"noise producer exited before block {b}")
                with open(filled_r, "rb", closefd=False) as pipe:
                    raise pickle.load(pipe)
            yield ring[b % 2, :min(block, total_steps - done)]
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
        os.close(filled_r)
        os.close(freed_w)


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
               read_steps: float = math.inf) -> _ChunkResult:
    """Euler-Maruyama in log-share coordinates for a chunk of seeded paths, held as
    (n, columns) in buffers reused every step.  A lone path runs as two columns on
    one stream: BLAS gemv rounds ``A @ x`` differently from gemm for n >= 4, and a
    path must give the same bytes in any chunk.  Each step writes its shares over
    the increments it has just used, so a noise block ends up holding the states
    of its own steps; hit tests and records read them once per segment of
    ``_SEGMENT`` steps.  The loop runs through step ``read_steps`` (default: the
    horizon; 0: no record is read or kept), then on while some path has a region
    still to enter, to the end of the segment where the last one enters."""
    A = games.as_payoff_matrix(A)
    n = A.shape[0]
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
    sig = np.repeat(games.as_noise_vector(sigma, n)[:, None], columns, axis=1)
    half_var = 0.5 * sig * sig
    # |(A x)_j| <= max|A| on the simplex, so this bounds each step's drift term
    drift_reach = cfg.h * (float(np.abs(A).max()) + float(half_var.max()))
    h = np.array(cfg.h)
    cap = cfg.y_cap
    dot, exp, maximum = np.dot, np.exp, np.maximum     # dot: the gemm of matmul, less overhead
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    add_reduce, max_reduce, min_reduce = np.add.reduce, np.maximum.reduce, np.minimum.reduce

    noise = _increments(cfg.seed, paths, n, cfg.n_steps, math.sqrt(cfg.h) * sig)
    try:
        observe(own[None], 0)
        x, k = own, 0
        while k < read_steps or pending:
            block = next(noise, None)
            if block is None:
                break
            # A step lowers a log-share by at most twice its largest |drift + increment|,
            # so no step before ``check`` can reach the floor.  NaN or inf: check every step.
            reach = 2.0 * (drift_reach + max(block.max(), -block.min())) + _STEP_ROUNDING
            check = k + 1
            for lo in range(0, len(block), _SEGMENT):
                segment = block[lo:lo + _SEGMENT]
                for dw in segment:
                    k += 1
                    dot(A, x, out=step)
                    subtract(step, half_var, out=step)
                    multiply(step, h, out=step)
                    add(Z, step, out=Z)
                    add(Z, dw, out=Z)
                    subtract(Z, max_reduce(Z, axis=0, out=top, keepdims=True), out=Z)
                    if k >= check:
                        low = min_reduce(Z, axis=None)
                        if not low >= -cap:     # a floored share, or a non-finite one
                            bad = ~np.isfinite(Z[:, :m]).all(axis=0)
                            if bad.any():
                                raise SimulationError(
                                    f"non-finite log-shares at step {k} (t={cfg.h * k:g}) "
                                    f"for paths {[paths[i] for i in np.flatnonzero(bad)[:5]]}"
                                )
                            floored = (Z[:, :m] < -cap).any(axis=0)
                            first_floor[floored & (first_floor == math.inf)] = k * cfg.h
                            maximum(Z, -cap, out=Z)
                            low = -cap
                        span = (low + cap) / reach
                        check = k + 1 + (int(span) if span >= 0.0 else 0)
                    x = exp(Z, out=dw)
                    divide(x, add_reduce(x, axis=0, out=top, keepdims=True), out=x)
                observe(segment, k + 1 - len(segment))
                if k >= read_steps and not pending:
                    break
            np.copyto(own, x)       # the block's buffer goes back to the noise source
            x = own
    finally:
        noise.close()       # and with it any producer, also when a step has raised
    return _ChunkResult(times, states, first_floor, first_hit, k)


# ---------------------------------------------------------------------------
# single-run interfaces


def simulate_sde(A, sigma, x0, cfg: SdeConfig, path_index: int = 0) -> Trajectory:
    """Integrate the noisy dynamics from an interior state; one seeded path."""
    res = _sde_chunk(A, sigma, x0, cfg, [path_index])
    return Trajectory(times=res.times, states=res.states[0],
                      clamped=bool(res.clamped(None)[0]), seed=cfg.seed, path_index=path_index)


def simulate_ode(A, x0, cfg: SdeConfig) -> Trajectory:
    """Integrate the deterministic dynamics (classic fourth-order one-step method).

    The seed and noise-related fields of ``cfg`` are ignored.
    """
    A = games.as_payoff_matrix(A)
    n = A.shape[0]
    At = np.ascontiguousarray(A.T)
    times, slots = _record_slots(cfg)
    states = np.empty((times.size, n))
    x_start = games.as_simplex_point(x0, n, interior=True)
    Z = np.log(x_start)[None, :]
    h = cfg.h

    def force(Zv):
        return _shares(Zv - Zv.max(axis=1, keepdims=True)) @ At

    states[0] = x_start
    for k in range(1, cfg.n_steps + 1):
        k1 = force(Z)
        k2 = force(Z + 0.5 * h * k1)
        k3 = force(Z + 0.5 * h * k2)
        k4 = force(Z + h * k3)
        Z += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        row = slots.get(k)
        if row is not None:
            states[row] = _shares(Z - Z.max(axis=1, keepdims=True))[0]
    return Trajectory(times=times, states=states, clamped=False, seed=cfg.seed, path_index=0)


def simulate_sizes(A, sigma, z0, cfg: SdeConfig, path_index: int = 0) -> Trajectory:
    """Integrate raw subpopulation sizes and return the normalized path.

    The multiplicative Euler-Maruyama update acts on the sizes themselves
    (renormalized by their sum each step, which leaves the frequencies
    untouched and prevents overflow of the total).  Driven by the same seed
    and path index, the increments coincide with :func:`simulate_sde`'s, so
    the two normalized paths can be compared step by step; they agree up to
    discretization order, not exactly, because the schemes differ.  A step
    that would leave the positive cone raises :class:`SimulationError`.
    """
    A = games.as_payoff_matrix(A)
    n = A.shape[0]
    At = np.ascontiguousarray(A.T)
    z = np.array(z0, dtype=float).reshape(-1)
    if z.size != n or not np.all(np.isfinite(z)) or np.any(z <= 0.0):
        raise ValidationError("initial sizes must be finite and > 0")
    sig = games.as_noise_vector(sigma, n)
    times, slots = _record_slots(cfg)
    states = np.empty((times.size, n))
    h = cfg.h
    noise = _increments(cfg.seed, [path_index], n, cfg.n_steps, (math.sqrt(h) * sig)[:, None])

    Z = (z / z.sum())[None, :]
    states[0] = Z[0]
    for k, dw in enumerate(itertools.chain.from_iterable(noise), 1):
        growth = 1.0 + h * (Z @ At) + dw.T
        if np.any(growth <= 0.0) or not np.all(np.isfinite(growth)):
            raise SimulationError(
                f"size update left the positive cone at step {k} (t={k * h:g}); "
                "reduce the step size or the noise"
            )
        Z = Z * growth
        Z /= Z.sum(axis=1, keepdims=True)
        row = slots.get(k)
        if row is not None:
            states[row] = Z[0]
    return Trajectory(times=times, states=states, clamped=False, seed=cfg.seed,
                      path_index=path_index)


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
    rate: float | None = None
    sigma_max: float | None = None
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
    if kind == "decay_envelope_ratio":
        envelope = st.rate * times
        big = times > math.e
        envelope[big] -= 3.0 * st.sigma_max * np.sqrt(times[big] * np.log(np.log(times[big])))
        m = states[:, :, st.j] * np.exp(envelope)
        half = times[-1] / 2.0
        early = m[:, times <= half].max(axis=1)
        return m[:, times > half].max(axis=1) / np.maximum(early, 1e-300)
    if kind == "captured":
        stayed = st.region.contains(states).all(axis=1)
        return (stayed & (states[:, -1, st.j] > 1.0 - st.level)).astype(float)
    raise ValidationError(f"unknown statistic kind {kind!r}")


def final_share(j: int) -> Statistic:
    return Statistic(name=f"final_share_{j}", kind="final_share", j=j)


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


def decay_envelope_ratio_stat(k: int, rate: float, sigma_max: float) -> Statistic:
    """Late-to-early ratio of the exponential-envelope-compensated share.

    Per path, ``M(t) = x_k(t) * exp(rate * t - 3 sigma_max sqrt(t log log t))``
    (the square-root term applies only once ``log log t`` is positive); the
    statistic is ``max M over the late half / max M over the early half`` and
    values below one indicate decay faster than the envelope.
    """
    return Statistic(name=f"decay_envelope_ratio_{k}", kind="decay_envelope_ratio",
                     j=k, rate=float(rate), sigma_max=float(sigma_max))


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
        """Always 0: the log-share scheme that batches run cannot abort a path
        (only :func:`simulate_sizes` can, and it raises instead)."""
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


def _chunk_values(job, span: tuple[int, int]) -> list[tuple[np.ndarray, int]]:
    """Each statistic's values and clamped-path count on the chunk ``span``."""
    A, sigma, x0, cfg, sorted_paths, hit_regions, read_steps, stats = job
    res = _sde_chunk(A, sigma, x0, cfg, sorted_paths[slice(*span)], hit_regions, read_steps)
    return [(_reduce(st, res.times, res.states, res.first_hit.get(st.hit_region)),
             int(res.clamped(st.hit_region).sum())) for st in stats]


_worker_job = None      # a pool worker's batch, set once by its initializer


def _adopt_job(job) -> None:
    global _worker_job
    _worker_job = job


def _worker_chunk(span: tuple[int, int]) -> list[tuple[np.ndarray, int]]:
    return _chunk_values(_worker_job, span)


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
    job = (A, sigma, x0, cfg, [path_indices[i] for i in order], hit_regions, read_steps,
           list(statistics.values()))
    count = -(-n_paths // chunk)                # chunks of equal size, give or take one
    bounds = [n_paths * i // count for i in range(count + 1)]
    spans = list(zip(bounds, bounds[1:]))

    workers = min(_USABLE_CPUS, count)
    if workers > 1 and not _in_daemon():        # a daemonic process may not have children
        import multiprocessing      # about 15 ms, paid only by multi-chunk batches
        # fork hands ``job`` to each worker without pickling it; only chunk spans
        # and per-path values cross the pipe.  ``imap`` reports the lowest failing
        # chunk, as the in-process loop does.
        with multiprocessing.get_context("fork").Pool(workers, _adopt_job, (job,)) as pool:
            done = list(pool.imap(_worker_chunk, spans))
    else:
        done = [_chunk_values(job, span) for span in spans]

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


def trajectory_csv_text(traj: Trajectory) -> str:
    """CSV with header ``t,x_1,...,x_n`` at full double precision."""
    n = traj.n_strategies
    header = "t," + ",".join(f"x_{j + 1}" for j in range(n)) + "\n"
    row = ",".join(["%.17g"] * (n + 1)) + "\n"
    values = np.column_stack([traj.times, traj.states]).ravel().tolist()
    return header + row * traj.times.size % tuple(values)
