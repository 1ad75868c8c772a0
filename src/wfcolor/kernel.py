"""The cycle protocols on whole arrays: a numpy restatement of `engine.step`.

`run` steps slow6, slow5 and fast5 on a 2-regular graph. The states and the
registers are (4, n) int64 tables whose rows are x, a, b and r; an unwritten
register holds x = -1, which no identifier equals, and fast5's frozen
counter is `protocols.INFINITE`, the same int as in a ProtocolState. A step
writes the movers' columns into the register table, gathers each mover's
two neighbor registers through a (2, n) adjacency array and applies the
protocol's transition to all movers at once. `cv_reduce` gets bit lengths
from `np.frexp`, which is exact below 2**53, and the least color missing
from a bitmask is a table lookup. Sync, rand and crash schedules reach a
step as bool masks built without a node set (see `_activation_masks`).

Observers get one `_Record` per step, read by field name (it is not a tuple).
It holds the step's arrays and builds each StepRecord field on first read, so
an observer that reads only its arrays, as `XhatColoringObserver` does, builds
no ProtocolState; nor does the run, which leaves registers and states initial.

`engine.step` stays the one definition of the step; tests/test_kernel.py
checks this restatement against it. `engine.run` sends a run here only when
no step records are kept, the graph is large and every identifier lies
below 2**53 (see `engine.KERNEL_MIN_NODES`).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .engine import Execution
from .protocols import FAST5, INFINITE, SLOW5, SLOW6, _continue, _return, mex, new_states
from .schedulers import CrashSched, RandomSched, Scheduler, Synchronous, random_stream

X, A, B, R = range(4)  # the rows of a state or register table
_MEX = np.array([mex(c for c in range(6) if m >> c & 1) for m in range(64)], dtype=np.int64)


def _bit_length(z: np.ndarray) -> np.ndarray:
    """int.bit_length of each natural below 2**53, where float64 is exact."""
    return np.frexp(z.astype(np.float64))[1].astype(np.int64)


def cv_reduce(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """cointoss.cv_reduce, elementwise over naturals below 2**53."""
    diff = x ^ y
    # the position of the lowest differing bit: the ones below it, 64 when x == y
    low = np.bitwise_count(((diff & -diff) - 1).view(np.uint64))
    i = np.minimum(_bit_length(np.minimum(x, y)), low)
    return 2 * i + (x >> i & 1)


# A transition takes the movers' states (4, k), the registers they read
# (4, 2, k: field, neighbor, mover) and which of those are written (2, k).
# It returns which movers return, their colors as rows (two for a pair, one
# for a scalar) and the next states of the others.

def _two_sided(pre, view, written):
    x, a, b, _ = pre
    vx, va, vb, _ = view
    hit = written & (va == a) & (vb == b)
    above = np.where(written & (vx > x), 1 << va, 0)
    below = np.where(written & (vx < x), 1 << vb, 0)
    new = pre.copy()
    new[A] = _MEX.take(above[0] | above[1])
    new[B] = _MEX.take(below[0] | below[1])
    return ~(hit[0] | hit[1]), pre[A:B + 1], new


def _five_color(pre, view, written):
    x, a, b, _ = pre
    bits = np.where(written, 1 << view[A] | 1 << view[B], 0)
    above = np.where(view[X] > x, bits, 0)
    seen = bits[0] | bits[1]
    fresh_a = (seen >> a & 1) == 0
    fresh_b = (seen >> b & 1) == 0
    new = pre.copy()
    new[A] = _MEX.take(above[0] | above[1])
    new[B] = _MEX.take(seen)
    return fresh_a | fresh_b, np.where(fresh_a, a, b)[None], new


def _fast5(pre, view, written):
    returns, colors, new = _five_color(pre, view, written)
    x, r = pre[X], pre[R]
    (x0, x1), (r0, r1) = view[X], view[R]
    # the identifier move, for the continuing movers whose counter may move
    moving = np.flatnonzero(~returns & written[0] & written[1] & (r < INFINITE) & (r <= r0) & (r <= r1))
    if not len(moving):
        return returns, colors, new
    x, x0, x1, r = (column.take(moving) for column in (x, x0, x1, r))
    lo, hi = np.minimum(x0, x1), np.maximum(x0, x1)
    between = (lo < x) & (x < hi)
    y = cv_reduce(x, lo)
    # mex of the two reductions against x is at most 2, so 5 stands in for any larger one
    c0, c1 = (np.minimum(cv_reduce(v, x), 5) for v in (x0, x1))
    drop = np.minimum(x, _MEX.take(1 << c0 | 1 << c1))
    new[X, moving] = np.where(between, np.where(y < lo, y, x), np.where(x < lo, drop, x))
    new[R, moving] = np.where(between, r + 1, INFINITE)
    return returns, colors, new


_TRANSITIONS = {SLOW6: _two_sided, SLOW5: _five_color, FAST5: _fast5}


def _put(table: np.ndarray, nodes: np.ndarray, columns: np.ndarray) -> None:
    """table[:, nodes] = columns, a row at a time: three times as fast as
    indexing both axes at once."""
    for row, values in zip(table, columns):
        row[nodes] = values


# --- conversions between tables and the engine's objects ---------------------

def _states(protocol: str, table: np.ndarray) -> list:
    """The ProtocolStates of a table's columns; None where x = -1."""
    x, a, b, r = table.tolist()
    # tolist makes an int object per entry; frozen counters share INFINITE's,
    # 32 bytes less per frozen state
    r = [INFINITE if v == INFINITE else v for v in r] if protocol == FAST5 else repeat(None)
    states = new_states(zip(x, a, b, r))
    for i in np.flatnonzero(table[X] < 0).tolist():
        states[i] = None
    return states


def _colors(rows: np.ndarray) -> list:
    """The colors in the columns of an output table: pairs, or scalars."""
    return list(zip(*rows.tolist())) if len(rows) == 2 else rows[0].tolist()


class _Masks:
    """Bool masks of node sets. The last set converted is kept, since
    support_after hands over the same frozenset until its answer changes."""

    def __init__(self, n: int):
        self._n = n
        self._nodes = self._mask = None

    def __call__(self, nodes: frozenset[int]) -> np.ndarray:
        if nodes is not self._nodes:
            mask = np.zeros(self._n, dtype=bool)
            mask[np.fromiter(nodes, dtype=np.int64, count=len(nodes))] = True
            self._nodes, self._mask = nodes, mask
        return self._mask


def _activation_masks(scheduler: Scheduler, n: int):
    """t -> sigma(t) as a bool mask. Sync is one all-true mask. A rand:
    schedule's draws come from one reused RandomState loaded with the state
    of random_stream(seed, t): both generators build a double from two
    32-bit words the same way. A crash schedule clears, in a copy of its
    base's mask, each node whose crash time t has reached."""
    d = scheduler.descriptor
    if isinstance(d, Synchronous):
        every = np.ones(n, dtype=bool)
        return lambda t: every
    if isinstance(d, CrashSched):
        base = _activation_masks(scheduler._base, n)

        def crashed(t: int) -> np.ndarray:
            mask = base(t)
            dead = [node for node, start in d.crash_times if t >= start]
            if dead:
                mask = mask.copy()
                mask[dead] = False
            return mask

        return crashed
    if isinstance(d, RandomSched):
        generator = np.random.RandomState()

        def draw(t: int) -> np.ndarray:
            key = random_stream(d.seed, t).getstate()[1]
            generator.set_state(("MT19937", key[:624], key[624]))
            return generator.random_sample(n) < d.p_act

        return draw
    masks = _Masks(n)
    return lambda t: masks(scheduler.at(t))


# --- step records -------------------------------------------------------------

class _Record:
    """A step's record: `t`, the movers, the ids they wrote (`written`) and
    read (`read`, (k, 2), -1 for an unwritten register) as arrays, and each
    StepRecord field, built from the step's arrays on first read."""

    def __init__(self, t, protocol, active, movers, pre, view, returns, colors, new):
        self.t, self.movers, self.written, self.read = t, movers, pre[X], view[X].T
        self._protocol, self._active, self._pre, self._view = protocol, active, pre, view
        self._returns, self._colors, self._new = returns, colors, new

    @cached_property
    def activated(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self._active).tolist())

    @cached_property
    def writes(self) -> dict:
        return dict(zip(self.movers.tolist(), _states(self._protocol, self._pre)))

    @cached_property
    def reads(self) -> dict:
        left, right = (_states(self._protocol, side) for side in self._view.swapaxes(0, 1))
        return dict(zip(self.movers.tolist(), zip(left, right)))

    @cached_property
    def decisions(self) -> dict:
        states = _states(self._protocol, self._new)
        decisions = [_return((c,)) if ret else _continue((s,)) for ret, c, s
                     in zip(self._returns.tolist(), _colors(self._colors), states)]
        return dict(zip(self.movers.tolist(), decisions))


# --- the run -------------------------------------------------------------------

def run(execution: Execution, scheduler: Scheduler, horizon: int, observers=()) -> int | None:
    """engine.run's loop without kept records: step a fresh execution under
    the scheduler for at most horizon steps, calling each observer with every
    step's record, and set in the execution only what the trace reports.
    Returns tstar, or None when the horizon ran out. The tables start from
    the ids alone, as the execution is fresh: every state initial, every
    register unwritten and every node working. The run stops once no node
    of the scheduler's support_after(t + 1) is working; a None support
    stands for every node, so the run then asks working.any(), and only a
    support that is a set is converted to a mask."""
    protocol = execution.protocol
    transition = _TRANSITIONS[protocol]
    n = execution.graph.node_count
    adjacency = np.fromiter(chain.from_iterable(execution.graph.adjacency), np.int64, 2 * n)
    adjacency = adjacency.reshape(n, 2).T.copy()
    states = np.zeros((4, n), dtype=np.int64)
    states[X] = execution.ids.ids
    registers = np.zeros_like(states)
    registers[X] = -1
    working = np.ones(n, dtype=bool)
    activations = np.zeros(n, dtype=np.int64)
    outputs = np.zeros((2 if protocol == SLOW6 else 1, n), dtype=np.int64)
    returned_at = np.zeros(n, dtype=np.int64)  # step of return, to list returns in order
    activation_mask = _activation_masks(scheduler, n)
    support_mask = _Masks(n)
    last_move, terminated = 0, False
    for t in range(1, horizon + 1):
        active = activation_mask(t)
        movers = np.flatnonzero(active & working)
        pre = states.take(movers, axis=1)
        _put(registers, movers, pre)
        view = registers.take(adjacency.take(movers, axis=1), axis=1)
        returns, colors, new = transition(pre, view, view[X] >= 0)
        stay = ~returns
        _put(states, movers.compress(stay), new.compress(stay, axis=1))
        gone = movers.compress(returns)
        working[gone] = False
        _put(outputs, gone, colors.compress(returns, axis=1))
        returned_at[gone] = t
        activations[movers] += 1
        if len(movers):
            last_move = t
        if observers:
            record = _Record(t, protocol, active, movers, pre, view, returns, colors, new)
            for observer in observers:
                observer(record)
        support = scheduler.support_after(t + 1)  # None: every node
        if not (working if support is None else working & support_mask(support)).any():
            terminated = True
            break

    execution._t = t
    execution.last_move = last_move
    execution.activations[:] = activations.tolist()
    gone = np.flatnonzero(returned_at)
    gone = gone[np.argsort(returned_at[gone], kind="stable")]
    execution.returned.update(zip(gone.tolist(), _colors(outputs[:, gone])))
    return last_move if terminated else None
