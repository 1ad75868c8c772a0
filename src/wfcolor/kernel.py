"""The cycle protocols on whole arrays: a numpy restatement of `engine.step`.

`run` steps slow6, slow5 and fast5 on a 2-regular graph. The states and the
registers hold one 1-D array per field: x is int64, and an unwritten
register holds x = -1, which no identifier equals; the colors a and b are
uint8, as are the color bitmasks the transitions build (a color is at most
4, so a mask stays below 64); fast5's counter r is int64, its frozen value
`protocols.INFINITE`, the same int as in a ProtocolState, and slow6 and
slow5, which never read r, have no r array. A step writes the movers'
fields into the registers, gathers each mover's two neighbor registers
through a (2, n) adjacency array, built once per graph (`_Adjacency`), and
applies the protocol's transition to all movers at once. Each step lists
its returners and their colors as they happen; the run concatenates the
lists at the end, which is the reference order of returns: by step, then by
node. `cv_reduce` gets bit lengths from `np.frexp`, which is exact below
2**53, and the least color missing from a bitmask is a table lookup. Sync,
rand and crash schedules reach a step as bool masks built without a node
set (see `_activation_masks`). On the 10**5-cycle a fast5 run takes 1/25 to
1/33 of the reference loop's time; the first run on a graph also builds its
adjacency array, about 8 ms (README, "Large cycles").

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

import weakref
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .engine import Execution
from .protocols import FAST5, INFINITE, SLOW5, SLOW6, _continue, _return, mex, new_states
from .schedulers import CrashSched, RandomSched, Scheduler, Synchronous, random_stream

_MEX = np.array([mex(c for c in range(6) if m >> c & 1) for m in range(64)], dtype=np.uint8)


def cv_reduce(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """cointoss.cv_reduce, elementwise over naturals below 2**53. It works in
    place where it can: at 10**5 entries, a fresh array costs about as much
    in page faults as the arithmetic that fills it."""
    low = x ^ y
    low &= -low
    low -= 1  # the ones below the lowest differing bit, all 64 when x == y
    # int.bit_length of the smaller, as float64's exponent, exact below 2**53
    i = np.frexp(np.minimum(x, y).astype(np.float64))[1]
    np.minimum(i, np.bitwise_count(low.view(np.uint64)), out=i)
    reduced = x >> i
    reduced &= 1
    reduced += 2 * i
    return reduced


# A transition takes the movers' states, the registers they read and which of
# those are written ((2, k): neighbor, mover). States and registers are tuples
# of fields (x, a, b, r): a state's fields have shape (k,), a register's (2, k),
# and r is None but for fast5. A transition returns which movers return, their
# colors as a tuple of arrays (two for a pair, one for a scalar) and the next
# states of all movers, in which a field that did not change is the state's own.

def _pick(cond, yes, no):
    """np.where(cond, yes, no) for integers, without np.where's branch per
    entry, which costs twenty times as much on a mask with no pattern."""
    return no ^ (yes ^ no) * cond


def _two_sided(pre, view, written):
    x, a, b, r = pre
    vx, va, vb, _ = view
    hit = written & (va == a) & (vb == b)
    above = (1 << va) * (written & (vx > x))
    below = (1 << vb) * (written & (vx < x))
    new = (x, _MEX.take(above[0] | above[1]), _MEX.take(below[0] | below[1]), r)
    return ~(hit[0] | hit[1]), (a, b), new


def _five_color(pre, view, written):
    x, a, b, r = pre
    vx, va, vb, _ = view
    bits = (1 << va | 1 << vb) * written
    above = bits * (vx > x)
    seen = bits[0] | bits[1]
    fresh_a = (seen >> a & 1) == 0
    fresh_b = (seen >> b & 1) == 0
    new = (x, _MEX.take(above[0] | above[1]), _MEX.take(seen), r)
    return fresh_a | fresh_b, (_pick(fresh_a, a, b),), new


def _fast5(pre, view, written):
    returns, colors, (x, a, b, r) = _five_color(pre, view, written)
    (x0, x1), _, _, (r0, r1) = view
    # the identifier move, for the continuing movers whose counter may move
    move = ~returns & written[0] & written[1] & (r < INFINITE) & (r <= r0) & (r <= r1)
    if not move.any():
        return returns, colors, (x, a, b, r)
    lo = np.minimum(x0, x1)
    between = move & (lo < x) & (x < np.maximum(x0, x1))
    local_min = move & (x < lo)
    next_r = r + between  # a mover strictly between bumps its counter, any other freezes it
    next_r[move & ~between] = INFINITE
    next_x = x.copy()
    # strictly between: the reduction against the smaller neighbor, if it lands below it
    nodes = np.flatnonzero(between)
    xb, lo = x.take(nodes), lo.take(nodes)
    y = cv_reduce(xb, lo)
    next_x[nodes] = _pick(y < lo, y, xb)
    # a local minimum: the least value avoiding both neighbors' reductions
    # against it, if smaller; that mex is at most 2, so 5 stands in for any
    # larger reduction
    nodes = np.flatnonzero(local_min)
    xm = x.take(nodes)
    c0, c1 = (np.minimum(cv_reduce(v.take(nodes), xm), 5) for v in (x0, x1))
    next_x[nodes] = np.minimum(xm, _MEX.take(1 << c0 | 1 << c1))
    return returns, colors, (next_x, a, b, next_r)


_TRANSITIONS = {SLOW6: _two_sided, SLOW5: _five_color, FAST5: _fast5}


def _fields(protocol: str, x: np.ndarray) -> tuple:
    """The fields (x, a, b, r) of len(x) states or registers: colors and
    counters 0, and no counter but for fast5."""
    n = len(x)
    r = np.zeros(n, dtype=np.int64) if protocol == FAST5 else None
    return x, np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8), r


def _take(fields: tuple, index: np.ndarray) -> tuple:
    """The fields' entries at index; a missing field stays None."""
    return tuple(None if field is None else field.take(index) for field in fields)


# --- conversions between arrays and the engine's objects -----------------------

def _states(protocol: str, fields: tuple) -> list:
    """The ProtocolStates of fields (x, a, b, r); None where x = -1."""
    x, a, b, r = fields
    # tolist makes an int object per entry; frozen counters share INFINITE's,
    # 32 bytes less per frozen state
    r = repeat(None) if r is None else [INFINITE if v == INFINITE else v for v in r.tolist()]
    states = new_states(zip(x.tolist(), a.tolist(), b.tolist(), r))
    for i in np.flatnonzero(x < 0).tolist():
        states[i] = None
    return states


def _colors(colors: tuple) -> list:
    """The colors of an output's arrays: pairs, or scalars."""
    return list(zip(*(c.tolist() for c in colors))) if len(colors) == 2 else colors[0].tolist()


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


class _Adjacency:
    """The (2, n) neighbor array of a 2-regular graph, read-only. The last
    graph's array is kept, as a sweep or a benchmark runs one graph again and
    again; a weak reference holds the graph, and its callback drops the array
    with the graph. Not a WeakKeyDictionary: a Graph hashes by value, which
    reads all n adjacency tuples."""

    def __init__(self):
        # (a weak reference to the graph, its array) in one attribute, so that
        # no thread reads one graph's reference with another graph's array
        self._last = None

    def __call__(self, graph) -> np.ndarray:
        last = self._last
        if last is not None and last[0]() is graph:
            return last[1]
        n = graph.node_count
        array = np.fromiter(chain.from_iterable(graph.adjacency), np.int64, 2 * n)
        array = array.reshape(n, 2).T.copy()
        array.flags.writeable = False
        self._last = weakref.ref(graph, self._forget), array
        return array

    def _forget(self, ref) -> None:
        last = self._last
        if last is not None and last[0] is ref:
            self._last = None


_adjacency = _Adjacency()


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
        self.t, self.movers, self.written, self.read = t, movers, pre[0], view[0].T
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
        left, right = (_states(self._protocol, [None if f is None else f[side] for f in self._view])
                       for side in (0, 1))
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
    Returns tstar, or None when the horizon ran out. The step arrays are
    gone before the per-node results are built, which are the run's peak."""
    t, last_move, terminated, activations, returners, outputs = _steps(
        execution, scheduler, horizon, observers
    )
    execution._t = t
    execution.last_move = last_move
    execution.activations[:] = activations.tolist()
    if returners:
        colors = tuple(np.concatenate(column) for column in zip(*outputs))
        execution.returned.update(zip(np.concatenate(returners).tolist(), _colors(colors)))
    return last_move if terminated else None


def _steps(execution: Execution, scheduler: Scheduler, horizon: int, observers):
    """The steps of run: the last step, the last one with a mover, whether
    the run terminated, the activation counts, and each step's returners
    and their colors, for the steps with any. The arrays start from the ids
    and the graph's adjacency array alone, as the execution is fresh: every
    state initial, every register unwritten and every node working. The
    run stops once no node of the scheduler's support_after(t + 1) is
    working; a None support stands for every node, so the run then asks
    working.any(), and only a support that is a set is converted to a
    mask."""
    protocol = execution.protocol
    transition = _TRANSITIONS[protocol]
    n = execution.graph.node_count
    adjacency = _adjacency(execution.graph)
    states = _fields(protocol, np.fromiter(execution.ids.ids, np.int64, n))
    registers = _fields(protocol, np.full(n, -1, dtype=np.int64))
    working = np.ones(n, dtype=bool)
    activations = np.zeros(n, dtype=np.int64)
    returners, outputs = [], []  # per step with returns, in node order
    activation_mask = _activation_masks(scheduler, n)
    support_mask = _Masks(n)
    last_move, terminated = 0, False
    for t in range(1, horizon + 1):
        active = activation_mask(t)
        moves = active & working
        movers = np.flatnonzero(moves)
        pre = _take(states, movers)
        for register, values in zip(registers, pre):
            if register is not None:
                register[movers] = values
        view = _take(registers, adjacency.take(movers, axis=1))
        returns, colors, new = transition(pre, view, view[0] >= 0)
        # a returner never moves again, so its state may take any value
        for state, before, after in zip(states, pre, new):
            if after is not before:  # a field the transition changed
                state[movers] = after
        gone = movers.compress(returns)
        if len(gone):
            working[gone] = False
            returners.append(gone)
            outputs.append([color.compress(returns) for color in colors])
        activations += moves
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
    return t, last_move, terminated, activations, returners, outputs
