"""The four coloring protocols as pure per-activation transition functions.

Every activation takes the process's state together with the registers read
from its neighbors and yields a decision: either the final color, or the next
state. A state is exactly what its register holds, the identifier x, the
color components a and b and, for fast5, the counter r; it is an immutable
ProtocolState, so the write stores the object itself. Which protocol a state
belongs to is the caller's to know: an execution, a trace and a model check
each run one protocol. A frozen fast5 counter is INFINITE, an int above any
counter a run reaches. An unwritten neighbor register reads as None; it
equals no color and contributes to no comparison set, so a process that sees
only unwritten registers returns immediately.

A transition builds its Return, Continue and ProtocolState through
_return, _continue and _new_state: tuple.__new__ bound to each class, which
gives the same namedtuple at C speed, without the class's Python-level
__new__. Each takes the tuple of all fields; a state's has all four, with r
None but for fast5, since no default fills in a missing one.

slow6   two-sided color pair (a, b), palette {(a, b) : a + b <= 2}, cycles
slow5   scalar color from {0..4} chosen between the a and b components, cycles
fast5   slow5 plus a counter-gated identifier reduction, cycles
deltasq slow6 generalized to any degree, palette {(a, b) : a + b <= Delta}
"""

from __future__ import annotations

import gc
from functools import partial
from typing import Iterable, NamedTuple, Sequence, Union

from .cointoss import cv_reduce

INFINITE = 1 << 62  # a frozen fast5 counter; r + 1 still fits in int64

SLOW6 = "slow6"
SLOW5 = "slow5"
FAST5 = "fast5"
DELTASQ = "deltasq"

PROTOCOLS = (SLOW6, SLOW5, FAST5, DELTASQ)
CYCLE_ONLY = (SLOW6, SLOW5, FAST5)


class ProtocolState(NamedTuple):
    """A process's state, which is also what its register holds once
    written; r is used by fast5 only."""

    x: int
    a: int = 0
    b: int = 0
    r: int | None = None


class Return(NamedTuple):
    color: Union[int, tuple[int, int]]


class Continue(NamedTuple):
    state: ProtocolState


# Class(*fields) at C speed, given the tuple of all fields (see above)
_new_state = partial(tuple.__new__, ProtocolState)
_return = partial(tuple.__new__, Return)
_continue = partial(tuple.__new__, Continue)


class CollectorPaused:
    """A block that runs with the cyclic collector paused, for one that
    builds many containers that cannot form a reference cycle: the
    collections that 10^5 new tuples set off would walk them all, and can
    double the block's time."""

    __slots__ = ("_enabled",)

    def __enter__(self) -> None:
        self._enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self._enabled:
            gc.enable()


def new_states(fields: Iterable[tuple]) -> list[ProtocolState]:
    """ProtocolState(x, a, b, r) for each (x, a, b, r) in fields, in one
    C-level pass, with the collector paused."""
    with CollectorPaused():
        return list(map(_new_state, fields))


Decision = Union[Return, Continue]
View = Union[ProtocolState, None]

Color = Union[int, tuple[int, int]]


def initial_state(protocol: str, x: int) -> ProtocolState:
    """Fresh state for input identifier x: colors zero, counter zero."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    return ProtocolState(x, 0, 0, 0 if protocol == FAST5 else None)


def mex(values: Iterable[int]) -> int:
    """Least natural number absent from values."""
    present = values if isinstance(values, (set, frozenset)) else set(values)
    m = 0
    while m in present:
        m += 1
    return m


# The comparison sets below are int bitmasks, bit c standing for color c; the
# least color absent from a mask m is the index of its lowest clear bit,
# ((m + 1) & ~m).bit_length() - 1.

def deltasq_activate(state: ProtocolState, views: Sequence[View]) -> Decision:
    """One activation of the general-graph protocol: the two-sided rule of
    slow6 over an arbitrary number of neighbor views."""
    x, a, b = state.x, state.a, state.b
    fresh = True
    above = below = 0
    for v in views:
        if v is None:
            continue
        if v.a == a and v.b == b:
            fresh = False
        if v.x > x:
            above |= 1 << v.a
        elif v.x < x:
            below |= 1 << v.b
    if fresh:
        return _return(((a, b),))
    a = ((above + 1) & ~above).bit_length() - 1
    b = ((below + 1) & ~below).bit_length() - 1
    return _continue((_new_state((x, a, b, None)),))


def _five_color_step(state: ProtocolState, views: Sequence[View]) -> Return | tuple[int, int]:
    """The coloring half of slow5 and fast5: the Return when a or b is fresh,
    else the refreshed pair (mex(C+), mex(C))."""
    x = state.x
    seen = above = 0
    for v in views:
        if v is None:
            continue
        bits = 1 << v.a | 1 << v.b
        seen |= bits
        if v.x > x:
            above |= bits
    if not seen >> state.a & 1:
        return _return((state.a,))
    if not seen >> state.b & 1:
        return _return((state.b,))
    a = ((above + 1) & ~above).bit_length() - 1
    b = ((seen + 1) & ~seen).bit_length() - 1
    return a, b


def slow6_activate(state: ProtocolState, views: Sequence[View]) -> Decision:
    """One activation of the 6-color protocol.

    Returns the pair (a, b) when it differs from both visible neighbor
    colors; otherwise recomputes a against larger-identifier neighbors and b
    against smaller-identifier ones.
    """
    if len(views) != 2:
        raise ValueError(f"slow6 expects 2 neighbor views, got {len(views)}")
    return deltasq_activate(state, views)


def slow5_activate(state: ProtocolState, views: Sequence[View]) -> Decision:
    """One activation of the 5-color protocol.

    With C the visible neighbor color components and C+ those of
    larger-identifier neighbors: return a if fresh, else b if fresh, else
    continue with a = mex(C+) and b = mex(C). C+ being a subset of C keeps
    b >= a on every state this produces.
    """
    if len(views) != 2:
        raise ValueError(f"slow5 expects 2 neighbor views, got {len(views)}")
    step = _five_color_step(state, views)
    if type(step) is Return:
        return step
    return _continue((_new_state((state.x, *step, None)),))


def fast5_activate(state: ProtocolState, views: Sequence[View]) -> Decision:
    """One activation of the fast 5-color protocol.

    The coloring half is exactly the 5-color protocol. On a miss, a process
    whose counter does not exceed either visible neighbor counter gets one
    identifier move: strictly-between processes bump the counter and adopt
    the reduction against their smaller neighbor when it lands below it;
    local extrema freeze the counter, and a local minimum may drop to the
    smallest value avoiding both neighbors' reductions against it.

    With an unwritten neighbor register the identifier half is skipped
    entirely: the counter comparison is undefined at that point, and with a
    frozen identifier the step degenerates to the plain 5-color protocol,
    which is safe.
    """
    if len(views) != 2:
        raise ValueError(f"fast5 expects 2 neighbor views, got {len(views)}")
    step = _five_color_step(state, views)
    if type(step) is Return:
        return step
    a, b = step
    v0, v1 = views
    x = state.x
    r, next_x = state.r, x
    if v0 is not None and v1 is not None and r < INFINITE and r <= v0.r and r <= v1.r:
        if v0.x < v1.x:
            lo, hi = v0.x, v1.x
        else:
            lo, hi = v1.x, v0.x
        if lo < x < hi:
            r = r + 1
            y = cv_reduce(x, lo)
            if y < lo:
                next_x = y
        else:
            r = INFINITE
            if x < lo:
                next_x = min(x, mex((cv_reduce(v0.x, x), cv_reduce(v1.x, x))))
    return _continue((_new_state((next_x, a, b, r)),))


ACTIVATE = {
    SLOW6: slow6_activate,
    SLOW5: slow5_activate,
    FAST5: fast5_activate,
    DELTASQ: deltasq_activate,
}


def palette_ok(protocol: str, color: Color, delta: int = 2) -> bool:
    """Whether an output color lies in the protocol's declared palette: a
    pair (a, b) of naturals with a + b <= 2 (slow6) or <= delta (deltasq),
    or an int 0..4 (slow5, fast5). A bool is not an int here."""
    if protocol in (SLOW6, DELTASQ):
        if not (isinstance(color, tuple) and len(color) == 2):
            return False
        a, b = color
        return (
            type(a) is int
            and type(b) is int
            and 0 <= a
            and 0 <= b
            and a + b <= (2 if protocol == SLOW6 else delta)
        )
    if protocol in (SLOW5, FAST5):
        return type(color) is int and 0 <= color <= 4
    raise ValueError(f"unknown protocol {protocol!r}")
