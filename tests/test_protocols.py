"""Transition-function tests.

Expected values for the multi-step scenarios were worked out by hand from
the per-line rules (write, read both neighbors, compare, recompute the color
components via least-excluded-value scans).
"""

import pytest
from hypothesis import given, strategies as st

from wfcolor.protocols import (
    ACTIVATE,
    Continue,
    DELTASQ,
    FAST5,
    INFINITE,
    ProtocolState,
    Return,
    SLOW5,
    SLOW6,
    deltasq_activate,
    fast5_activate,
    initial_state,
    mex,
    palette_ok,
    slow5_activate,
    slow6_activate,
)


def rec(x, a=0, b=0):
    return ProtocolState(x, a, b)


def frec(x, r=0, a=0, b=0):
    return ProtocolState(x, a, b, r)


def test_mex_examples():
    assert mex(set()) == 0
    assert mex({0, 1, 3}) == 2
    assert mex({1, 2}) == 0


def test_initial_states():
    assert initial_state(SLOW6, 7) == ProtocolState(7, 0, 0, None)
    assert initial_state(FAST5, 7) == ProtocolState(7, 0, 0, 0)
    with pytest.raises(ValueError):
        initial_state("other", 7)


# --- slow6 ------------------------------------------------------------------

def test_slow6_isolated_returns_zero_pair():
    decision = slow6_activate(initial_state(SLOW6, 5), (None, None))
    assert decision == Return((0, 0))


def test_slow6_first_synchronous_round_on_triangle():
    # ids 5, 1, 9; everyone sees colliding (0,0) colors and recomputes
    d5 = slow6_activate(initial_state(SLOW6, 5), (rec(1), rec(9)))
    d1 = slow6_activate(initial_state(SLOW6, 1), (rec(5), rec(9)))
    d9 = slow6_activate(initial_state(SLOW6, 9), (rec(5), rec(1)))
    assert d5 == Continue(ProtocolState(5, 1, 1))
    assert d1 == Continue(ProtocolState(1, 1, 0))
    assert d9 == Continue(ProtocolState(9, 0, 1))


def test_slow6_second_synchronous_round_returns_distinct_colors():
    d5 = slow6_activate(
        ProtocolState(5, 1, 1), (rec(1, 1, 0), rec(9, 0, 1))
    )
    d1 = slow6_activate(
        ProtocolState(1, 1, 0), (rec(5, 1, 1), rec(9, 0, 1))
    )
    d9 = slow6_activate(
        ProtocolState(9, 0, 1), (rec(5, 1, 1), rec(1, 1, 0))
    )
    colors = {d5.color, d1.color, d9.color}
    assert colors == {(1, 1), (1, 0), (0, 1)}


def test_slow6_wrong_arity():
    with pytest.raises(ValueError):
        slow6_activate(initial_state(SLOW6, 5), (None, None, None))


@pytest.mark.parametrize("protocol, activate", [(SLOW5, slow5_activate), (FAST5, fast5_activate)])
@pytest.mark.parametrize("views", [(None,), (None, None, None)])
def test_five_color_protocols_refuse_other_view_counts(protocol, activate, views):
    with pytest.raises(ValueError) as excinfo:
        activate(initial_state(protocol, 5), views)
    assert str(excinfo.value) == f"{protocol} expects 2 neighbor views, got {len(views)}"


view_values = st.integers(min_value=0, max_value=30)
colors = st.integers(min_value=0, max_value=3)


@st.composite
def slow6_cases(draw):
    x = draw(st.integers(min_value=0, max_value=30))
    state = ProtocolState(x, draw(colors), draw(colors))
    views = []
    for _ in range(2):
        if draw(st.booleans()):
            vx = draw(view_values.filter(lambda v, x=x: v != x))
            views.append(rec(vx, draw(colors), draw(colors)))
        else:
            views.append(None)
    return state, tuple(views)


@given(slow6_cases())
def test_slow6_pure_and_symmetric(case):
    state, views = case
    first = slow6_activate(state, views)
    assert slow6_activate(state, views) == first
    assert slow6_activate(state, (views[1], views[0])) == first


@given(slow6_cases())
def test_slow6_stop_rule(case):
    # A miss always changes the color pair and avoids every visible color
    # (meaningful when both neighbors are visible with distinct identifiers).
    state, views = case
    decision = slow6_activate(state, views)
    if isinstance(decision, Return):
        assert all(v is None or (v.a, v.b) != decision.color for v in views)
    else:
        fresh = (decision.state.a, decision.state.b)
        for v in views:
            if v is not None:
                assert fresh != (v.a, v.b)
        if all(v is not None for v in views):
            assert fresh != (state.a, state.b)


# --- slow5 ------------------------------------------------------------------

def test_slow5_isolated_returns_a():
    assert slow5_activate(initial_state(SLOW5, 5), (None, None)) == Return(0)


def test_slow5_first_synchronous_round_on_triangle():
    r5, r1, r9 = (rec(x) for x in (5, 1, 9))
    d9 = slow5_activate(initial_state(SLOW5, 9), (r5, r1))
    d1 = slow5_activate(initial_state(SLOW5, 1), (r5, r9))
    d5 = slow5_activate(initial_state(SLOW5, 5), (r1, r9))
    assert d9 == Continue(ProtocolState(9, 0, 1))
    assert d1 == Continue(ProtocolState(1, 1, 1))
    assert d5 == Continue(ProtocolState(5, 1, 1))


@st.composite
def slow5_cases(draw, protocol=SLOW5):
    x = draw(st.integers(min_value=0, max_value=30))
    a = draw(colors)
    state = ProtocolState(
        x, a, draw(st.integers(min_value=0, max_value=3).map(lambda d: a + d)),
        0 if protocol == FAST5 else None,
    )
    views = []
    for _ in range(2):
        if draw(st.booleans()):
            vx = draw(view_values.filter(lambda v, x=x: v != x))
            r = draw(st.sampled_from([0, 1, 2, INFINITE])) if protocol == FAST5 else None
            views.append(ProtocolState(vx, draw(colors), draw(colors), r))
        else:
            views.append(None)
    return state, tuple(views)


@given(slow5_cases())
def test_slow5_continue_keeps_b_at_least_a(case):
    state, views = case
    decision = slow5_activate(state, views)
    if isinstance(decision, Continue):
        assert decision.state.b >= decision.state.a


@given(slow5_cases())
def test_slow5_pure_and_symmetric(case):
    state, views = case
    first = slow5_activate(state, views)
    assert slow5_activate(state, views) == first
    assert slow5_activate(state, (views[1], views[0])) == first


@given(slow5_cases())
def test_slow5_fresh_b_avoids_visible_components(case):
    state, views = case
    decision = slow5_activate(state, views)
    if isinstance(decision, Continue):
        seen = {c for v in views if v is not None for c in (v.a, v.b)}
        assert decision.state.b not in seen


# --- fast5 ------------------------------------------------------------------

def test_fast5_isolated_returns_a():
    assert fast5_activate(initial_state(FAST5, 5), (None, None)) == Return(0)


def test_fast5_between_but_reduction_too_big():
    # f(12, 4) = 7 is not below 4, so only the counter moves
    state = ProtocolState(12, 0, 0, 0)
    decision = fast5_activate(state, (frec(20), frec(4)))
    assert decision == Continue(ProtocolState(12, 1, 1, 1))


def test_fast5_between_adopts_reduction():
    # f(12, 11) = 0 < 11 is adopted
    state = ProtocolState(12, 0, 0, 0)
    decision = fast5_activate(state, (frec(20), frec(11)))
    assert decision == Continue(ProtocolState(0, 1, 1, 1))


def test_fast5_local_minimum_freezes_and_drops():
    # f(20,3) = 0 and f(11,3) = 4; the least value outside {0,4} is 1 < 3
    state = ProtocolState(3, 0, 0, 0)
    decision = fast5_activate(state, (frec(20), frec(11)))
    assert decision == Continue(ProtocolState(1, 1, 1, INFINITE))


def test_fast5_local_maximum_freezes_counter():
    state = ProtocolState(30, 0, 0, 0)
    decision = fast5_activate(state, (frec(20), frec(11)))
    assert isinstance(decision, Continue)
    assert decision.state.r == INFINITE
    assert decision.state.x == 30


def test_fast5_blocked_counter_skips_identifier_move():
    # own counter above a neighbor's: no increment, no identifier change
    state = ProtocolState(12, 0, 0, 2)
    decision = fast5_activate(state, (frec(20, r=1), frec(11, r=5)))
    assert decision == Continue(ProtocolState(12, 1, 1, 2))


def test_fast5_missing_view_skips_identifier_block():
    state = ProtocolState(12, 0, 0, 0)
    decision = fast5_activate(state, (frec(11), None))
    assert isinstance(decision, Continue)
    assert decision.state.r == 0
    assert decision.state.x == 12


@given(slow5_cases(protocol=FAST5))
def test_fast5_identifier_never_grows_counter_never_shrinks(case):
    state, views = case
    decision = fast5_activate(state, views)
    if isinstance(decision, Continue):
        assert decision.state.x <= state.x
        assert decision.state.r >= state.r
        assert decision.state.b >= decision.state.a


@given(slow5_cases(protocol=FAST5))
def test_fast5_infinite_counter_is_absorbing(case):
    state, views = case
    frozen = state._replace(r=INFINITE)
    decision = fast5_activate(frozen, views)
    if isinstance(decision, Continue):
        assert decision.state.r == INFINITE
        assert decision.state.x == frozen.x


@given(slow5_cases(protocol=FAST5))
def test_fast5_pure_and_symmetric(case):
    state, views = case
    first = fast5_activate(state, views)
    assert fast5_activate(state, views) == first
    assert fast5_activate(state, (views[1], views[0])) == first


# --- deltasq ----------------------------------------------------------------

def test_deltasq_isolated_returns_zero_pair():
    assert deltasq_activate(initial_state(DELTASQ, 5), (None, None, None)) == Return((0, 0))


def test_deltasq_star_center_bumps_a():
    state = initial_state(DELTASQ, 2)
    decision = deltasq_activate(state, tuple(rec(x) for x in (5, 7, 9)))
    assert decision == Continue(ProtocolState(2, 1, 0))


@given(slow6_cases())
def test_deltasq_matches_slow6_on_degree_two(case):
    state, views = case
    assert deltasq_activate(state, views) == slow6_activate(state, views)


# --- palettes ---------------------------------------------------------------

def test_palette_membership():
    assert palette_ok(SLOW6, (2, 0))
    assert not palette_ok(SLOW6, (2, 1))
    assert palette_ok(SLOW5, 4)
    assert not palette_ok(SLOW5, 5)
    assert palette_ok(DELTASQ, (2, 1), delta=3)
    assert not palette_ok(DELTASQ, (2, 2), delta=3)
    with pytest.raises(ValueError) as excinfo:
        palette_ok("slow7", 0)
    assert str(excinfo.value) == "unknown protocol 'slow7'"


@pytest.mark.parametrize(
    "protocol, color, delta",
    [
        (SLOW6, (-1, 3), 2),
        (SLOW6, (0, 0, 7), 2),
        (SLOW6, (1,), 2),
        (SLOW6, (1.0, 0), 2),
        (SLOW6, [1, 0], 2),
        (DELTASQ, (-4, 5), 2),
        (DELTASQ, (0, 0, 0), 3),
        (SLOW5, -1, 2),
        (SLOW5, True, 2),
        (SLOW6, (False, 0), 2),
        (FAST5, 2.0, 2),
    ],
)
def test_palette_rejects_colors_that_are_not_its_naturals(protocol, color, delta):
    assert not palette_ok(protocol, color, delta)


# --- the decisions' types -----------------------------------------------------

@st.composite
def any_activation(draw):
    """A protocol, a state and views for it: views may be unwritten (None),
    two neighbors may share an id, as proper:<k> ids let them, and fast5
    counters may be frozen at INFINITE."""
    protocol = draw(st.sampled_from([SLOW6, SLOW5, FAST5, DELTASQ]))
    counters = st.sampled_from([0, 1, 2, INFINITE])
    x = draw(st.integers(min_value=0, max_value=6))
    a = draw(colors)

    def r():
        return draw(counters) if protocol == FAST5 else None

    b = a + draw(colors) if protocol in (SLOW5, FAST5) else draw(colors)  # slow5 keeps b >= a
    state = ProtocolState(x, a, b, r())
    degree = draw(st.integers(min_value=0, max_value=4)) if protocol == DELTASQ else 2
    views = []
    for _ in range(degree):
        if draw(st.booleans()):
            vx = draw(st.integers(min_value=0, max_value=6).filter(lambda v: v != x))
            views.append(ProtocolState(vx, draw(colors), draw(colors), r()))
        else:
            views.append(None)
    return protocol, state, tuple(views)


@given(any_activation())
def test_decisions_are_exactly_their_namedtuples(case):
    protocol, state, views = case
    decision = ACTIVATE[protocol](state, views)
    assert type(decision) in (Return, Continue)
    if type(decision) is Return:
        assert len(decision) == 1
        assert decision == Return(decision.color)
        return
    new = decision.state
    assert type(new) is ProtocolState and len(new) == 4
    assert (new.r is None) == (protocol != FAST5)
    assert decision == Continue(ProtocolState(new.x, new.a, new.b, new.r))
