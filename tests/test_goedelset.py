"""Symbolic set algebra: membership, kernel, classification, embedding."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from goedel_logics.goedelset import (
    Cantor, EmptyKernelError, GoedelSet, Interval, Point, SeqDown, SeqUp,
    cb_kernel, classify, embed_into_perfect, finite_elements, holds_harmonic_tail,
    in_cantor01, is_empty, least_kernel_piece, make_set, member, parse_set,
    print_set, sample_finite, saturate_above_kernel_inf, simplify, smallest_positive,
    unit_interval, v_down, v_m, v_up, zero_isolated,
)


def test_member_interval():
    V = unit_interval()
    assert member(V, F(1, 3))
    assert member(V, F(0)) and member(V, F(1))


def test_member_cantor_exact():
    V = make_set([Point(F(0)), Point(F(1)), Cantor(F(0), F(1))])
    assert not member(V, F(1, 2))       # 0.111... in ternary
    assert member(V, F(1, 3))           # 0.0222...
    assert member(V, F(2, 3))
    assert member(V, F(1, 4))           # 0.020202...
    assert member(V, F(3, 4))           # 0.202020...
    assert not member(V, F(1, 5))


def test_cantor01_oracle_brute():
    # cross-check the ternary walk against digit expansion to depth 30
    def brute(x: F, depth: int = 30) -> bool:
        for _ in range(depth):
            if x == 0 or x == 1:
                return True
            d = int(3 * x)
            if d == 1:
                return 3 * x == 1
            x = 3 * x - d
        return True  # undecided at depth: only periodic 0/2 tails reach here
    for num in range(0, 82):
        x = F(num, 81)
        assert in_cantor01(x) == brute(x)


def test_member_v_down():
    V = v_down()
    assert member(V, F(1, 7))
    assert not member(V, F(2, 7))
    assert member(V, F(0)) and member(V, F(1))


def test_member_sequp():
    V = v_up()
    assert member(V, F(1, 2)) and member(V, F(2, 3)) and member(V, F(0))
    assert not member(V, F(2, 5))


def test_kernel_of_countable_set_is_empty():
    assert is_empty(cb_kernel(v_down()))
    assert is_empty(cb_kernel(v_up()))
    assert is_empty(cb_kernel(v_m(5)))


def test_kernel_drops_isolated_points():
    V = parse_set("{0} + [1/2,1]")
    k = cb_kernel(V)
    assert k.atoms == (Interval(F(1, 2), F(1)),)


def test_kernel_of_perfect_set_is_itself():
    V = unit_interval()
    assert cb_kernel(V).atoms == V.atoms


def test_kernel_absorbs_sequence_limits():
    # members of the sequence are isolated; its limit is too after one step
    V = parse_set("{0} + seqdown(1/4;1/8) + [1/2,1]")
    assert cb_kernel(V).atoms == (Interval(F(1, 2), F(1)),)


def test_kernel_idempotent():
    for text in ["{0} + [1/2,1]", "[0,1]", "{0} + cantor(1/2,1)",
                 "{0} + seqdown(0;1/4) + [1/2,1]", "seqdown(0;1)"]:
        V = parse_set(text)
        k = cb_kernel(V)
        assert cb_kernel(k).atoms == k.atoms


def test_kernel_subset_of_set_on_probe_grid():
    for text in ["{0} + [1/2,1]", "{0} + cantor(1/2,1)",
                 "{0} + seqdown(0;1/4) + [1/2,1]"]:
        V = parse_set(text)
        k = cb_kernel(V)
        if is_empty(k):
            continue
        for num in range(0, 49):
            q = F(num, 48)
            if member(k, q):
                assert member(V, q)


def test_classify_unit_interval():
    c = classify(unit_interval())
    assert (c.cardinality, c.zero_in_kernel, c.verdict) == ("uncountable", True, "H")


def test_classify_zero_isolated():
    c = classify(parse_set("{0} + [1/2,1]"))
    assert (c.cardinality, c.zero_isolated, c.verdict) == ("uncountable", True, "H0")


def test_classify_v_down():
    c = classify(v_down())
    assert (c.cardinality, c.verdict) == ("countable", "not-re")


def test_classify_mixed_not_re():
    c = classify(parse_set("{0} + seqdown(0;1/4) + [1/2,1]"))
    assert c.cardinality == "uncountable"
    assert not c.zero_isolated and not c.zero_in_kernel
    assert c.verdict == "not-re"


def test_classify_finite():
    c = classify(v_m(4))
    assert (c.cardinality, c.size, c.verdict, c.n) == ("finite", 4, "Hn", 4)


def test_saturate_examples():
    V = parse_set("{0} + cantor(1/2,1)")
    assert print_set(saturate_above_kernel_inf(V)) == "{0} + [1/2,1]"
    U = unit_interval()
    assert saturate_above_kernel_inf(U).atoms == U.atoms
    W = parse_set("{0} + [1/4,1/2] + {1}")
    assert print_set(saturate_above_kernel_inf(W)) == "{0} + [1/4,1]"


def test_saturate_requires_kernel():
    with pytest.raises(EmptyKernelError):
        saturate_above_kernel_inf(v_down())


def test_least_kernel_piece():
    V = parse_set("{0} + cantor(1/2,1) + seqdown(1/8;1/16) + [1/4,1/3]")
    assert least_kernel_piece(V) == Interval(F(1, 4), F(1, 3))
    assert least_kernel_piece(parse_set("{0} + cantor(1/2,1)")) == Cantor(F(1, 2), F(1))
    with pytest.raises(EmptyKernelError, match="the perfect kernel is empty"):
        least_kernel_piece(v_down())


def test_holds_harmonic_tail():
    # an interval holds the tail from a value it reaches on; a sequence to
    # the same limit from the same side holds it all when its scale is an
    # integer
    V = parse_set("{0} + [1/2,3/4] + {1}")
    assert holds_harmonic_tail(V, F(1, 2), 1, F(3, 4))
    assert not holds_harmonic_tail(V, F(1, 2), 1, F(1))
    assert not holds_harmonic_tail(V, F(3, 4), 1, F(1))
    assert holds_harmonic_tail(V, F(3, 4), -1, F(1, 2))
    assert holds_harmonic_tail(v_down(), F(0), 1, F(1))
    assert not holds_harmonic_tail(v_down(), F(0), -1, F(0))
    assert holds_harmonic_tail(parse_set("seqdown(0;2) + {1}"), F(0), 1, F(1))
    assert not holds_harmonic_tail(parse_set("seqdown(0;1/2) + {1}"), F(0), 1, F(1, 2))
    assert holds_harmonic_tail(v_up(), F(1), -1, F(0))


def test_embed_binary_to_ternary():
    out = embed_into_perfect([F(0), F(1, 2), F(1)], Cantor(F(0), F(1)))
    assert out == [F(0), F(2, 3), F(1)]


def test_embed_interval_endpoints():
    out = embed_into_perfect([F(0), F(1)], Interval(F(1, 2), F(1)))
    assert out == [F(1, 2), F(1)]


def test_embed_strictly_monotone_members():
    target = Cantor(F(0), F(1))
    pts = [F(0), F(1, 4), F(1, 2), F(1)]
    out = embed_into_perfect(pts, target)
    assert all(a < b for a, b in zip(out, out[1:]))
    for q in out:
        assert member(make_set([Point(F(0)), Point(F(1)), target]), q)
    # non-dyadic inputs too
    pts = [F(0), F(1, 3), F(2, 5), F(7, 9), F(1)]
    out = embed_into_perfect(pts, Cantor(F(1, 2), F(1)))
    assert all(a < b for a, b in zip(out, out[1:]))
    V = make_set([Point(F(0)), Cantor(F(1, 2), F(1))])
    for q in out:
        assert member(V, q)
    assert out[0] == F(1, 2)  # minimum maps to inf of the target


def test_sample_finite_examples():
    assert finite_elements(sample_finite(v_down(), 4)) == [F(0), F(1, 3), F(1, 2), F(1)]
    assert finite_elements(sample_finite(unit_interval(), 3)) == [F(0), F(1, 2), F(1)]
    assert finite_elements(sample_finite(parse_set("{0} + [1/2,1]"), 4)) == \
        [F(0), F(1, 2), F(3, 4), F(1)]


def test_sample_finite_members_and_isolation():
    for text in ["{0} + [1/2,1]", "[0,1]", "seqdown(0;1)", "{0} + cantor(1/2,1)"]:
        V = parse_set(text)
        S = sample_finite(V, 6)
        elems = finite_elements(S)
        assert elems[0] == 0 and elems[-1] == 1 and len(elems) <= 6
        for q in elems:
            assert member(V, q)
        if zero_isolated(V):
            assert smallest_positive(V) in elems


def test_simplify_absorbs_and_merges():
    atoms = simplify([Interval(F(0), F(1, 2)), Interval(F(1, 4), F(3, 4)),
                      Point(F(1, 3)), Point(F(7, 8)), SeqDown(F(0), F(1, 8)),
                      Point(F(1))])
    assert atoms == (Interval(F(0), F(3, 4)), Point(F(7, 8)), Point(F(1)))
    # degenerate sequences clip to their limit point
    assert simplify([SeqUp(F(0), F(1))]) == (Point(F(0)),)
    assert simplify([SeqDown(F(1), F(1))]) == (Point(F(1)),)


_Q = st.builds(F, st.integers(0, 8), st.sampled_from([1, 2, 3, 8])).filter(lambda q: q <= 1)
_PAIR = st.tuples(_Q, _Q).filter(lambda ab: ab[0] < ab[1])
_SCALE = st.sampled_from([F(1), F(2), F(1, 2), F(1, 3), F(3, 4)])
_ATOM = st.one_of(
    st.builds(Point, _Q),
    _PAIR.map(lambda ab: Interval(*ab)),
    _PAIR.map(lambda ab: Cantor(*ab)),
    st.builds(SeqDown, _Q, _SCALE),
    st.builds(SeqUp, _Q, _SCALE),
)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(_ATOM, max_size=7), st.randoms(use_true_random=False))
def test_a_set_is_canonical_from_construction(atoms, rnd):
    V = GoedelSet(tuple(atoms))
    assert V.atoms == simplify(atoms) == simplify(simplify(atoms))
    shuffled = list(atoms)
    rnd.shuffle(shuffled)
    assert GoedelSet(tuple(shuffled)) == V
    # a set of points (degenerate sequences become their limits) lists
    # its elements ascending
    qs = {a.q for a in atoms if isinstance(a, Point)}
    points = [Point(q) for q in qs] + [SeqUp(F(0), F(1))]
    assert finite_elements(GoedelSet(tuple(points))) == sorted(qs | {F(0)})
    if all(isinstance(a, Point) for a in V.atoms):
        assert finite_elements(V) == sorted(set(finite_elements(V)))


def test_make_set_requires_bounds():
    with pytest.raises(ValueError):
        make_set([Interval(F(1, 2), F(1))])  # 0 missing
    with pytest.raises(ValueError):
        make_set([Point(F(0)), Point(F(1)), Interval(F(3, 4), F(1, 2))])


def test_set_syntax_roundtrip():
    for text in ["[0,1]", "{0} + [1/2,1]", "{0} + cantor(0,1)",
                 "seqdown(0;1)", "sequp(1;1)", "{0,1/3,2/3,1}"]:
        V = parse_set(text)
        assert parse_set(print_set(V)).atoms == V.atoms


def test_set_syntax_case_insensitive_seq():
    assert parse_set("seqUp(1;1)").atoms == v_up().atoms
