import itertools
import re

import pytest

from hurwitz import (
    CapExceeded,
    Caps,
    FiberSpec,
    MarkedVector,
    enumerate_classes,
    enumerate_marked_classes,
    marked_family,
    marked_nielsen,
    marked_orbit,
    monoid_act,
    orbit,
    orbit_members,
    validate_extra_moves,
)
from conftest import el, two_sided_orbit


def test_family_validation():
    with pytest.raises(ValueError):
        marked_family(-1)
    fam = marked_family(2)
    assert fam.prefix_len == 2


def test_prefix_zero_reduces_to_plain(s3):
    fam = marked_family(0)
    for v in itertools.product(range(6), repeat=2):
        mc = marked_orbit(s3, fam, MarkedVector((), v))
        o = orbit(s3, v)
        assert mc.canonical.tail == o.canonical
        assert mc.size == o.size


def test_marked_equivalence_splits_by_prefix(s3):
    fam = marked_family(2)
    v = (el(s3, "(12)"), el(s3, "(13)"))
    a = marked_orbit(s3, fam, MarkedVector((0, 1), v))
    b = marked_orbit(s3, fam, MarkedVector((0, 2), v))
    assert a.canonical.prefix == (0, 1)
    assert a.canonical != b.canonical
    assert a.canonical.tail == b.canonical.tail == orbit(s3, v).canonical


def test_marked_nielsen_ignores_prefix(s3):
    mv = MarkedVector((el(s3, "(12)"), el(s3, "(13)")), (el(s3, "(123)"),))
    assert marked_nielsen(s3, mv) == (0, 0, 1)


def test_monoid_act_unit(s3):
    fam = marked_family(1)
    mc = marked_orbit(s3, fam, MarkedVector((3,), (1, 2)))
    assert monoid_act(s3, fam, mc, ()).canonical == mc.canonical


def test_monoid_act_representative_independence(s3):
    fam = marked_family(1)
    tails = list(itertools.product(range(6), repeat=2))
    vs = [(x,) for x in range(6)]
    for tail in tails[::4]:
        for v in vs:
            base = monoid_act(s3, fam, MarkedVector((2,), tail), v).canonical
            for t2 in orbit_members(s3, tail):
                for v2 in orbit_members(s3, v):
                    got = monoid_act(s3, fam, MarkedVector((2,), t2), tuple(v2)).canonical
                    assert got == base


def test_monoid_act_is_action(s3):
    fam = marked_family(1)
    x = MarkedVector((4,), (1, 5))
    v, w = (2, 3), (5,)
    one_step = monoid_act(s3, fam, monoid_act(s3, fam, x, v), w)
    both = monoid_act(s3, fam, x, v + w)
    assert one_step.canonical == both.canonical


def test_enumerate_marked_product_structure(s3, s3_transpositions):
    spec = FiberSpec(nu=(0, 2, 0), gamma=s3_transpositions, ev=el(s3, "(123)"))
    tail_classes = enumerate_classes(s3, spec)
    assert len(tail_classes) == 1
    for k in (1, 2):
        fam = marked_family(k)
        classes = enumerate_marked_classes(s3, fam, spec)
        assert len(classes) == 6 ** k * len(tail_classes)


def test_enumerate_marked_empty_tail(s3, s3_transpositions):
    fam = marked_family(1)
    spec = FiberSpec(nu=(0, 0, 0), gamma=s3_transpositions)
    classes = enumerate_marked_classes(s3, fam, spec)
    assert len(classes) == 6
    assert [c.canonical.prefix for c in classes] == [(x,) for x in range(6)]


def test_enumerate_marked_k0_matches_plain(s3, s3_all):
    spec = FiberSpec(nu=(0, 2, 1), gamma=s3_all)
    plain = enumerate_classes(s3, spec)
    marked = enumerate_marked_classes(s3, marked_family(0), spec)
    assert [c.canonical.tail for c in marked] == [c.canonical for c in plain]


def test_extra_moves_validation_and_closure(s3):
    from hurwitz import ActionFamily

    # a legal extra move: cyclic rotation of the two prefix slots
    def rot(t):
        return (t[1], t[0]) + t[2:]

    fam = ActionFamily(prefix_len=2, extra_moves=((rot, rot),))
    validate_extra_moves(s3, fam, length=2)
    mv = MarkedVector((1, 2), (3, 4))
    mc = marked_orbit(s3, fam, mv)
    swapped = marked_orbit(s3, fam, MarkedVector((2, 1), (3, 4)))
    assert mc.canonical == swapped.canonical

    # a broken move: not an involution pair
    def bad(t):
        return (t[0],) + t[1:]

    def bad_inv(t):
        return ((t[0] + 1) % 6,) + t[1:]

    fam_bad = ActionFamily(prefix_len=1, extra_moves=((bad, bad_inv),))
    with pytest.raises(ValueError, match="inverse"):
        validate_extra_moves(s3, fam_bad, length=2)


def test_extra_moves_generic_enumeration_matches_quotient(s3, s3_transpositions):
    from hurwitz import ActionFamily

    def rot(t):
        return (t[1], t[0]) + t[2:]

    fam = ActionFamily(prefix_len=2, extra_moves=((rot, rot),))
    spec = FiberSpec(nu=(0, 1, 0), gamma=s3_transpositions)
    classes = enumerate_marked_classes(s3, fam, spec)
    # prefixes up to swap: 6 unordered pairs with repeats = 21; tails: 3 letters
    assert len(classes) == 21 * 3
    # the cap counts prefix-and-tail tuples: 36 prefixes x 3 tails
    with pytest.raises(CapExceeded, match=re.escape("marked fiber exceeds tuple cap (visited 51 tuples)")):
        enumerate_marked_classes(s3, fam, spec, caps=Caps(fiber_tuples=50))
    assert len(enumerate_marked_classes(s3, fam, spec, caps=Caps(fiber_tuples=108))) == 21 * 3


def test_extra_moves_orbit_matches_two_sided_closure(s3):
    from hurwitz import ActionFamily

    # tail braid moves only (the prefix of two stays fixed by them), plus a
    # rotation of the prefix slots
    def rot(t):
        return (t[1], t[0]) + t[2:]

    fam = ActionFamily(prefix_len=2, extra_moves=((rot, rot),))
    for prefix in ((1, 2), (3, 3), (4, 0)):
        for d in (2, 3):
            for tail in itertools.product(range(6), repeat=d):
                full = prefix + tail
                members = two_sided_orbit(s3, full, lo=2, extra=(rot,))
                mc = marked_orbit(s3, fam, MarkedVector(prefix, tail))
                assert mc.size == len(members)
                assert mc.canonical.full() == min(members)
