import itertools
import re

import pytest

from hurwitz import (
    FiberSpec,
    MarkedVector,
    enumerate_classes,
    enumerate_marked_classes,
    marked_orbit,
    monoid_act,
    orbit,
    orbit_members,
)
from conftest import el, two_sided_orbit


def test_prefix_width_must_be_a_non_negative_int(s3, s3_all):
    spec = FiberSpec(nu=(0, 2, 0), gamma=s3_all)
    for bad in (-1, 1.0, True):
        with pytest.raises(ValueError, match=re.escape(f"prefix width {bad!r}")):
            enumerate_marked_classes(s3, bad, spec)


def test_prefix_zero_reduces_to_plain(s3):
    for v in itertools.product(range(6), repeat=2):
        mc = marked_orbit(s3, MarkedVector((), v))
        o = orbit(s3, v)
        assert mc.canonical.tail == o.canonical
        assert mc.size == o.size


def test_marked_equivalence_splits_by_prefix(s3):
    v = (el(s3, "(12)"), el(s3, "(13)"))
    a = marked_orbit(s3, MarkedVector((0, 1), v))
    b = marked_orbit(s3, MarkedVector((0, 2), v))
    assert a.canonical.prefix == (0, 1)
    assert a.canonical != b.canonical
    assert a.canonical.tail == b.canonical.tail == orbit(s3, v).canonical


def test_marked_nielsen_ignores_prefix(s3):
    mv = MarkedVector((el(s3, "(12)"), el(s3, "(13)")), (el(s3, "(123)"),))
    assert marked_orbit(s3, mv).nu == (0, 0, 1)


def test_monoid_act_unit(s3):
    mc = marked_orbit(s3, MarkedVector((3,), (1, 2)))
    assert monoid_act(s3, mc, ()).canonical == mc.canonical


def test_monoid_act_representative_independence(s3):
    tails = list(itertools.product(range(6), repeat=2))
    vs = [(x,) for x in range(6)]
    for tail in tails[::4]:
        for v in vs:
            base = monoid_act(s3, MarkedVector((2,), tail), v).canonical
            for t2 in orbit_members(s3, tail):
                for v2 in orbit_members(s3, v):
                    got = monoid_act(s3, MarkedVector((2,), t2), tuple(v2)).canonical
                    assert got == base


def test_monoid_act_is_action(s3):
    x = MarkedVector((4,), (1, 5))
    v, w = (2, 3), (5,)
    one_step = monoid_act(s3, monoid_act(s3, x, v), w)
    both = monoid_act(s3, x, v + w)
    assert one_step.canonical == both.canonical


def test_enumerate_marked_product_structure(s3, s3_transpositions):
    spec = FiberSpec(nu=(0, 2, 0), gamma=s3_transpositions, ev=el(s3, "(123)"))
    tail_classes = enumerate_classes(s3, spec)
    assert len(tail_classes) == 1
    for k in (1, 2):
        classes = enumerate_marked_classes(s3, k, spec)
        assert len(classes) == 6 ** k * len(tail_classes)


def test_enumerate_marked_empty_tail(s3, s3_transpositions):
    spec = FiberSpec(nu=(0, 0, 0), gamma=s3_transpositions)
    classes = enumerate_marked_classes(s3, 1, spec)
    assert len(classes) == 6
    assert [c.canonical.prefix for c in classes] == [(x,) for x in range(6)]


def test_enumerate_marked_k0_matches_plain(s3, s3_all):
    spec = FiberSpec(nu=(0, 2, 1), gamma=s3_all)
    plain = enumerate_classes(s3, spec)
    marked = enumerate_marked_classes(s3, 0, spec)
    assert [c.canonical.tail for c in marked] == [c.canonical for c in plain]


@pytest.mark.parametrize("k", [1, 2])
def test_marked_orbit_matches_two_sided_closure(s3, s3_all, k):
    """Every sym:3 prefix of width k and tail of length <= 3: the marked
    class is the prefix with the tail's orbit under both moves, and the
    marked class list is all of G^k, in lexicographic order, times the
    direct tail classes."""
    prefixes = list(itertools.product(range(6), repeat=k))
    for d in range(4):
        for tail in itertools.product(range(6), repeat=d):
            members = two_sided_orbit(s3, tail)
            for prefix in prefixes:
                mc = marked_orbit(s3, MarkedVector(prefix, tail))
                assert mc.size == len(members)
                assert mc.canonical == MarkedVector(prefix, min(members))
    for nu in [(0, 2, 0), (0, 1, 2), (0, 3, 0), (0, 2, 2)]:
        spec = FiberSpec(nu=nu, gamma=s3_all)
        tails = enumerate_classes(s3, spec, method="direct")
        got = enumerate_marked_classes(s3, k, spec)
        assert [(c.canonical, c.size, c.nu) for c in got] == [
            (MarkedVector(p, t.canonical), t.size, t.nu) for p in prefixes for t in tails]


@pytest.mark.parametrize("bad", [99, 6, -1, True, 1.5, "1"], ids=repr)
def test_prefix_entries_are_checked(s3, s3_all, bad):
    """A prefix entry that is no element index is refused, not served back
    as part of a class."""
    msg = re.escape(f"entry {bad!r} at position 1 of ")
    with pytest.raises(ValueError, match=msg):
        marked_orbit(s3, MarkedVector((0, bad), (1, 2)))
    with pytest.raises(ValueError, match=msg):
        monoid_act(s3, MarkedVector((0, bad), (1,)), (2,))
    spec = FiberSpec(nu=(0, 2, 0), gamma=s3_all)
    with pytest.raises(ValueError, match=msg):
        enumerate_marked_classes(s3, 2, spec, prefixes=[(0, 1), (0, bad)])
    # a prefix that is no tuple or list raised TypeError from tuple(p)
    with pytest.raises(ValueError, match=re.escape(f"prefix {bad!r} is not a tuple or list")):
        enumerate_marked_classes(s3, 2, spec, prefixes=[(0, 1), bad])


def test_prefix_width_is_checked(s3, s3_all):
    with pytest.raises(ValueError, match="width 2"):
        enumerate_marked_classes(s3, 2, FiberSpec(nu=(0, 2, 0), gamma=s3_all),
                                 prefixes=[(0, 1, 2)])
