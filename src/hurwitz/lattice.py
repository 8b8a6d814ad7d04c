"""Shared per-group store of braid classes, avoiding raw orbit expansion.

Classes are built by extending known classes one letter at a time.  A class
of length-d tuples is stored as its set of *states* (c, a), where c is the
class of the first d-1 entries and a is the last entry: two tuples with the
same state are connected by braid moves fixing the last strand, so an orbit
is exactly a closed union of state fibers.  The closure of a start state
under the last-strand move

    q + (b, a)  ->  q + (a, b^a)

can therefore be computed on states alone; the recursive identification of
the shortened prefixes lands one level down and is memoised.  The inverse
move is not needed: the tuples of a closed state set are closed under the
moves on the prefix and under this move, and a permutation of a finite set
has its inverse among its powers, so the set is already a whole orbit.
Canonical (lexicographically minimal) representatives and exact orbit sizes
fall out of the same recursion:

    canon(X) = min over states (c, a) of canon(c) + (a,)
    size(X)  = sum over states (c, a) of size(c)

so they agree with what a full breadth-first expansion would report while
touching only as many nodes as there are classes below X.  Orbit sizes at
deep levels are astronomical; canonical representatives stay a few dozen
letters long.

A state (c, a) is packed as the single int c * n + a (n the group order),
which is also an index into the one append table, `_next`: a flat list with
a row of n slots per node, appended when the node is built.  Slot c * n + a
holds the row base t * n of the class t of rep(c) + (a,), or -1 while that
class is unbuilt, so every state of every class built is a filled slot
pointing at its own row.  The folds (`append_word`, `_new_class`) run on
row bases, test a miss with `< 0` and divide by n once when they return;
every public method takes and returns node ids.
Row bases are the shared int objects of `_bases`, so a slot costs one
pointer.  A node keeps its states in sorted order as two fields: `_pre`, a
tuple of the prefix row bases (again the `_bases` objects), and `_let`,
the last letters as `bytes` (a tuple above order 256, the split that
canonical representatives make).  Equivalence of two tuples is therefore a
fold of one-letter appends followed by an id comparison, and a table miss
on a start state always begins a new class.  `append_word` is that fold:
one list subscript per letter, a call only on a miss.  `find` is the same
fold from the empty class with each entry range-checked, building nothing:
it returns -1 at the first unbuilt class, so a query on built classes is
lookups only.  `class_of`, the checked entry for tuples, is `find` and, on a
miss, `append_word`; the inner folds take only node ids and checked words.
Complete class sets per Nielsen type come from extending the complete sets
one level below (every class has a representative ending in any class with
positive count, because braid moves carry an entry to the last slot within
its conjugacy class).

`_new_class` is the one recursion: a closure that meets an unbuilt prefix
class builds it first, so it nests once per missing lower class, not once
per letter.  At Python's default limit of 1,000, a cold `class_of` of a
random 300-letter sym:3 tuple runs into the 2M-node cap at a class of 248
letters with `_new_class` nested 22 deep: the node cap, not the stack, is
the wall, and the package leaves the recursion limit alone.  `classes_at`
and `_conj_of`, which go one step per level or per letter, walk their
chains down to a memoised entry and back up in loops.

A row costs 8 * n bytes whatever its fill.  Lattices built level by level
fill most of it (65% for alt:4 up to (0, 36, 36, 0), 80% for sym:3 up to
(0, 24, 24)), so the table takes far less than a dict keyed by state; a
sparse lattice takes more, such as the classes of 40 random triples over
alt:6 (2% fill, about three times the memory of the dict).

Simultaneous conjugation by an element s of G commutes with the braid
moves, so it permutes the classes of every level: the states (c, a) of a
class X map to the states (c^s, a^s) of X^s, which has X's size and level.
`classes_at` builds by this *transport*.  When one of its builds closes a
class, the rest of the class's orbit under conjugation by the non-central
elements of a generating set is built from it without a closure, and the
closure passes the same flag down to the builds nested in it.  Each
conjugate is added as soon as its states are mapped, one class at a time
through the same helper as a closed class, so the lattice is consistent
after every class and a cap error leaves the classes added before it, each
one complete.  Only
`classes_at` transports: a level is closed under conjugation and the closure
is equivariant, so every conjugate transport builds would have been built by
the same request anyway; the node set is that of closing every class, only
the order differs.  Sparse requests would pay for conjugates nobody asked
for (the classes of 40 random alt:6 triples are 5,859 nodes, and 22,906 if
every build transported), so `class_of`, `append_word` and `shift` close
every class they build, node for node.  The conjugates are kept in one map
per generator, `_conj[i]`, from node to the conjugate's row base (again the
`_bases` object, so 8 bytes per generator per node: 16 for sym:3 and alt:4,
none for an abelian group, which has no non-central generator) or -1 while
unknown; a prefix built outside `classes_at` gets its conjugate when a
transport first needs it, through one of its states.

Stabiliser words are appended over and over (stability searches,
stable-equivalence verdicts, homology shifts), so their append maps are
memoised per word: `shift` stores rep(node) + word for each node it has
folded, and `shift_level` stores, per (word, level, subgroup), the images
of the level's classes whose subgroup contains the given one.
"""

from __future__ import annotations

from .braid import Caps, DEFAULT_CAPS, OrbitClass, _check_counts, _check_entries
from .errors import CapExceeded
from .groups import FiniteGroup, SubgroupMask, closure_bits


class OrbitLattice:
    def __init__(self, G: FiniteGroup):
        # keep G's tables, not G: the group holds its lattice (`get_lattice`),
        # so a reference back would keep a dropped group alive until the
        # cyclic collector runs
        n = G.order
        self._n = n
        self._mul = G.mul
        # _fwd[a][b] = b^a: the new last letter when a moves left past b
        self._fwd = list(zip(*G.conj_table))
        ct = G.classes
        self._class_of = ct.class_of
        self._members = ct.members
        self._nclasses = ct.count
        # node storage, parallel lists indexed by node id; a node's states
        # (c, a), sorted, are the pairs of _pre and _let
        self._bases: list[int] = []  # node * n, one shared int per node
        self._pre: list[tuple[int, ...]] = []  # prefix row bases c * n
        self._let: list = []  # last letters a
        self._size: list[int] = []
        self._ev: list[int] = []
        self._sub: list[int] = []
        self._level: list[tuple[int, ...]] = []  # interned through _levels
        self._canon: list = []
        self._levels: dict[tuple[int, ...], tuple[int, ...]] = {}
        # the append table: slot c * n + a holds the row base of the class
        # of rep(c) + (a,), or -1 while it is unbuilt
        self._next: list[int] = []
        self._empty_row = [-1] * n
        self._classes_at: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._sub_memo: dict[tuple[int, int], int] = {}
        # stabiliser append maps: word -> {node: node + word}, and
        # (word, level, subgroup) -> (domain classes, their images)
        self._shifts: dict[tuple[int, ...], dict[int, int]] = {}
        self._level_shifts: dict[tuple, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        # conjugation by the non-central elements of a generating set, taken
        # greedily (none for an abelian group): _gens[i][x] = x^s_i, and
        # _conj[i][node] is the row base of the node's conjugate by s_i, or
        # -1 while it is unknown
        self._gens: list[tuple[int, ...]] = []
        span, identity = 1, tuple(range(n))
        for s, row in enumerate(self._fwd):
            if not (span >> s) & 1 and row != identity:
                self._gens.append(row)
                span = closure_bits(self._mul, span, s)
        self._conj: list[list[int]] = [[0] for _ in self._gens]
        # canonical representatives and last letters are bytes when every
        # letter fits in one
        if n <= 256:
            self._letters: list = [bytes((a,)) for a in range(n)]
            self._word_of = bytes
        else:
            self._letters = [(a,) for a in range(n)]
            self._word_of = tuple
        empty = self._word_of()
        # node 0: the empty tuple's class
        zero = (0,) * self._nclasses
        self._levels[zero] = zero
        self._bases.append(0)
        self._pre.append(())
        self._let.append(empty)
        self._next.extend(self._empty_row)
        self._size.append(1)
        self._ev.append(0)
        self._sub.append(1)  # {identity}
        self._level.append(zero)
        self._canon.append(empty)
        self._classes_at[zero] = (0,)
        self.limit_new_nodes(DEFAULT_CAPS.lattice_nodes)

    # -- accessors ---------------------------------------------------------

    def level(self, node: int) -> tuple[int, ...]:
        return self._level[node]

    def size(self, node: int) -> int:
        return self._size[node]

    def ev(self, node: int) -> int:
        return self._ev[node]

    def sub_bits(self, node: int) -> int:
        return self._sub[node]

    def canonical(self, node: int) -> tuple[int, ...]:
        return tuple(self._canon[node])

    def node_count(self) -> int:
        return len(self._size)

    def orbit_class(self, node: int) -> OrbitClass:
        return OrbitClass(
            canonical=self.canonical(node),
            size=self._size[node],
            ev=self._ev[node],
            nu=self.level(node),
            subgroup=SubgroupMask(self._sub[node], self._n),
        )

    # -- construction --------------------------------------------------------

    def _subgroup_with(self, bits: int, g: int) -> int:
        key = (bits, g)
        hit = self._sub_memo.get(key)
        if hit is None:
            hit = closure_bits(self._mul, bits, g)
            self._sub_memo[key] = hit
        return hit

    def limit_new_nodes(self, limit: int) -> None:
        """Let the lattice grow by at most ``limit`` nodes from its current size."""
        self._cap_base = len(self._size)
        self.max_nodes = self._cap_base + limit

    def _new_class(self, base: int, g: int, orbit: bool = False) -> int:
        """Build the class of rep(base // n) + (g,), whose slot is unfilled.

        Takes and returns row bases.  The table holds every state of every
        class built, so the start state begins a new class; misses inside
        the closure only reach lower levels.  With ``orbit`` the class's
        conjugation orbit is built with it, and so are the orbits of the
        classes the closure builds.
        """
        n = self._n
        nxt = self._next
        fwd_of = self._fwd
        new_class = self._new_class
        pre_of, let_of = self._pre, self._let
        start = base + g
        seen = {start}
        stack = [start]
        pop, push, add = stack.pop, stack.append, seen.add
        while stack:
            p = pop()
            a = p % n
            fwd = fwd_of[a]
            x = p // n
            for q, b in zip(pre_of[x], let_of[x]):
                # forward move on the last two strands: (b, a) -> (a, b^a)
                child = nxt[q + a]
                if child < 0:
                    child = new_class(q, a, orbit)
                s = child + fwd[b]
                if s not in seen:
                    add(s)
                    push(s)
        states = sorted(seen)
        node = base // n
        base_level = self._level[node]
        cid = self._class_of[g]
        level = base_level[:cid] + (base_level[cid] + 1,) + base_level[cid + 1 :]
        ev = self._mul[self._ev[node]][g]
        sub = self._subgroup_with(self._sub[node], g)
        if orbit:
            return self._add_orbit(states, ev, sub, level)
        return self._add_node(states, ev, sub, level)

    def _add_node(self, states: list[int], ev: int, sub: int, level: tuple[int, ...]) -> int:
        """Add the class with the given sorted states; return its row base.

        The one place a class is added.  Everything that can raise (the cap
        here, the subgroup and level in the caller) comes before the first
        append, so that the parallel node lists stay in step.
        """
        n = self._n
        nid = len(self._size)
        if nid >= self.max_nodes:
            raise CapExceeded(f"class lattice exceeds node cap at level {level}",
                              nid - self._cap_base, "new nodes")
        level = self._levels.setdefault(level, level)
        mine = nid * n
        for cmap in self._conj:
            cmap.append(-1)
        # plain loops: a comprehension would make n a closure cell
        bases, size, canon, letters = self._bases, self._size, self._canon, self._letters
        total = 0
        best = None
        pre = []
        let = []
        for p in states:
            c = p // n
            a = p - c * n
            pre.append(bases[c])
            let.append(a)
            total += size[c]
            word = canon[c] + letters[a]
            if best is None or word < best:
                best = word
        bases.append(mine)
        self._pre.append(tuple(pre))
        self._let.append(self._word_of(let))
        size.append(total)
        canon.append(best)
        self._ev.append(ev)
        self._sub.append(sub)
        self._level.append(level)
        self._next += self._empty_row
        # every state of the class is itself a one-letter extension landing here
        nxt = self._next
        for p in states:
            nxt[p] = mine
        return mine

    def _add_orbit(self, states: list[int], ev: int, sub: int, level: tuple[int, ...]) -> int:
        """Add the class with sorted ``states``, then every unbuilt class of
        its conjugation orbit, found by transport; return the first's row base.

        A breadth-first search over the orbit.  A member whose conjugate is
        unknown reads the conjugate's slot through its first state; if that
        class is unbuilt, the member's states are mapped and the conjugate
        is added at once.  Built conjugates are searched too, so an orbit
        left partial by `class_of` is finished here.  Each class is complete
        when added: a cap error leaves the classes added before it, as the
        closure path leaves the prefix classes it built.
        """
        n = self._n
        nxt = self._next
        pre_of, let_of = self._pre, self._let
        conj_of = self._conj_of
        top = self._add_node(states, ev, sub, level)
        members = [top]
        seen = {top}
        for m in members:
            x = m // n
            for fs, cmap in zip(self._gens, self._conj):
                t = cmap[x]
                if t < 0:
                    # the conjugate holds the state (c^s, a^s)
                    c, a = pre_of[x][0] // n, let_of[x][0]
                    cs = cmap[c]
                    if cs < 0:
                        cs = conj_of(fs, cmap, c)
                    t = nxt[cs + fs[a]]
                    if t < 0:
                        image = []
                        for q, b in zip(pre_of[x], let_of[x]):
                            qs = cmap[q // n]
                            if qs < 0:
                                qs = conj_of(fs, cmap, q // n)
                            image.append(qs + fs[b])
                        image.sort()
                        t = self._add_node(image, fs[self._ev[x]],
                                           self._subgroup_with(self._sub[cs // n], fs[a]), level)
                    cmap[x] = t
                if t not in seen:
                    seen.add(t)
                    members.append(t)
        return top

    def _conj_of(self, fs: tuple[int, ...], cmap: list[int], x: int) -> int:
        """Row base of the conjugate of node ``x`` under the conjugation
        ``fs``, whose node map is ``cmap``.

        A missing entry is found through the node's first state (c, a): the
        conjugate is the class of rep(c^s) + (a^s), built (with its orbit)
        if need be, down the chain of first states to a known conjugate.
        """
        n = self._n
        chain = []
        t = cmap[x]
        while t < 0:
            chain.append(x)
            x = self._pre[x][0] // n
            t = cmap[x]
        for x in reversed(chain):
            c, a = t, fs[self._let[x][0]]
            t = self._next[c + a]
            if t < 0:
                t = self._new_class(c, a, True)
            cmap[x] = t
        return t

    def append_word(self, node: int, word: tuple[int, ...]) -> int:
        """Class of rep(node) + word: the table fold, one letter at a time.

        A hit costs one list subscript and no call; only a miss calls
        `_new_class`.
        """
        nxt = self._next
        n = self._n
        base = node * n
        for g in word:
            hit = nxt[base + g]
            base = hit if hit >= 0 else self._new_class(base, g)
        return base // n

    def shift(self, node: int, word: tuple[int, ...]) -> int:
        """Class of rep(node) + word, memoised per word.

        For a stabiliser that is appended again and again: the first call
        folds `append_word` (building exactly the nodes it builds), later
        calls are one lookup.  A fold that raises stores nothing.
        """
        images = self._shifts.get(word)
        if images is None:
            images = self._shifts[word] = {}
        hit = images.get(node)
        if hit is None:
            hit = images[node] = self.append_word(node, word)
        return hit

    def shift_level(self, nu: tuple[int, ...], word: tuple[int, ...],
                    sub: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The append of ``word`` on a level: (domain, images), memoised.

        The domain is the classes at ``nu`` whose subgroup contains ``sub``
        (a subgroup's bits, not necessarily the one ``word`` generates), in
        `classes_at` order; images are parallel to it.
        """
        key = (word, nu, sub)
        hit = self._level_shifts.get(key)
        if hit is None:
            sub_of = self._sub
            domain = tuple(x for x in self.classes_at(nu) if sub & ~sub_of[x] == 0)
            hit = (domain, tuple(self.shift(x, word) for x in domain))
            self._level_shifts[key] = hit
        return hit

    def find(self, v: tuple[int, ...]) -> int:
        """Node of the class of ``v`` if it is built, else -1; builds nothing.

        The fold of `append_word` from the empty class, checking each entry
        as it goes: an entry that is no element index (an int, not a bool or
        a float, in [0, n)) raises ValueError naming its position and value.
        A miss stops the fold at the first unbuilt class, and the rest of
        ``v`` is checked before -1 is returned.
        """
        nxt = self._next
        n = self._n
        base = 0
        for g in v:
            if type(g) is not int or not 0 <= g < n:
                break
            base = nxt[base + g]
            if base < 0:
                break
        else:
            return base // n
        # a bad entry raises here; otherwise the fold met an unbuilt class
        _check_entries(v, n)
        return -1

    def class_of(self, v: tuple[int, ...]) -> int:
        """Identify the class of an arbitrary tuple: `find`, then, on a
        miss, `append_word` from the empty class."""
        node = self.find(v)
        return node if node >= 0 else self.append_word(0, v)

    def classes_at(self, nu: tuple[int, ...]) -> tuple[int, ...]:
        """Complete class set at a Nielsen level, sorted by canonical rep.

        The set at nu extends the one at nu - e_p by the members of class p,
        the first class nu counts; each level of that chain is memoised.
        A level must hold non-negative ints, or ValueError names the first
        entry that does not (1.5 would walk the chain below zero), before
        the memo is read: True and 1.0 equal 1 as keys.
        """
        nu = tuple(nu)
        if len(nu) != self._nclasses:
            raise ValueError(f"level has {len(nu)} entries, group has {self._nclasses} classes")
        _check_counts(nu, "level")
        memo = self._classes_at
        hit = memo.get(nu)
        if hit is not None:
            return hit
        chain = []
        while hit is None:
            pivot = next(i for i, c in enumerate(nu) if c)
            chain.append((nu, pivot))
            nu = nu[:pivot] + (nu[pivot] - 1,) + nu[pivot + 1 :]
            hit = memo.get(nu)
        # a level is closed under conjugation, so its builds transport (when
        # G is not abelian)
        n, nxt, canon = self._n, self._next, self._canon
        orbit = bool(self._gens)
        for nu, pivot in reversed(chain):
            members = self._members[pivot]
            found = set()
            for c in hit:
                base = c * n
                for g in members:
                    t = nxt[base + g]
                    if t < 0:
                        t = self._new_class(base, g, orbit)
                    found.add(t // n)
            hit = memo[nu] = tuple(sorted(found, key=canon.__getitem__))
        return hit


def get_lattice(G: FiniteGroup, caps: Caps = DEFAULT_CAPS) -> OrbitLattice:
    """Per-group shared lattice; groups are immutable so reuse is safe.

    ``caps.lattice_nodes`` bounds the nodes the caller's work may add from
    here on; nodes that earlier calls left behind do not count against it.
    Each public call fetches its lattice once, before its work, so the
    budget covers the whole call: an `h2` search and its torsor together.
    """
    lat = getattr(G, "_lattice", None)
    if lat is None:
        lat = OrbitLattice(G)
        G._lattice = lat
    lat.limit_new_nodes(caps.lattice_nodes)
    return lat
