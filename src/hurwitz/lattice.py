"""Shared per-group store of braid classes, avoiding raw orbit expansion.

Classes are built by extending known classes one letter at a time, over
*class-sorted* tuples: the entries come in blocks by conjugacy class, in
descending class id, so class 1 (which holds the least non-identity letter)
forms the last block but for the identity's.  B_d permutes the block
patterns of a Nielsen type nu transitively, and the stabiliser of the sorted
pattern is the mixed braid group B_nu, so the B_d-orbits of type nu are the
B_nu-orbits of sorted tuples, one to one.  A class here is such a B_nu-orbit.
A prefix of a sorted tuple is sorted, so the classes at nu need only the
levels with a shortened last block: a staircase of sum(nu) levels, where
closing every sub-level took prod(nu_c + 1).

A class of length-d tuples is stored as its set of *states* (c, a), where c
is the class of the first d-1 entries and a is the last entry: two sorted
tuples with the same state are connected by moves of B_nu fixing the last
strand, so a class is a closed union of state fibers.  B_nu is generated by
the group of the prefix and one more braid (S. Manfredini, "Some subgroups
of Artin's braid group", Topology Appl. 1997), and the closure runs on
states alone:

- when a continues the prefix's last block, the move is sigma on the last
  two strands, q + (b, a) -> q + (a, b^a), applied to each state (q, b) of
  the prefix;
- when a starts a block, B_{m,1} = <B_m, sigma_m^2> and sigma^2 takes
  (b, a) to (b^a, a^(b^a)).  B_m moves the prefix's entries across its
  blocks, so sigma^2 must meet every last letter the prefix shows in any
  arrangement: its *full states* (q, b), q a class at the prefix level
  minus e_p and b in class p with sort(rep(q) + (b,)) in the prefix class.
  They are computed once per level over the complete levels below and
  inverted (`_full_states`).  Meeting only the sorted last letter finds 10
  classes where dihedral:4 has 2.  sigma^2 fixes a pair with a central
  entry, so a central new letter, and a central b, need none.

The recursive identification of the shortened prefixes lands one level down
and is memoised.  The inverse moves are not needed: a permutation of a
finite set has its inverse among its powers, so a closed state set is
already a whole orbit.  Orbit sizes follow from the same recursion: X
holds sum over states (c, a) of sorted(c) sorted tuples, and each stands for
d!/prod(nu_c!) arrangements, so |X| = (d / k) * sum of |c|, with k the count
of the last block's class.

A state (c, a) is packed as the single int c * n + a (n the group order),
which is also an index into the one append table, `_next`: a flat list with
a row of n slots per node, appended when the node is built.  Slot c * n + a
holds the row base t * n of the class t of sort(rep(c) + (a,)), or -1 while
it is unbuilt or unfilled.  Every state of every class built is a filled
slot pointing at its own row, so a table miss on a letter that continues or
starts the last block always begins a new class.  A letter of a class that
comes before the last block fills an *insertion* slot: a moves left
unchanged and each entry b it passes becomes b^a, so the slot is found down
the chain of first states to where a lands and back up, appending each b^a
(`_insert`).  The folds (`append_word`, `_new_class`) run on row bases, test
a miss with `< 0` and divide by n once when they return; every public method
takes and returns node ids.  Row bases are the shared int objects of
`_bases`, so a slot costs one pointer.  A node keeps its states in sorted
order as two fields: `_pre`, a tuple of the prefix row bases (again the
`_bases` objects), and `_let`, the last letters as `bytes` (a tuple above
order 256, the split that canonical representatives make).  Equivalence of
two tuples, in any order, is therefore a fold of one-letter appends followed
by an id comparison.  `append_word` is that fold: one list subscript per
letter, a call only on a miss.  A public tuple is braid-sorted before it is
folded (`_sort`: each letter moves left past the later blocks, conjugating
what it passes, as in `_insert`), so its own fold takes no insertion slot,
and it builds the staircase of its sorted member, not a class per raw
prefix.  `find` checks the entries, sorts and folds from the empty class,
building nothing; since every state of a built class is a filled slot, it
returns -1 exactly when the class is unbuilt.  `class_of`, the checked entry
for tuples, is `find` and, on a miss, the build of the sorted fold
(`_identify`, which the lattice paths of `braid_equivalent` and
`stable_equivalent` call after their own `find`).  Both index every tuple
they identify, so a repeated query is one dict probe, taken only when every
entry is exactly an int.  Insertion slots are filled by the words appended
to a built node unsorted (stabilisers in `shift`, the torsor's compositions)
and by the full states and heads (`_invert`); the inner folds take only node
ids and checked words.
Complete class sets per Nielsen type come from extending the complete sets
one level below by the class that ends the last block, so the chain of
`classes_at` is the staircase.  A complete set has no order: the counts,
generating classes and append maps read off it do not need one, and the
callers that list classes (`enumerate_classes`, the torsor's elements) sort
them by canonical representative.

Canonical representatives are the lexicographically least arrangement,
sorted or not.  On a level of one block every arrangement is sorted and
canon(X) = min over states (c, a) of canon(c) + (a,), computed as a node is
added.  On several blocks they are computed on first use (`canonical`):
sigma brings any entry to the front unchanged, so
canon(X) = (a,) + min canon(T) over the classes T with (a,) + rep(T) in X,
where a is the least letter X shows.  That letter is X's least last letter
when it is the least member of its class, since class ids follow least
members; otherwise a smaller letter of another class is tried when it is
conjugate, in the subgroup X generates, to one of X's entries, with its T
found over the complete level below.  The T at X's least
last letter a are the conjugates by a of the prefixes of X's states (c, a),
since (a,) + rep(T) is braided to rep(T)^(a^-1) + (a,).  A class whose
entries commute is every arrangement of its sorted member.

`_new_class` is the one recursion: a closure that meets an unbuilt prefix
class builds it first, so it nests once per missing lower class, not once
per letter.  A cold `class_of` of a random 300-letter sym:3 tuple (entries
0-5, `random.Random(1)`) builds 7,014 nodes in 0.05-0.09 s, where a fold of
the raw tuple, filling the insertion slot of every prefix, builds 35,037.
The sorted fold meets sibling classes missing down the last block, so
`_new_class` nests 59 deep for it, about one level per three to five
letters; the package leaves the recursion limit alone.  `classes_at`,
`_insert` and the canonical representatives go one step per level or per
letter, and walk their chains in loops.

A row costs 8 * n bytes whatever its fill.  Lattices built level by level
fill most of it, so the table takes far less than a dict keyed by state; a
sparse lattice takes more.  Sparse work pays for complete levels: a first
closure that starts a block reads the full states of its level, which need
the complete levels below it.

Simultaneous conjugation by an element s of G commutes with the braid
moves and keeps class ids, so it permutes the classes of every level: the
states (c, a) of a class X map to the states (c^s, a^s) of X^s, which has
X's size and level.  One rule uses this *transport*: every class on a
complete level knows its conjugate under each non-central element of a
generating set.  `_complete_level`, the one loop that completes a level,
keeps the rule whoever asked for the level (`classes_at`, or a closure that
reads the full states or heads of a level): it transports each class it
closes, building the rest of the class's orbit under conjugation without a
closure (`_transport`), and once the level is built it transports the
classes closed before it, which only reads slots.  Every other build closes
the one class it is asked for, since sparse requests would pay for
conjugates nobody asked for.  Each conjugate is added as soon as its states
are mapped, one class at a time through `_add_node`, so the lattice is
consistent after every class and a cap error leaves the classes added
before it, each one complete.  A transported class lies on a level whose
staircase below is complete, so the rule gives the conjugates of its
prefixes.  The conjugates are kept in one map per generator, `_conj[i]`,
from node to the conjugate's row base (again the `_bases` object, so 8
bytes per generator per node: 16 for sym:3 and alt:4, none for an abelian
group, which has no non-central generator) or -1 while unknown, as on a
class that no complete level holds.

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

# True when every entry's type is exactly int, at C speed
_only_ints = frozenset({int}).issuperset


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
        identity = tuple(range(n))
        self._central = [row == identity for row in self._fwd]
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
        # one int object per distinct size: sizes repeat across conjugation
        # orbits and levels
        self._sizes: dict[int, int] = {}
        self._ev: list[int] = []
        self._sub: list[int] = []
        self._level: list[tuple[int, ...]] = []  # interned through _levels
        self._canon: list = []  # None until computed, for a level of several blocks
        self._levels: dict[tuple[int, ...], tuple[int, ...]] = {}
        # the append table: slot c * n + a holds the row base of the class
        # of sort(rep(c) + (a,)), or -1 while it is unbuilt or unfilled
        self._next: list[int] = []
        self._empty_row = [-1] * n
        # complete class sets per level (`_complete_level`)
        self._complete: dict[tuple[int, ...], tuple[int, ...]] = {}
        # per level: node -> its full states q * n + b with b not central
        self._full: dict[tuple[int, ...], dict[int, list[int]]] = {}
        # per (level, letter a): node -> the states t * n + a with
        # sort(rep(t) + (a,)) in it
        self._heads: dict[tuple, dict[int, list[int]]] = {}
        self._subgroups: dict[int, tuple[tuple[int, ...], bool]] = {}
        self._sub_memo: dict[tuple[int, int], int] = {}
        # stabiliser append maps: word -> {node: node + word}, and
        # (word, level, subgroup) -> (domain classes, their images)
        self._shifts: dict[tuple[int, ...], dict[int, int]] = {}
        self._level_shifts: dict[tuple, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        # every tuple identified by `find` or `class_of` -> its node
        self._index: dict[tuple[int, ...], int] = {}
        # conjugation by the non-central elements of a generating set, taken
        # greedily (none for an abelian group): _gens[i][x] = x^s_i, and
        # _conj[i][node] is the row base of the node's conjugate by s_i, or
        # -1 while it is unknown
        self._gens: list[tuple[int, ...]] = []
        span = 1
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
        self._complete[zero] = (0,)
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
        """The class's least arrangement.

        On a level of several blocks it is computed on first use
        (`_canonical_word`), which may build nodes (the complete levels below
        the node, and the heads of its least letter) and so raise
        CapExceeded, also after `class_of` of the node has returned.
        """
        word = self._canon[node]
        return tuple(word if word is not None else self._canonical_word(node))

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

    def _insert(self, base: int, g: int) -> int:
        """Fill the slot of a letter g that belongs before the last block.

        g moves left unchanged, and each entry b it passes becomes b^g:
        down the chain of first states (c, b) to a prefix where g's slot is
        filled or g ends the tuple, then back up appending each b^g, which
        continues or starts the last block.  Every slot on the way is filled.
        """
        n = self._n
        nxt = self._next
        cls = self._class_of
        cg = cls[g]
        fwd = self._fwd[g]
        pre_of, let_of = self._pre, self._let
        chain = []
        t = base
        while True:
            x = t // n
            chain.append((t, fwd[let_of[x][0]]))
            t = pre_of[x][0]
            hit = nxt[t + g]
            if hit >= 0:
                break
            last = let_of[t // n]
            if not last or cg <= cls[last[0]]:
                hit = self._new_class(t, g)
                break
        for t, b in reversed(chain):
            up = nxt[hit + b]
            if up < 0:
                up = self._new_class(hit, b)
            nxt[t + g] = hit = up
        return hit

    def _new_class(self, base: int, g: int) -> int:
        """Fill the unfilled slot of g on node base // n: the class of
        sort(rep(base // n) + (g,)).

        Takes and returns row bases.  A letter that belongs before the last
        block is an insertion (`_insert`).  Otherwise g continues or starts
        the last block, and the class is new: the table holds every state of
        every class built, so the start state begins a new class, and misses
        inside the closure only reach lower levels.  It builds by closure
        only and ends in `_add_node`; the one caller that transports the new
        class across its conjugation orbit is `_complete_level`.
        """
        n = self._n
        nxt = self._next
        fwd_of = self._fwd
        new_class = self._new_class
        pre_of, let_of = self._pre, self._let
        node = base // n
        cid = self._class_of[g]
        last = let_of[node]
        start = base + g
        seen = {start}
        stack = [start]
        pop, push, add = stack.pop, stack.append, seen.add
        if not last or self._class_of[last[0]] == cid:
            while stack:
                p = pop()
                a = p % n
                fwd = fwd_of[a]
                x = p // n
                for q, b in zip(pre_of[x], let_of[x]):
                    # sigma on the last two strands: (b, a) -> (a, b^a)
                    child = nxt[q + a]
                    if child < 0:
                        child = new_class(q, a)
                    s = child + fwd[b]
                    if s not in seen:
                        add(s)
                        push(s)
        elif cid > self._class_of[last[0]]:
            return self._insert(base, g)
        elif not self._central[g]:
            full = self._full_states(self._level[node])
            while stack:
                p = pop()
                a = p % n
                fwd = fwd_of[a]
                for s in full.get(p // n, ()):
                    # sigma squared against every last letter b of an
                    # arrangement: (b, a) -> (b^a, a^(b^a))
                    b = s % n
                    c = fwd[b]
                    q = s - b
                    child = nxt[q + c]
                    if child < 0:
                        child = new_class(q, c)
                    r = child + fwd_of[c][a]
                    if r not in seen:
                        add(r)
                        push(r)
        states = sorted(seen)
        base_level = self._level[node]
        level = base_level[:cid] + (base_level[cid] + 1,) + base_level[cid + 1 :]
        level = self._levels.setdefault(level, level)
        ev = self._mul[self._ev[node]][g]
        sub = self._subgroup_with(self._sub[node], g)
        return self._add_node(states, ev, sub, level)

    def _full_states(self, nu: tuple[int, ...]) -> dict[int, list[int]]:
        """Each class at ``nu`` -> its full states q * n + b with b not central.

        A full state is a last letter b that the class shows in some
        arrangement, with the class q of the rest: every (q, b) with q at
        nu - e_p and b in class p, filed under the class of
        sort(rep(q) + (b,)).  A central b is left out, since sigma squared
        fixes a pair with a central entry.
        """
        hit = self._full.get(nu)
        if hit is None:
            central = self._central
            hit = {}
            for p, k in enumerate(nu):
                members = self._members[p]
                if k and not central[members[0]]:
                    self._invert(hit, nu, p, members)
            self._full[nu] = hit
        return hit

    def _invert(self, into: dict[int, list[int]], nu: tuple[int, ...], p: int,
                letters: tuple[int, ...]) -> None:
        """File each state q * n + b, q a class of the complete level
        nu - e_p and b in ``letters`` (of class p), under the class at ``nu``
        of sort(rep(q) + (b,)), building its slot if it is unfilled."""
        n, nxt = self._n, self._next
        for t in self._complete_level(nu[:p] + (nu[p] - 1,) + nu[p + 1 :]):
            q = t * n
            for b in letters:
                y = nxt[q + b]
                if y < 0:
                    y = self._new_class(q, b)
                into.setdefault(y // n, []).append(q + b)

    def _add_node(self, states: list[int], ev: int, sub: int, level: tuple[int, ...]) -> int:
        """Add the class with the given sorted states; return its row base.

        ``level`` is interned through `_levels`.  The one place a class is
        added.  Everything that can raise (the cap here, the subgroup and
        level in the caller) comes before the first append, so that the
        parallel node lists stay in step.
        """
        n = self._n
        nid = len(self._size)
        if nid >= self.max_nodes:
            raise CapExceeded(f"class lattice exceeds node cap at level {level}",
                              nid - self._cap_base, "new nodes")
        mine = nid * n
        for cmap in self._conj:
            cmap.append(-1)
        # plain loops: a comprehension would make n a closure cell
        bases, size, canon, letters = self._bases, self._size, self._canon, self._letters
        # one block: every arrangement is sorted, so the states give the
        # canonical representative at once
        one_block = level.count(0) == len(level) - 1
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
            if one_block:
                word = canon[c] + letters[a]
                if best is None or word < best:
                    best = word
        # |X| = (d / k) * sum of |c|, k the count of a's class: each sorted
        # tuple of X stands for d / k times the arrangements of one of its
        # prefix's (d = k on one block)
        total = total * sum(level) // level[self._class_of[a]]
        bases.append(mine)
        self._pre.append(tuple(pre))
        self._let.append(self._word_of(let))
        size.append(self._sizes.setdefault(total, total))
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

    def _transport(self, top: int) -> None:
        """Add every unbuilt class of the conjugation orbit of the class with
        row base ``top``, found by transport, and store every member's
        conjugates.

        A breadth-first search over the orbit.  A member whose conjugate is
        unknown reads the conjugate's slot through its first state; if that
        class is unbuilt, the member's states are mapped and the conjugate
        is added at once.  Built conjugates are searched too, so an orbit
        left partial by `class_of` is finished here.  The members' prefixes
        lie on the complete level below, whose conjugates are all known
        (`_complete_level`); an unknown one raises RuntimeError rather than
        read the table at -1.  Each class is complete when added: a cap
        error leaves the classes added before it, as the closure path
        leaves the prefix classes it built.
        """
        n = self._n
        nxt = self._next
        pre_of, let_of = self._pre, self._let
        level = self._level[top // n]
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
                        raise RuntimeError(f"conjugate of node {c} is unknown")
                    t = nxt[cs + fs[a]]
                    if t < 0:
                        image = []
                        for q, b in zip(pre_of[x], let_of[x]):
                            qs = cmap[q // n]
                            if qs < 0:
                                raise RuntimeError(f"conjugate of node {q // n} is unknown")
                            image.append(qs + fs[b])
                        image.sort()
                        t = self._add_node(image, fs[self._ev[x]],
                                           self._subgroup_with(self._sub[cs // n], fs[a]),
                                           level)
                    cmap[x] = t
                if t not in seen:
                    seen.add(t)
                    members.append(t)

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
        the order of `classes_at`, which is none in particular; images are
        parallel to it.
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
        """Node of the class of ``v``, or -1 exactly when that class is
        unbuilt; builds nothing.

        ``v`` is a tuple or list.  A tuple identified before is one probe of
        the index, taken only when every entry is exactly an int: True and
        1.0 hash and compare equal to 1.  Otherwise each entry is checked (an
        entry that is no element index, an int in [0, n), raises ValueError
        naming its position and value), and the braid-sorted tuple
        (`_sort`) is folded through the table, stopping at the first unbuilt
        class.  A class found is indexed under ``v``.
        """
        key = tuple(v)
        if _only_ints(map(type, key)):
            hit = self._index.get(key)
            if hit is not None:
                return hit
        n = self._n
        _check_entries(key, n)
        nxt = self._next
        base = 0
        for g in self._sort(key):
            base = nxt[base + g]
            if base < 0:
                return -1
        node = self._index[key] = base // n
        return node

    def class_of(self, v: tuple[int, ...]) -> int:
        """Identify the class of an arbitrary tuple: `find`, then, on a
        miss, `_identify`."""
        node = self.find(v)
        return node if node >= 0 else self._identify(v)

    def _identify(self, v: tuple[int, ...]) -> int:
        """Build and index the class of a checked tuple that `find` missed.

        The braid-sorted tuple is folded by `append_word` from the empty
        class, so no slot on its way is an insertion.  A fold that raises
        indexes nothing.
        """
        key = tuple(v)
        node = self._index[key] = self.append_word(0, self._sort(key))
        return node

    def _sort(self, v: tuple[int, ...]) -> list[int]:
        """A class-sorted tuple braided to the checked tuple ``v``.

        sigma, left to right: each letter g moves left past every entry of a
        later block (a lower class id), and each entry b it passes becomes
        b^g, as in `_insert`; entries of one class keep their order.  Tuple
        work only: no node is read or built.
        """
        cls, fwd_of, central = self._class_of, self._fwd, self._central
        blocks = [[] for _ in range(self._nclasses)]
        for g in v:
            c = cls[g]
            blocks[c].append(g)
            if not central[g]:
                fwd = fwd_of[g]
                # class 0 is the identity's, which conjugation fixes
                for k in range(1, c):
                    blocks[k] = [fwd[b] for b in blocks[k]]
        return [b for block in reversed(blocks) for b in block]

    def classes_at(self, nu: tuple[int, ...]) -> tuple[int, ...]:
        """Complete class set at a Nielsen level, in no particular order.

        The memoised set of `_complete_level` as it stands; it computes no
        canonical representative, and callers that list classes sort them.
        A level must hold non-negative ints, or ValueError names the first
        entry that does not (1.5 would walk the chain below zero), before
        the memo is read: True and 1.0 equal 1 as keys.
        """
        nu = tuple(nu)
        if len(nu) != self._nclasses:
            raise ValueError(f"level has {len(nu)} entries, group has {self._nclasses} classes")
        _check_counts(nu, "level")
        return self._complete_level(nu)

    def _complete_level(self, nu: tuple[int, ...]) -> tuple[int, ...]:
        """Complete class set at ``nu``, in set order: no particular order.

        The set at nu extends the one at nu - e_p by the members of class p,
        the first class nu counts, which ends the last block: the chain is
        the staircase of nu, and each level of it is memoised.  A complete
        level is closed under conjugation, so each class closed here is
        transported across its orbit (`_transport`), and the loop then meets
        its conjugates built.  Before a level is memoised, the classes that
        were closed before it was complete are transported too, so every
        class of a memoised level knows its conjugates.
        """
        memo = self._complete
        hit = memo.get(nu)
        if hit is not None:
            return hit
        chain = []
        while hit is None:
            pivot = next(i for i, c in enumerate(nu) if c)
            chain.append((nu, pivot))
            nu = nu[:pivot] + (nu[pivot] - 1,) + nu[pivot + 1 :]
            hit = memo.get(nu)
        n, nxt, conj = self._n, self._next, self._conj
        for nu, pivot in reversed(chain):
            members = self._members[pivot]
            found = set()
            for c in hit:
                base = c * n
                for g in members:
                    t = nxt[base + g]
                    if t < 0:
                        t = self._new_class(base, g)
                        self._transport(t)
                    found.add(t // n)
            # the classes closed before the level was complete learn their
            # conjugates now; every class of the level is built, so this
            # only reads slots.  A transport fills every member of the orbit
            # it searches, and one cut short by the cap leaves a member
            # unbuilt or without its first conjugate, so one map tells
            if conj:
                known = conj[0]
                for x in found:
                    if known[x] < 0:
                        self._transport(x * n)
            hit = memo[nu] = tuple(found)
        return hit

    # -- canonical representatives ----------------------------------------------

    def _canonical_word(self, node: int):
        """The lexicographically least arrangement of the class, as a word.

        Computed on first use for a level of several blocks: sigma brings any
        entry to the front unchanged, so canon(X) = (a,) + min canon(T)
        over the heads T of X at a, the classes with (a,) + rep(T) in X,
        where a is the least letter X shows.  The prefix classes are
        resolved first, on an explicit stack.
        """
        canon = self._canon
        word = canon[node]
        if word is not None:
            return word
        letters = self._letters
        todo = {}
        stack = [node]
        while stack:
            x = stack[-1]
            if canon[x] is not None:
                stack.pop()
                continue
            step = todo.get(x)
            if step is None:
                step = todo[x] = self._first_letter(x)
            a, heads = step
            if a < 0:
                canon[x] = heads
                stack.pop()
                continue
            missing = [t for t in heads if canon[t] is None]
            if missing:
                stack.extend(missing)
                continue
            canon[x] = letters[a] + min(canon[t] for t in heads)
            stack.pop()
        return canon[node]

    def _rep(self, x: int) -> list[int]:
        """A class-sorted member of node ``x``, down its chain of first states."""
        n, pre_of, let_of = self._n, self._pre, self._let
        out = []
        while x:
            out.append(let_of[x][0])
            x = pre_of[x][0] // n
        out.reverse()
        return out

    def _first_letter(self, x: int):
        """(a, heads of x at a) for the least letter a that node ``x`` shows,
        or (-1, word) when x's entries commute and the word is its sorted
        member.

        The letters of the last block's class that x shows are its last
        letters (an entry moves to the end unchanged), and the heads at such
        a letter a are the conjugates by a of the prefixes of x's states
        (c, a): (a,) + rep(t) is braided to rep(t)^(a^-1) + (a,).  When a is
        the class's least member it is the least letter of the level, as
        class ids follow least members.  Otherwise a smaller letter of
        another class is tried when it is conjugate, in the subgroup x
        generates, to one of rep(x)'s entries (moves conjugate entries
        within that subgroup), and its heads come from the level below.
        """
        n, fwd_of, cls = self._n, self._fwd, self._class_of
        lets = self._let[x]
        a = min(lets)
        m = cls[a]
        heads = None
        if a != self._members[m][0]:
            rep = self._rep(x)
            inside, abelian = self._subgroup_info(self._sub[x])
            if abelian:
                return -1, self._word_of(sorted(rep))
            shown = {fwd_of[h][b] for b in rep if cls[b] != m for h in inside}
            for b in sorted(b for b in shown if b < a):
                heads = self._heads_at(self._level[x], b).get(x)
                if heads:
                    a = b
                    heads = [s // n for s in heads]
                    break
        if not heads:
            heads = [q // n for q, b in zip(self._pre[x], lets) if b == a]
        if not self._central[a]:
            fwd = fwd_of[a]
            heads = [self.append_word(0, [fwd[b] for b in self._rep(t)]) for t in heads]
        return a, heads

    def _heads_at(self, nu: tuple[int, ...], a: int) -> dict[int, list[int]]:
        """Each class at ``nu`` -> its states t * n + a with t at
        nu - e_class(a), over the complete level below."""
        key = (nu, a)
        hit = self._heads.get(key)
        if hit is None:
            hit = {}
            self._invert(hit, nu, self._class_of[a], (a,))
            self._heads[key] = hit
        return hit

    def _subgroup_info(self, bits: int) -> tuple[tuple[int, ...], bool]:
        """The elements of a subgroup and whether it is abelian."""
        hit = self._subgroups.get(bits)
        if hit is None:
            mul = self._mul
            inside = tuple(h for h in range(self._n) if (bits >> h) & 1)
            hit = self._subgroups[bits] = (
                inside, all(mul[x][y] == mul[y][x] for x in inside for y in inside))
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
