"""Tree-like intermediate objects used by the map bijections.

Three families:

* BlossomingTree -- a plane binary tree rooted at a leaf whose inner nodes
  each carry one flower in one of the three non-parent slots.  A tree with
  n inner nodes has n flowers and n + 2 leaves (the trivial tree, a bare
  leaf, is allowed as a decomposition piece).
* LabelledTree -- a rooted plane tree with positive integer labels whose
  minimum is 1 and which change by 0 or +-1 along edges; well labelled if
  the root label is 1.
* DyckShuffle -- a word over {a, A, b, B} whose a/A and b/B subwords are
  each balanced (Dyck) words.

All are immutable values (named tuples): two trees built by different
routes are equal, and hash equal, exactly when they have the same
structure, and a subtree may be shared between trees.  A labelled tree
is walked with an explicit stack, and compared and hashed by its preorder
of (label, child count), so a deep one needs no deep recursion.  The
named-tuple helpers _make and _replace go through the validating
constructors.

to_string is a deterministic output form, with no parser: blossoming trees
in preorder over {l, n<flower-position>}, labelled trees as preorder
label:child-count tokens.  A shuffle is its raw ASCII word.
"""

from __future__ import annotations

from collections import namedtuple

LEAF = "leaf"
FLOWER = "flower"


class TreeError(ValueError):
    pass


def _validated_make(cls, iterable):
    """namedtuple's _make, and so _replace, through the class's __new__."""
    return cls(*iterable)


class BNode(namedtuple("BNode", "flower_pos left right")):
    """An inner node: its flower slot (0, 1 or 2) and its two subtrees,
    each a BNode or LEAF."""

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, flower_pos, left, right):
        if flower_pos not in (0, 1, 2):
            raise TreeError("flower position must be 0, 1 or 2")
        return super().__new__(cls, flower_pos, left, right)


class BlossomingTree(namedtuple("BlossomingTree", "top")):
    """top is a BNode, or LEAF for the trivial single-leaf tree."""

    __slots__ = ()

    def to_string(self) -> str:
        def ser(t):
            if t is LEAF:
                return "l"
            return f"n{t.flower_pos}({ser(t.left)},{ser(t.right)})"
        return ser(self.top)

    def __repr__(self):
        return f"BlossomingTree({self.to_string()!r})"

    @staticmethod
    def all_trees(n: int):
        """All blossoming trees with n inner nodes (3^n * Catalan(n))."""
        def shapes(k):
            if k == 0:
                yield LEAF
                return
            for a in range(k):
                for left in shapes(a):
                    for right in shapes(k - 1 - a):
                        for fp in (0, 1, 2):
                            yield BNode(fp, left, right)
        return [BlossomingTree(t) for t in shapes(n)]

    # -- dart form -----------------------------------------------------------
    #
    # Inner node i, in preorder, owns darts 4i..4i+3 in counterclockwise
    # order [parent, slot0, slot1, slot2]; sigma cycles them.  Flowers,
    # leaves and the root leaf are alpha fixed points, tagged in `kind`.

    def to_darts(self):
        """Returns (sigma, alpha, kind, root_dart); kind maps half-edge
        darts to LEAF or FLOWER.  The trivial tree has no dart form."""
        if self.top is LEAF:
            raise TreeError("the trivial tree has no dart form")
        sigma, alpha, kind = [], [], {}

        def place(t):
            """Give t the next four darts and its subtrees the darts after
            them; returns t's parent dart."""
            p = len(sigma)
            sigma.extend((p + 1, p + 2, p + 3, p))
            alpha.extend(range(p, p + 4))
            slots = [p + 1, p + 2, p + 3]
            kind[slots.pop(t.flower_pos)] = FLOWER
            for s, child in zip(slots, (t.left, t.right)):
                if child is LEAF:
                    kind[s] = LEAF
                else:
                    c = place(child)
                    alpha[s] = c
                    alpha[c] = s
            return p

        root = place(self.top)
        kind[root] = LEAF
        return sigma, alpha, kind, root

    @staticmethod
    def from_darts(sigma, alpha, kind, root_dart) -> "BlossomingTree":
        """Rebuild the tree from a dart structure, rooted at the given leaf
        half-edge.  Inverse of to_darts (up to dart names)."""
        if kind.get(root_dart) != LEAF:
            raise TreeError("root dart must be a leaf half-edge")

        def build(parent_dart):
            slots = [sigma[parent_dart]]
            slots.append(sigma[slots[-1]])
            slots.append(sigma[slots[-1]])
            fps = [i for i, s in enumerate(slots) if kind.get(s) == FLOWER]
            if len(fps) != 1:
                raise TreeError("inner node must carry exactly one flower")
            children = []
            for i, s in enumerate(slots):
                if i == fps[0]:
                    continue
                if kind.get(s) == LEAF:
                    children.append(LEAF)
                else:
                    children.append(build(alpha[s]))
            return BNode(fps[0], children[0], children[1])

        return BlossomingTree(build(root_dart))


class LabelledTree(namedtuple("LabelledTree", "label children")):
    """Rooted plane tree with integer labels; children are ordered and
    kept as a tuple, whatever sequence the caller passes."""

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, label, children=()):
        return super().__new__(cls, int(label), tuple(children))

    def _preorder(self):
        """The subtrees in preorder, the root first, walked with an explicit
        stack so that a deep tree needs no deep recursion."""
        stack = [self]
        while stack:
            t = stack.pop()
            yield t
            stack.extend(reversed(t.children))

    def _shape(self):
        """The (label, child count) of each subtree in preorder, which
        determines the tree."""
        return tuple((t.label, len(t.children)) for t in self._preorder())

    # compared and hashed through _shape: the tuple's own comparison would
    # recurse once per level
    def __eq__(self, other):
        if not isinstance(other, LabelledTree):
            return NotImplemented
        return self is other or self._shape() == other._shape()

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(self._shape())

    @property
    def n_edges(self) -> int:
        return sum(len(t.children) for t in self._preorder())

    def labels(self):
        return [t.label for t in self._preorder()]

    def is_valid(self, well: bool = False) -> bool:
        """Labels positive with minimum 1, adjacent labels differing by
        0 or +-1; well labelled additionally means root label 1."""
        labs = self.labels()
        ok = min(labs) == 1 and all(
            abs(t.label - c.label) <= 1
            for t in self._preorder() for c in t.children)
        if well:
            ok = ok and self.label == 1
        return ok

    def to_string(self) -> str:
        return " ".join(f"{t.label}:{len(t.children)}"
                        for t in self._preorder())

    def __repr__(self):
        return f"LabelledTree({self.to_string()!r})"

    @staticmethod
    def all_labelled_trees(n: int):
        """All labelled trees with n edges (3^n * Catalan(n) of them), each
        built once: by root label, then by the first subtree of the root
        and the tree left without it."""
        def trees(k, r, touch):
            # k edges, root label r, all labels >= 1; with touch, one is 1
            if k == 0:
                if r == 1 or not touch:
                    yield LabelledTree(r)
                return
            touch = touch and r != 1
            for e in range(k):
                for c in (r - 1, r, r + 1) if r > 1 else (r, r + 1):
                    for first in trees(e, c, False):
                        rest_touch = touch and 1 not in first.labels()
                        for rest in trees(k - 1 - e, r, rest_touch):
                            yield LabelledTree(r, (first,) + rest.children)

        return [t for r in range(1, n + 2) for t in trees(n, r, True)]


class DyckShuffle(namedtuple("DyckShuffle", "word")):
    """A shuffle of two Dyck words: letters a/A form one balanced word,
    letters b/B the other."""

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, word: str):
        if set(word) - set("aAbB"):
            raise TreeError(f"bad letters in {word!r}")
        for lo, hi in (("a", "A"), ("b", "B")):
            depth = 0
            for ch in word:
                if ch == lo:
                    depth += 1
                elif ch == hi:
                    depth -= 1
                    if depth < 0:
                        raise TreeError(f"{lo}/{hi} subword of {word!r} "
                                        "is not a Dyck word")
            if depth:
                raise TreeError(f"{lo}/{hi} subword of {word!r} is unbalanced")
        return super().__new__(cls, word)

    def __repr__(self):
        return f"DyckShuffle({self.word!r})"

    @staticmethod
    def all_shuffles(i: int, j: int):
        """All shuffles of a Dyck word with i a-pairs and one with j
        b-pairs: C(2i+2j, 2i) * Catalan(i) * Catalan(j) of them."""
        out = []

        def write(word, a, open_a, b, open_b):
            # a, b: pairs still to open; open_a, open_b: pairs to close
            if not (a or open_a or b or open_b):
                out.append(DyckShuffle(word))
            if a:
                write(word + "a", a - 1, open_a + 1, b, open_b)
            if open_a:
                write(word + "A", a, open_a - 1, b, open_b)
            if b:
                write(word + "b", a, open_a, b - 1, open_b + 1)
            if open_b:
                write(word + "B", a, open_a, b, open_b - 1)

        write("", i, 0, j, 0)
        return out
