import pytest

from tuttelab import closed_forms as cf
from tuttelab.trees import (LEAF, BlossomingTree, BNode, DyckShuffle,
                            LabelledTree, TreeError)


def test_blossoming_counts():
    for n in range(5):
        trees = BlossomingTree.all_trees(n)
        assert len(trees) == cf.blossoming_count(n)
        assert len(set(trees)) == len(trees)
        assert all(t.to_string().count("n") == n for t in trees)


def test_blossoming_dart_roundtrip():
    for n in range(1, 4):
        for t in BlossomingTree.all_trees(n):
            sigma, alpha, kind, root = t.to_darts()
            back = BlossomingTree.from_darts(sigma, alpha, kind, root)
            assert back == t and hash(back) == hash(t)


def test_blossoming_shared_subtree_dart_roundtrip():
    # trees are values, so one subtree object may stand in two places
    x = BNode(0, LEAF, LEAF)
    t = BlossomingTree(BNode(1, x, x))
    u = BlossomingTree(BNode(1, BNode(0, LEAF, LEAF), BNode(0, LEAF, LEAF)))
    assert t == u and hash(t) == hash(u)
    assert t.to_darts() == u.to_darts()
    sigma, alpha, kind, root = t.to_darts()
    assert BlossomingTree.from_darts(sigma, alpha, kind, root) == t


def test_blossoming_trivial_tree():
    t = BlossomingTree(LEAF)
    assert t.to_string() == "l"
    with pytest.raises(TreeError):
        t.to_darts()


def test_flower_position_is_checked():
    for bad in (5, -1, 3):
        with pytest.raises(TreeError):
            BNode(bad, LEAF, LEAF)


def test_trees_are_immutable():
    node = BNode(0, LEAF, LEAF)
    for obj, attr in ((node, "flower_pos"), (node, "left"),
                      (BlossomingTree(node), "top"),
                      (LabelledTree(1), "label"),
                      (LabelledTree(1), "children"),
                      (LabelledTree(1), "extra")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, 2)


def test_named_tuple_helpers_validate():
    # _make, and _replace through it, go through the validating constructor
    node = BNode(0, LEAF, LEAF)
    assert node._replace(flower_pos=2) == BNode(2, LEAF, LEAF)
    with pytest.raises(TreeError):
        node._replace(flower_pos=5)
    with pytest.raises(TreeError):
        BNode._make([3, LEAF, LEAF])
    assert DyckShuffle._make(["abAB"]) == DyckShuffle("abAB")
    with pytest.raises(TreeError):
        DyckShuffle._make(["ab"])
    with pytest.raises(TreeError):
        DyckShuffle("aA")._replace(word="Aa")
    t = LabelledTree._make([1, [LabelledTree(2)]])
    assert t == LabelledTree(1, (LabelledTree(2),))
    assert hash(t) == hash(LabelledTree(1, (LabelledTree(2),)))
    assert LabelledTree(1)._replace(children=[LabelledTree(2)]) == t


def test_labelled_tree_roundtrip_and_counts():
    for n in range(4):
        trees = LabelledTree.all_labelled_trees(n)
        assert len(trees) == cf.labelled_tree_count(n)
        assert len(set(trees)) == len(trees)
        for t in trees:
            assert t.n_edges == n
            assert t.is_valid()
            back = LabelledTree(t.label, list(t.children))
            assert back == t and hash(back) == hash(t)


def test_labelled_tree_children_are_a_tuple():
    t = LabelledTree(1, [LabelledTree(2)])
    assert t.children == (LabelledTree(2),)
    assert t == LabelledTree(1, (LabelledTree(2),))
    assert hash(t) == hash(LabelledTree(1, iter([LabelledTree(2)])))
    assert repr(t) == "LabelledTree('1:1 2:0')"


def test_labelled_trees_compare_by_shape_at_any_depth():
    # the same labels in preorder on two shapes, and two equal trees
    # deeper than the recursion limit
    chain = LabelledTree(1, [LabelledTree(2, [LabelledTree(1)])])
    fork = LabelledTree(1, [LabelledTree(2), LabelledTree(1)])
    assert chain.labels() == fork.labels() and chain != fork
    assert not chain == fork and chain == chain._replace()
    deep = [LabelledTree(1), LabelledTree(1)]
    for _ in range(5000):
        deep = [LabelledTree(2 - t.label, [t]) for t in deep]
    assert deep[0] is not deep[1] and deep[0] == deep[1]
    assert not deep[0] != deep[1] and hash(deep[0]) == hash(deep[1])
    assert len({deep[0], deep[1], deep[0].children[0]}) == 2


def test_labelled_tree_validity():
    assert LabelledTree(1, [LabelledTree(2)]).is_valid(well=True)
    assert not LabelledTree(2, [LabelledTree(1)]).is_valid(well=True)
    assert not LabelledTree(1, [LabelledTree(3)]).is_valid()  # jump of 2
    assert not LabelledTree(2, [LabelledTree(3)]).is_valid()  # min is not 1


def test_shuffle_validation():
    DyckShuffle("bbaaBBAbBA")
    with pytest.raises(TreeError):
        DyckShuffle("ab")  # unbalanced
    with pytest.raises(TreeError):
        DyckShuffle("Aa")  # closes before opening
    with pytest.raises(TreeError):
        DyckShuffle("ac")  # bad letter


def test_shuffle_counts():
    for i in range(3):
        for j in range(3):
            shuffles = DyckShuffle.all_shuffles(i, j)
            assert len(shuffles) == cf.shuffle_count(i, j)
            assert len(set(shuffles)) == len(shuffles)
            assert all(s.word.count("a") == i and s.word.count("b") == j
                       for s in shuffles)
