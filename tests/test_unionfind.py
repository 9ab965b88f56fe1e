import random

from branchcover._unionfind import ParityUnionFind, UnionFind


def test_groups_partition_the_items():
    rng = random.Random(5)
    uf = UnionFind(range(40))
    naive = [{x} for x in range(40)]
    for _ in range(30):
        a, b = rng.randrange(40), rng.randrange(40)
        uf.union(a, b)
        sa = next(s for s in naive if a in s)
        sb = next(s for s in naive if b in s)
        if sa is not sb:
            naive.remove(sb)
            sa |= sb
    groups = uf.groups()
    assert sorted(x for g in groups for x in g) == list(range(40))
    assert sorted(map(sorted, groups)) == sorted(map(sorted, naive))
    assert [min(g) for g in groups] == sorted(min(g) for g in groups)


def test_items_join_on_first_mention():
    uf = UnionFind()
    uf.union("a", "b")
    assert uf.find("c") == "c"
    assert sorted(map(sorted, uf.groups())) == [["a", "b"], ["c"]]


def test_parity_contradiction_returns_false():
    uf = ParityUnionFind()
    assert uf.union("a", "b", 1)
    assert uf.union("b", "c", 1)
    assert uf.union("a", "c", 0)
    assert not uf.union("a", "c", 1)
    assert not uf.union("c", "b", 0)


def test_parity_along_a_long_chain():
    uf = ParityUnionFind(range(60))
    for k in range(59):
        assert uf.union(k, k + 1, 1)
    root, _ = uf.find(0)
    for k in range(60):
        r, par = uf.find(k)
        assert r == root
        assert par ^ uf.find(0)[1] == k % 2
    assert uf.union(0, 58, 0)
    assert not uf.union(0, 59, 0)
