"""The root tables in nahm, checked on their own: every shipped so(8) and
sl_n charge, jet generator and q-commutation form reads them, so nothing
else cross-checks them.  So is the one parser of a Dynkin type string,
nahm.cartan_matrix, that every consumer of a type goes through."""

import pytest

from qident import jets, nahm, presets, qweyl
from qident.qweyl import NCAlgebra

# simple roots in the e-basis: a_v = e_v - e_{v+1} for sl_n; for so(8)
# a1 = e1-e2, a2 = e2-e3, a3 = e3-e4, a4 = e3+e4
D4_SIMPLE = ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1))


def a_simple(n):
    return tuple(tuple(int(k == v) - int(k == v + 1) for k in range(n))
                 for v in range(n - 1))


def in_e_basis(root, simple):
    return tuple(sum(c * a[k] for c, a in zip(root, simple))
                 for k in range(len(simple[0])))


def norm(C, beta):
    return sum(beta[a] * C[a][b] * beta[b] for a in range(len(C)) for b in range(len(C)))


def assert_positive_root_system(C, roots):
    """Positive, of norm 2, distinct, holding the simple roots, and mapped
    onto themselves by every simple reflection but for a_i -> -a_i."""
    rank = len(C)
    roots = [tuple(r) for r in roots]
    assert len(set(roots)) == len(roots)
    assert all(min(r) >= 0 and any(r) for r in roots)
    assert all(norm(C, r) == 2 for r in roots)
    for i in range(rank):
        simple = tuple(int(k == i) for k in range(rank))
        assert simple in roots

        def reflect(beta):
            pairing = sum(C[i][b] * beta[b] for b in range(rank))
            return tuple(x - pairing * (k == i) for k, x in enumerate(beta))

        assert reflect(simple) == tuple(-x for x in simple)
        others = set(roots) - {simple}
        assert {reflect(r) for r in others} == others


def test_d4_roots_are_the_positive_roots_of_so8():
    C = nahm.cartan_matrix("d4")
    assert len(nahm.D4_ROOTS) == 12
    assert_positive_root_system(C, nahm.D4_ROOTS.values())


def test_d4_root_names_are_their_e_basis_vectors():
    for name, root in nahm.D4_ROOTS.items():
        i, j = int(name[1]), int(name[2])
        want = [0] * 4
        want[i - 1] += 1
        want[j - 1] += 1 if name[0] == "W" else -1
        assert in_e_basis(root, D4_SIMPLE) == tuple(want), name


@pytest.mark.parametrize("n", range(3, 8))
def test_a_roots_are_the_positive_roots_of_sln(n):
    roots = [nahm.a_root(i, j, n) for (i, j) in nahm.a_pairs(n)]
    assert len(roots) == n * (n - 1) // 2
    assert_positive_root_system(nahm.cartan_matrix(f"a{n}"), roots)
    for (i, j), root in zip(nahm.a_pairs(n), roots):
        assert in_e_basis(root, a_simple(n)) == tuple(
            int(k == i) - int(k == j) for k in range(1, n + 1))


def test_d4_readers_take_the_table():
    preset = jets.d4_D()
    assert dict(zip(preset.ring.generators, preset.ring.charges)) == nahm.D4_ROOTS
    spec = presets.nahm_preset("d4")
    columns = dict(zip(spec.labels, zip(*spec.charges)))
    assert {lab.replace("m", "V").replace("n", "W"): c for lab, c in columns.items()} \
        == nahm.D4_ROOTS


@pytest.mark.parametrize("n", range(2, 7))
def test_sln_readers_take_a_root(n):
    roots = [nahm.a_root(i, j, n) for (i, j) in nahm.a_pairs(n)]
    assert list(jets.sln_A(n).ring.charges) == roots
    for spec in (nahm.build_B_form(n), nahm.build_Bprime_form(n)):
        assert [tuple(c) for c in zip(*spec.charges)] == roots


# the diagram of each type string: the path on N-1 nodes for a{N}, the star
# with center node 2 for d4
DYNKIN = {f"a{n}": (n - 1, {(i, i + 1) for i in range(1, n - 1)}) for n in range(2, 9)}
DYNKIN["d4"] = (4, {(1, 2), (2, 3), (2, 4)})


def dynkin_eps(name):
    """x_a x_b = q x_b x_a (a < b) exactly on the edges of the diagram."""
    r, edges = DYNKIN[name]
    return tuple(tuple(1 if (a, b) in edges else -1 if (b, a) in edges else 0
                       for b in range(1, r + 1)) for a in range(1, r + 1))


@pytest.mark.parametrize("name", list(DYNKIN))
def test_cartan_matrix_is_the_path_or_star(name):
    r, edges = DYNKIN[name]
    assert nahm.cartan_matrix(name) == [
        [2 if a == b else -1 if (a, b) in edges or (b, a) in edges else 0
         for b in range(1, r + 1)] for a in range(1, r + 1)]


@pytest.mark.parametrize("k", range(1, 8))
def test_type_a_algebra_is_the_chain(k):
    assert NCAlgebra.from_cartan(f"a{k + 1}").eps == dynkin_eps(f"a{k + 1}")


def test_d4_algebra_is_the_star():
    eps = NCAlgebra.from_cartan("d4").eps
    assert eps == dynkin_eps("d4")
    assert [b + 1 for b in range(4) if eps[1][b]] == [1, 3, 4]    # center node 2


@pytest.mark.parametrize("name", ["a0", "a1", "a", "a03", "a-1", "b3", "d5", "e6", "",
                                  "a\u0663"])
def test_other_type_strings_are_refused(name):
    for consumer in (nahm.cartan_matrix, nahm.build_cartan_side, NCAlgebra.from_cartan,
                     qweyl.ordered_product_factors,
                     lambda t: presets.nahm_preset(f"cartan-{t}")):
        with pytest.raises(ValueError):
            consumer(name)
