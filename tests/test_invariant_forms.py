import itertools
import re
from fractions import Fraction

import pytest

from cy_smoother.invariant_forms import (
    CubicTensor,
    CyInvariantTriple,
    aronhold_ST,
    deformation_group,
    rr_dimension,
)

from conftest import MU_TABLE, NU_TABLE

MU = CubicTensor(3, MU_TABLE)
NU = CubicTensor(3, NU_TABLE)


def random_unimodular(rng, n=3):
    """Random GL(n, Z) matrix from elementary operations."""
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(12):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            M[i][k] += c * M[j][k]
        if rng.random() < 0.3:
            M[i] = [-x for x in M[i]]
    return M


def random_tensor(rng, bound=9):
    """Random rank-3 integer tensor, every independent entry drawn."""
    return CubicTensor(3, {
        idx: rng.randint(-bound, bound)
        for idx in itertools.combinations_with_replacement((1, 2, 3), 3)
    })


class TestAronhold:
    def test_reference_values(self):
        assert aronhold_ST(MU) == (0, -86400)
        assert aronhold_ST(NU) == (0, -38400)

    def test_zero_tensor(self):
        assert aronhold_ST(CubicTensor(3, {})) == (0, 0)

    def test_canonical_family(self, rng):
        # a x^3 + b y^3 + c z^3 + 6 m xyz: S = abcm - m^4,
        # T = -6 (a^2 b^2 c^2 - 20 a b c m^3 - 8 m^6)
        cases = [(1, 1, 1, 0), (2, 3, 5, 1), (1, -1, 4, -2)]
        cases += [tuple(rng.randint(-50, 50) for _ in range(4)) for _ in range(30)]
        for a, b, c, m in cases:
            t = CubicTensor(3, {(1, 1, 1): a, (2, 2, 2): b, (3, 3, 3): c, (1, 2, 3): m})
            S, T = aronhold_ST(t)
            assert S == a * b * c * m - m**4
            assert T == -6 * ((a * b * c) ** 2 - 20 * a * b * c * m**3 - 8 * m**6)

    def test_rank_requirement(self):
        with pytest.raises(ValueError, match=r"^Aronhold invariants need a rank-3 tensor, "
                           r"got rank 2$"):
            aronhold_ST(CubicTensor(2, {(1, 1, 1): 1}))

    def test_scaling_laws(self):
        for lam in (2, 3):
            S, T = aronhold_ST(MU)
            S2, T2 = aronhold_ST(CubicTensor(3, {k: lam * v for k, v in MU.entries.items()}))
            assert S2 == lam**4 * S
            assert T2 == lam**6 * T

    def test_gl3z_invariance(self, rng):
        # MU has S = 0, so random tensors with S != 0 exercise S as well
        tensors = [MU]
        while len(tensors) < 9:
            t = random_tensor(rng)
            if aronhold_ST(t)[0]:
                tensors.append(t)
        for t in tensors:
            S, T = aronhold_ST(t)
            for _ in range(6):
                M = random_unimodular(rng)
                assert aronhold_ST(t.change_basis(M)) == (S, T)


    def test_reducible_cubics_have_zero_discriminant(self, rng):
        """T^2 + 2304 S^3 vanishes on every product l*q of a linear and a
        quadratic form, which checks the relative scale of the two bracket
        forms independently of the two reference values; it is nonzero on mu."""
        for _ in range(200):
            lin = [rng.randint(-3, 3) for _ in range(3)]
            quad = {ij: rng.randint(-3, 3)
                    for ij in itertools.combinations_with_replacement(range(3), 2)}
            coeff = {}
            for i, a in enumerate(lin):
                for ij, b in quad.items():
                    key = tuple(sorted((i,) + ij))
                    coeff[key] = coeff.get(key, 0) + a * b
            # F = T(x, x, x) / 6: an entry is 6 x coefficient / (number of
            # distinct permutations of its index)
            entries = {
                tuple(k + 1 for k in key): 6 * c // len(set(itertools.permutations(key)))
                for key, c in coeff.items()
            }
            S, T = aronhold_ST(CubicTensor(3, entries))
            assert T**2 + 2304 * S**3 == 0
        S, T = aronhold_ST(MU)
        assert T**2 + 2304 * S**3 != 0


class TestCubicTensor:
    def test_symmetric_storage(self):
        t = CubicTensor(3, {(2, 1, 3): 7})
        assert t.value(3, 2, 1) == 7
        assert t.value(1, 1, 1) == 0

    @pytest.mark.parametrize("n", range(5))
    def test_change_basis_is_the_defining_sum(self, rng, n):
        # T'_abc = sum_pqr M_pa M_qb M_rc T_pqr for any integer M, not only a
        # unimodular one; every sorted key is kept, zeros included
        R = range(n)
        for _ in range(4):
            t = CubicTensor(n, {
                idx: rng.randint(-9, 9)
                for idx in itertools.combinations_with_replacement(range(1, n + 1), 3)
                if rng.random() < 0.7
            })
            M = [[rng.randint(-3, 3) for _ in R] for _ in R]
            want = {
                (a + 1, b + 1, c + 1): sum(
                    M[p][a] * M[q][b] * M[r][c] * t.value(p + 1, q + 1, r + 1)
                    for p in R for q in R for r in R
                )
                for a, b, c in itertools.combinations_with_replacement(R, 3)
            }
            assert t.change_basis(M).entries == want

    def test_conflicting_entries_rejected(self):
        with pytest.raises(ValueError, match=r"conflicting values .* \(1, 2, 3\)$"):
            CubicTensor(3, {(1, 2, 3): 1, (3, 2, 1): 2})
        # equal symmetric values are one entry, not a conflict
        assert CubicTensor(3, {(1, 2, 3): 1, (3, 2, 1): 1}).entries == {(1, 2, 3): 1}

    def test_bad_index(self):
        with pytest.raises(ValueError, match=r"^bad tensor index \(1, 2, 3\) for rank 2$"):
            CubicTensor(2, {(1, 2, 3): 1})

    @pytest.mark.parametrize(
        "idx",
        [(0, 1, 1), (1, 2), (1, 1, 2, 2)],
        ids=["index-0", "two-indices", "four-indices"],
    )
    def test_malformed_index(self, idx):
        with pytest.raises(ValueError, match=r"^bad tensor index %s for rank 2$"
                           % re.escape(repr(idx))):
            CubicTensor(2, {idx: 1})

    @pytest.mark.parametrize("idx", [(1, 2, 3), (0, 1, 1), (3, 1, 1)])
    def test_value_checks_the_index_as_the_constructor_does(self, idx):
        with pytest.raises(ValueError, match=r"^bad tensor index %s for rank 2$"
                           % re.escape(repr(idx))):
            CubicTensor(2, {(1, 1, 1): 1}).value(*idx)

    @pytest.mark.parametrize("value", [2.5, "7"], ids=["float", "string"])
    def test_rejects_non_integer_entries(self, value):
        # an entry is never truncated or parsed: 2.5 does not become 2
        with pytest.raises(TypeError):
            CubicTensor(1, {(1, 1, 1): value})

    def test_rejects_non_integer_index(self):
        with pytest.raises(TypeError):
            CubicTensor(2, {(1.7, 1, 2): 1})
        assert CubicTensor(1, {(True, 1, 1): True}).entries == {(1, 1, 1): 1}


class TestFormsDistinguishable:
    def test_mu_nu_distinct(self):
        # T is GL(3, Z)-invariant, so unequal T values tell the forms apart
        (s_mu, t_mu), (s_nu, t_nu) = aronhold_ST(MU), aronhold_ST(NU)
        assert (s_mu, s_nu) == (0, 0) and t_mu != t_nu
        assert Fraction(t_mu, t_nu) == Fraction(9, 4)


class TestRiemannRoch:
    def test_embedding_count(self):
        assert rr_dimension(CyInvariantTriple(2, 44), 8) == 200  # N = 199

    def test_n_zero(self):
        assert rr_dimension(CyInvariantTriple(2, 44), 0) == 0

    def test_quintic_sections(self):
        # h^0(O(1)) on the quintic: one section per coordinate of P^4
        brute = len(["x0", "x1", "x2", "x3", "x4"])
        assert rr_dimension(CyInvariantTriple(5, 50), 1) == brute == 5

    def test_odd_in_n(self, rng):
        inv = CyInvariantTriple(2, 44)
        for _ in range(20):
            n = rng.randint(1, 30)
            assert rr_dimension(inv, -n) == -rr_dimension(inv, n)

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError, match=r"^chi\(O\(1 rho\)\) = 1/4 is not an integer"):
            rr_dimension(CyInvariantTriple(1, 1), 1)


class TestDeformationGroup:
    def test_singleton(self):
        groups = deformation_group([("only", CyInvariantTriple(2, 44))])
        assert len(groups) == 1
        assert groups[0]["members"] == ("only",)

    def test_quick_example_pairs_with_x8(self):
        groups = deformation_group(
            [("Z", CyInvariantTriple(2, 44, 149)), ("X(8)", CyInvariantTriple(2, 44))]
        )
        assert len(groups) == 1
        assert set(groups[0]["members"]) == {"Z", "X(8)"}

    def test_partition_laws(self, rng):
        items = []
        for i in range(30):
            items.append(
                ("m%d" % i, CyInvariantTriple(rng.randint(1, 4), rng.choice([44, 50, 56])))
            )
        groups = deformation_group(items)
        labels = [m for g in groups for m in g["members"]]
        assert sorted(labels) == sorted(l for l, _ in items)  # partition
        shuffled = items[:]
        rng.shuffle(shuffled)
        regrouped = deformation_group(shuffled)
        a = {g["rho_cubed"] * 1000 + g["rho_c2"]: frozenset(g["members"]) for g in groups}
        b = {
            g["rho_cubed"] * 1000 + g["rho_c2"]: frozenset(g["members"]) for g in regrouped
        }
        assert a == b  # order-invariant

    def test_h12_never_used(self):
        groups = deformation_group(
            [
                ("a", CyInvariantTriple(5, 50, 92)),
                ("b", CyInvariantTriple(5, 50, 101)),
            ]
        )
        assert len(groups) == 1
