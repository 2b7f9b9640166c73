import dataclasses
import itertools

import pytest

from aggtherm.adversary import counting_report, make_attack_instance
from aggtherm.adversary.counting import CountingReport


def enumerate_scalar_equations(K, L, T, M):
    """Independent brute-force count: build the identifier of every scalar
    equation each information class provides and count distinct ones.

    An aggregate-temperature equation is identified by (iteration, period):
    the same weighted sum reappears across lags, so lagged repeats collapse.
    """
    type1 = set()
    for l, m, t in itertools.product(range(L), range(M + 1), range(1, T + 1)):
        type1.add((l, t - m))

    type2 = set()
    for j in range(K):
        for k in range(j, K):
            type2.add(("gram", j, k))
    for j in range(K):
        type2.add(("colsum", j))
    for i in range(K):
        type2.add(("recover", i))

    type3 = set()
    for l in range(L):
        for m, t in itertools.product(range(M + 1), range(1, T + 1)):
            type3.add((l, "agg", t - m))
        for j in range(K):
            for k in range(j, K):
                type3.add((l, "gram", j, k))
        for j in range(K):
            type3.add((l, "colsum", j))
        for i in range(K):
            type3.add((l, "recover", i))
        for t, j in itertools.product(range(T), range(K)):
            type3.add((l, "mixed", t, j))

    tau_unknowns = {(p, i) for p in range(1 - M, T + 1) for i in range(K)}
    w_unknowns = {(l, j, i) for l in range(L) for j in range(K) for i in range(K)}
    return {
        "type1_equations": len(type1),
        "type1_unknowns": len(tau_unknowns),
        "type2_equations": len(type2),
        "type2_unknowns": K * K,
        "type3_equations": len(type3),
        "type3_unknowns": len(tau_unknowns) + len(w_unknowns),
    }


class TestCountingExamples:
    def test_paper_case_type1(self):
        r = counting_report(K=6, L=3, T=48, M=2)
        assert r.type1_unknowns == 300
        assert r.type1_equations == 150
        assert r.type1_under_determined

    def test_type2_at_six_zones(self):
        r = counting_report(K=6, L=1, T=1, M=1)
        assert r.type2_unknowns == 36
        assert r.type2_equations == 21 + 6 + 6
        assert r.type2_under_determined

    def test_type2_boundary_five_zones(self):
        r = counting_report(K=5, L=1, T=1, M=1)
        assert r.type2_equations == 15 + 5 + 5
        assert r.type2_unknowns == 25
        assert not r.type2_under_determined

    def test_type2_flips_between_five_and_six(self):
        assert not counting_report(K=5, L=1, T=1, M=1).type2_under_determined
        assert counting_report(K=6, L=1, T=1, M=1).type2_under_determined

    def test_type1_verdict_tracks_K_vs_L(self):
        assert counting_report(K=4, L=3, T=10, M=2).type1_under_determined
        assert not counting_report(K=3, L=3, T=10, M=2).type1_under_determined

    def test_type3_totals(self):
        r = counting_report(K=6, L=3, T=48, M=2)
        assert r.type3_unknown_total == 300 + 108
        assert r.type3_equation_total == 150 + 63 + 18 + 18 + 864
        assert r.type3_over_determined

    def test_bad_sizes(self):
        with pytest.raises(ValueError, match=r"^K must be >= 1, got 0$"):
            counting_report(K=0, L=1, T=1, M=1)

    def test_as_dict_has_one_leaf_per_field(self):
        """``as_dict`` is written by hand: every dataclass field must appear
        in it exactly once, so a field added without its JSON entry fails."""
        names = [f.name for f in dataclasses.fields(CountingReport)]
        report = CountingReport(**{n: f"<{n}>" for n in names})

        def leaves(d):
            for v in d.values():
                yield from leaves(v) if isinstance(v, dict) else (v,)

        assert sorted(leaves(report.as_dict())) == sorted(f"<{n}>" for n in names)


class TestAgainstEnumeration:
    @pytest.mark.parametrize(
        "K,L,T,M",
        list(itertools.product([1, 2, 3], [1, 2], [1, 2, 3], [1, 2])),
    )
    def test_counts_match_brute_force(self, K, L, T, M):
        r = counting_report(K, L, T, M)
        e = enumerate_scalar_equations(K, L, T, M)
        assert r.type1_equations == e["type1_equations"]
        assert r.type1_unknowns == e["type1_unknowns"]
        assert r.type2_equations == e["type2_equations"]
        assert r.type2_unknowns == e["type2_unknowns"]
        assert r.type3_equation_total == e["type3_equations"]
        assert r.type3_unknown_total == e["type3_unknowns"]
        # verdicts follow from the counts
        assert r.type1_under_determined == (e["type1_unknowns"] > e["type1_equations"])
        assert r.type2_under_determined == (e["type2_unknowns"] > e["type2_equations"])
        assert r.type3_over_determined == (e["type3_equations"] > e["type3_unknowns"])

    @pytest.mark.parametrize("K", [2, 5, 6, 9])
    def test_larger_sizes_spot_checks(self, K):
        r = counting_report(K, 2, 4, 2)
        e = enumerate_scalar_equations(K, 2, 4, 2)
        assert r.type3_equation_total == e["type3_equations"]
        assert r.type3_unknown_total == e["type3_unknowns"]

    def test_attack_system_has_the_reported_size(self):
        """The system the numerical attack solves has exactly the type-3
        counts, so the brute-force check above covers it too."""
        for K, L, T in itertools.product(range(2, 7), range(1, 4), range(1, 13)):
            inst = make_attack_instance(K=K, L=L, T=T, M=2, seed=K + L + T)
            x = inst.pack(inst.true_values.tau, inst.true_values.W)
            r = counting_report(K, L, T, 2)
            assert len(inst.residual(x)) == r.type3_equation_total, (K, L, T)
            assert inst.jacobian(x).shape == (r.type3_equation_total, r.type3_unknown_total), (K, L, T)
