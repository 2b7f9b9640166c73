"""Equation/unknown counting for the coordinator's inference problem.

Three information classes are available to an honest-but-curious
coordinator: temperature-only aggregates, encryption-matrix-only relations,
and the mixed products.  The report counts scalar unknowns against
independent scalar equations for each class and flags which systems are
under- or over-determined.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CountingReport", "counting_report"]


def check_sizes(**sizes):
    """Raise ValueError naming the first size below 1."""
    for name, n in sizes.items():
        if n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")


@dataclass
class CountingReport:
    K: int
    L: int
    T: int
    M: int
    type1_unknowns: int
    type1_equations: int
    type1_under_determined: bool
    type2_unknowns: int
    type2_equations: int
    type2_under_determined: bool
    type3_unknown_total: int
    type3_equation_total: int
    type3_over_determined: bool

    def as_dict(self) -> dict:
        return {
            "K": self.K,
            "L": self.L,
            "T": self.T,
            "M": self.M,
            "type1": {
                "unknowns": self.type1_unknowns,
                "equations": self.type1_equations,
                "under_determined": self.type1_under_determined,
            },
            "type2": {
                "unknowns": self.type2_unknowns,
                "equations": self.type2_equations,
                "under_determined": self.type2_under_determined,
            },
            "type3": {
                "unknowns": self.type3_unknown_total,
                "equations": self.type3_equation_total,
                "over_determined": self.type3_over_determined,
            },
        }


def counting_report(K: int, L: int, T: int, M: int) -> CountingReport:
    """Exact determinedness counts for the three inference systems.

    The coordinator receives one aggregate temperature series of T+M rows
    per iteration, so the temperature-only system has (T+M) equations per
    iteration.
    The Gram relation contributes only its upper triangle.
    """
    check_sizes(K=K, L=L, T=T, M=M)
    t1_unknowns = (T + M) * K
    t1_equations = (T + M) * L
    t2_unknowns = K * K
    t2_equations = K * (K + 1) // 2 + 2 * K
    t3_unknowns = (T + M) * K + K * K * L
    t3_equations = (
        (T + M) * L  # aggregate temperature relations
        + K * (K + 1) // 2 * L  # Gram upper triangles
        + K * L  # column sums
        + K * L  # weight recovery relations
        + T * K * L  # mixed filtered-temperature products
    )
    return CountingReport(
        K=K,
        L=L,
        T=T,
        M=M,
        type1_unknowns=t1_unknowns,
        type1_equations=t1_equations,
        type1_under_determined=t1_unknowns > t1_equations,
        type2_unknowns=t2_unknowns,
        type2_equations=t2_equations,
        type2_under_determined=t2_unknowns > t2_equations,
        type3_unknown_total=t3_unknowns,
        type3_equation_total=t3_equations,
        type3_over_determined=t3_equations > t3_unknowns,
    )
