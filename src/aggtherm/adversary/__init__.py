from .counting import CountingReport, counting_report
from .leakage import (
    GramNotRankOneError,
    estimate_share_mean,
    filtered_gram_from_view,
    recover_tau_from_hat,
    recover_W_from_gram,
)
from .mqs import (
    AttackResult,
    MqsInstance,
    MqsTruth,
    SweepConfig,
    attack_sweep,
    make_attack_instance,
    solve_mqs,
    write_sweep_csv,
)

__all__ = [
    "CountingReport",
    "counting_report",
    "GramNotRankOneError",
    "recover_tau_from_hat",
    "recover_W_from_gram",
    "estimate_share_mean",
    "filtered_gram_from_view",
    "AttackResult",
    "MqsInstance",
    "MqsTruth",
    "SweepConfig",
    "attack_sweep",
    "make_attack_instance",
    "solve_mqs",
    "write_sweep_csv",
]
