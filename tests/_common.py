"""Shared instance builders for the test suite."""

import numpy as np

from aggtherm import build_design, generate_synthetic
from aggtherm.model import ClusterDataset, DesignMatrices, occupancy_tiling


def synthetic_instance(K=4, T=120, M=2, T_occ=12, noise=0.1, seed=0):
    dataset, true = generate_synthetic(K=K, T=T, M=M, T_occ=T_occ, noise_sigma=noise, seed=seed)
    return dataset, build_design(dataset, T_occ), true


def random_dataset(K=3, T=10, M=2, seed=0, scale=20.0):
    """Structureless random data, for solver-level contracts."""
    rng = np.random.default_rng(seed)
    rows = T + M
    return ClusterDataset(
        K=K,
        T=T,
        M=M,
        dt_minutes=30.0,
        tau_in=scale + rng.standard_normal((rows, K)),
        h_load=np.abs(rng.standard_normal((rows, K))) * 3.0,
        tau_out=10.0 + rng.standard_normal(rows),
        h_rad=np.abs(rng.standard_normal(rows)),
    )


def random_design(K=3, T=10, M=2, T_occ=4, seed=0):
    from aggtherm import build_design as _bd

    return _bd(random_dataset(K=K, T=T, M=M, seed=seed), T_occ)


def zero_design(K, T, M, T_occ):
    return DesignMatrices(
        c0=np.zeros((T, K)),
        c1=np.zeros((T, K * M)),
        c2=np.zeros((T, M + 1)),
        c3=np.zeros((T, M + 1)),
        c4=np.zeros((T, M + 1)),
        P_occ=occupancy_tiling(T, T_occ),
        T_occ=T_occ,
    )


def random_params(K, M, T_occ, seed=0, simplex=True):
    from aggtherm.model import AtdmParameters

    rng = np.random.default_rng(seed)
    if simplex:
        xi = rng.uniform(0.2, 1.0, K)
        xi = xi / xi.sum()
    else:
        xi = rng.standard_normal(K)
    return AtdmParameters(
        xi=xi,
        alpha=rng.standard_normal(M) * 0.3,
        beta=rng.standard_normal(M + 1) * 0.1,
        gamma=rng.standard_normal(M + 1) * 0.1,
        theta=rng.standard_normal(M + 1) * 0.1,
        tau_occ_free=rng.standard_normal(T_occ),
    )


def zero_mask(self, i, j, kind, sub, shape):
    """Stand-in for ``PairwiseMaskSet.mask`` that masks nothing: shares are
    then the plain fixed-point encodings, which the privacy scan must catch."""
    return np.zeros(shape, dtype=np.uint64)
