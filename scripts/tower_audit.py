#!/usr/bin/env python3
"""Audit the sphere-product tower and run a demo block-tower decomposition."""
import argparse
import json

import numpy as np

from tracezero.jsonio import decode_input, matrix_to_json
from tracezero.obstruct import villadsen_tower
from tracezero.rand import SplitMix64, random_trace_zero_hermitian
from tracezero.towers import TowerModel, tower_iterate


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m-max", type=int, default=3)
    parser.add_argument("--depth", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = villadsen_tower(args.m_max)
    print(json.dumps(spec.to_json(), indent=2, sort_keys=True))

    # depth + 1 rank-4 blocks, L = K = M = 1, and z0 in block 0: a fack-run input
    rng = SplitMix64(args.seed)
    n = 4 * (args.depth + 1)
    z0 = np.zeros((n, n), dtype=complex)
    z0[:4, :4] = random_trace_zero_hermitian(rng, 4)
    inp = decode_input("fack-run", {"tower": {"blocks": [{"rank": 4}] * (args.depth + 1)},
                                    "z0": matrix_to_json(z0)})
    dec, report = tower_iterate(inp.z0, TowerModel(inp), args.depth)
    print(f"demo tower: depth {args.depth}, {len(dec.factors)} commutators, "
          f"residual {dec.residual_norm:.3e}, "
          f"verified {dec.report.all_passed and report.all_passed}")


if __name__ == "__main__":
    main()
