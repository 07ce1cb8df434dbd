#!/usr/bin/env python3
"""Mesh-refinement study on the circle: PL-sample a smooth trace-zero loop,
decompose, and watch the residual against the smooth target contract."""
import argparse
import pathlib
import sys

# The target loop and its residual live in tests/helpers.py, which the
# refinement tests also use.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from helpers import circle_refinement_residual  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base", type=int, default=8, help="coarsest vertex count")
    parser.add_argument("--levels", type=int, default=5)
    args = parser.parse_args()

    previous = None
    print(f"{'vertices':>10} {'residual':>14} {'ratio':>8}")
    for level in range(args.levels):
        n = args.base * 2 ** level
        resid = circle_refinement_residual(n)
        ratio = "" if previous is None else f"{resid / previous:8.3f}"
        print(f"{n:>10} {resid:>14.6e} {ratio:>8}")
        previous = resid


if __name__ == "__main__":
    main()
