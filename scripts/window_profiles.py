#!/usr/bin/env python3
"""Build the window-profile tables that ssf_lab ships as package data.

For each window kind the table holds Phi(y) = (1/2 pi) int theta(u) exp(i u y) du
and its derivative Phi'(y) on the knots of ``quantization._PROFILE_SEGMENTS``
(26 081 knots, four uniform segments up to y = 1200), as one (2, knots) array:
float64 for the even ``bump_at_zero``, complex128 for the one-sided
``bump_positive``.  The u-integral is a 768-node Gauss-Legendre rule on supp
theta.  ``quantization`` loads these tables and derives its Hermite
interpolant from them; it never builds one.

    python scripts/window_profiles.py --write   # rebuild and write the tables
    python scripts/window_profiles.py --check   # rebuild and compare, exit 1 on a difference

``--check`` compares to ``CHECK_ATOL``: another CPU's BLAS may sum the
segment products in another order, and ``leggauss`` may round its nodes
differently, so a rebuild elsewhere is not bit-equal to the shipped tables.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ssf_lab import quantization as qz  # noqa: E402

GL_ORDER = 768
# |Phi| is at most 0.2 and |Phi'| 0.055.  Moving each Gauss node by one ulp
# moved no entry by more than 1.2e-15, and the direct sum of the 768 terms
# without BLAS differs from the table by at most 6.3e-16 (x86-64, OpenBLAS);
# the tolerance is 8 times the first and 10 times inside the 1e-13 to which
# the tests hold the interpolant at the knots.
CHECK_ATOL = 1e-14
KINDS = ("bump_at_zero", "bump_positive")


def _segment_phase_sum(seg: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k w[r, k] exp(i u_k y) for every weight row r and every knot y of
    one uniform segment, as an array (rows, knots).

    With a block size B ~ sqrt(n), each knot is y[bB + j] = y[bB] + (y[j] - y[0]),
    so exp(i u y) factors into a coarse and a fine phase and the whole segment
    is one (rows * n/B x 768) @ (768 x B) product: (n/B + B) * 768 exponentials
    instead of n * 768, and no n x 768 phase matrix.
    """
    n = seg.size
    block = math.isqrt(n - 1) + 1
    coarse = np.exp(1j * np.outer(seg[::block], u))
    coarse = (w[:, None, :] * coarse).reshape(-1, u.size)
    fine = np.exp(1j * np.outer(seg[:block] - seg[0], u))
    return (coarse @ fine.T).reshape(w.shape[0], -1)[:, :n]


def build_table(kind: str) -> np.ndarray:
    """The (2, knots) table of Phi and Phi' of one window kind."""
    supp = (-1.0, 1.0) if kind == "bump_at_zero" else (0.5, 1.0)
    un, uw = np.polynomial.legendre.leggauss(GL_ORDER)
    mid, half = 0.5 * (supp[0] + supp[1]), 0.5 * (supp[1] - supp[0])
    u = mid + half * un
    w = half * uw * qz._theta_eval(kind, u)
    table = np.concatenate(
        [_segment_phase_sum(np.arange(*seg), u, np.stack([w, 1j * u * w]))
         for seg in qz._PROFILE_SEGMENTS], axis=1)
    table /= 2.0 * math.pi
    return np.ascontiguousarray(table.real if kind == "bump_at_zero" else table)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="write the tables")
    mode.add_argument("--check", action="store_true",
                      help=f"compare a rebuild with the shipped tables to {CHECK_ATOL:g}")
    args = ap.parse_args()
    bad = 0
    for kind in KINDS:
        path = qz._profile_path(kind)
        table = build_table(kind)
        if args.write:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            np.save(path, table, allow_pickle=False)
            print(f"{kind}: wrote {table.shape} {table.dtype} to {path}")
            continue
        shipped = qz._load_profile_table(kind, table.shape[1])
        diff = float(np.max(np.abs(table - shipped)))
        ok = diff <= CHECK_ATOL
        bad += not ok
        print(f"{kind}: largest difference {diff:.3g} ({'ok' if ok else 'above'} {CHECK_ATOL:g})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
