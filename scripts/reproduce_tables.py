#!/usr/bin/env python3
"""Regenerate the headline tables: strengths, Molien data, shell counts,
harmonic invariant dimensions, and the rank-1 theta generators."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quatdesign.orders import shell_count_formula, enumerate_shell
from quatdesign.qseries import qseries
from quatdesign.strength import group_strength, molien_closed_form
from quatdesign.theta import harmonic_molien, theta_table


def main():
    print("harmonic strengths (even members, all odd degrees included):")
    for label in ("2T", "2O", "2I"):
        report = group_strength(label, 60)
        print(f"  T({label}) even part: {list(report.even_members)}")

    print("\nMolien series closed forms, first nonzero coefficients:")
    for label in ("2T", "2O", "2I"):
        series = molien_closed_form(label, 32)
        terms = [
            f"u^{k}" + (f"*{c}" if c != 1 else "")
            for k, c in enumerate(series)
            if c and k
        ]
        print(f"  Psi_{label} = 1 + " + " + ".join(terms[:8]) + " + ...")

    print("\nshell sizes |O_(G,m)| (enumerated == divisor formula):")
    for label, m_max in (("2T", 8), ("2O", 6), ("2I", 5)):
        counts = []
        for m in range(1, m_max + 1):
            n = len(enumerate_shell(label, m))
            assert n == shell_count_formula(label, m)
            counts.append(n)
        print(f"  {label}: {counts}")

    print("\ndim Harm_l(R^4)^G for even l = 2..24:")
    for label in ("2T", "2O", "2I"):
        row = list(harmonic_molien(label, 24)[2::2])
        print(f"  {label}: {row}")

    print("\nrank-1 theta spaces and their q-expansions:")
    tbl = theta_table("2O", 8, 5)
    print(f"  Theta(2O, 8):  {tbl.normalized_generator()}")
    print(f"  = Delta + 64 Delta(2z): {qseries('DeltaPlus64Delta2', 5)[1:]}")
    tbl = theta_table("2I", 12, 4)
    print(f"  Theta(2I, 12): {tbl.normalized_generator()}")
    print(f"  = E4 * Delta:           {qseries('E4Delta', 4)[1:]}")


if __name__ == "__main__":
    main()
