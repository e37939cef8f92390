"""dg-p1 against MUSCL-style finite volume, plus the shadow measurement.

Two comparisons in one sitting:

1. Error ladders for dg-p1 and both second-order FV slope choices. All
   three are formally second order; the modal scheme reaches the same
   rate with a genuinely local stencil because its slope is evolved,
   not reconstructed from neighbors.

2. The live-operator measurement behind the Taylor tables: apply the
   semi-discrete rhs to a projected sine and least-squares fit each
   moment derivative against the predicted leading shape. The fitted
   numbers converge on the exact rational coefficients.
"""
from dgmodeq import RunConfig, fitted_l2_orders, run_compare, run_residual


def main():
    table = run_compare(RunConfig("dg-p1", (20, 40, 80, 160)))
    print(table.format_text())
    for scheme, order in fitted_l2_orders(table).items():
        print(f"fitted L2 order {scheme}: {order:.3f}")
    print()

    residual = run_residual(RunConfig("dg-p1", (40, 80, 160)))
    print("re-measuring the dg-p1 evolution laws from the live operator:")
    finest = max(residual.column("N"))
    names = ("estimator", "N", "mode", "moment", "h_power", "exact", "measured")
    for estimator, n, mode, m, q, exact, measured in zip(*map(residual.column, names)):
        if estimator == "grid" and n == finest:
            print(
                f"  {mode:12s} a{m}, h^{q} coefficient: exact {exact:>5s},"
                f" measured {measured:+.6f} at N={n}"
            )
    print()
    print("the degenerate a1 u_xx coefficient is measured near zero and the")
    print("-2/5 appears at the next order: algebra and operator agree.")


if __name__ == "__main__":
    main()
