"""Eigenvalues of the per-wavenumber generator, degree by degree.

Fourier-transforming the periodic update couples each wavenumber theta
to a small (k+1)x(k+1) matrix G(theta). Its eigenvalues, scaled by 1/dx,
are the semi-discrete growth rates: any positive real part anywhere on
the theta circle would mean blow-up before time stepping even enters.

The printout confirms the whole family sits in the closed left half
plane, and shows the theta = 0 fingerprint of each degree. For k = 2
the nonzero pair -3 +- i sqrt(51) is the exact root pair of
lambda^2 + 6 lambda + 60: stiffness grows with degree, which is why the
usable cfl shrinks as k goes up.
"""
import numpy as np

from dgmodeq import run_spectrum, symbol
from dgmodeq.analysis import spectrum_by_degree


def main():
    for degree, (worst, eigs) in spectrum_by_degree(run_spectrum()).items():
        shown = ", ".join(f"{z.real:+.4f}{z.imag:+.4f}i" for z in eigs)
        print(f"degree {degree}: max Re over the circle = {worst:.2e}")
        print(f"          theta=0 eigenvalues: {shown}")
    print()
    print("worst-damped nonzero mode at theta = pi:")
    for degree in (0, 1, 2):
        eigs = np.linalg.eigvals(symbol(np.pi, degree))
        print(f"  degree {degree}: {max(eigs, key=lambda z: z.real):+.4f}")
    print()
    print("every eigenvalue has Re <= 0: the scheme dissipates, never amplifies.")


if __name__ == "__main__":
    main()
