"""Mapping the current construction's bias for exponent-type errors.

Here the error enters through the exponent, f(y, s) = y**s with
S ~ Unif[1-alpha, 1+alpha], and the data are uniform on [a, b].  The bias
factor and the relative bias are computed in closed quadrature on a grid
of supports 0 <= a <= b <= 8, the same landscape a measurement planner
would scan to see where the reported uncertainty can be trusted.  A map
is described by its grid alone (a ``MapSpec``): it samples nothing, so
it needs no seed, trial count or worker pool.

Expected picture: the factor is negative almost everywhere (variance is
understated), with a small positive pocket at narrow low supports, and
the extreme relative bias for pairs of vectors approaches 20% in
magnitude, realized with both signs.
"""

import numpy as np

from mcombine.experiments import MapSpec, run_map
from mcombine.models import EXPONENTIAL

GRID = MapSpec(kernel=EXPONENTIAL, alpha=0.95, lo=0.0, hi=8.0, n=81, j=2)


def describe(name: str, result) -> None:
    vals = result.values[np.triu_indices(result.grid.size)]
    finite = vals[np.isfinite(vals)]
    print(f"{name}:")
    print(f"  valid cells        {finite.size}")
    print(f"  negative fraction  {(finite < 0).mean():.3f}")
    print(f"  range              [{finite.min():.4f}, {finite.max():.4f}]")
    worst = finite[np.argmax(np.abs(finite))]
    print(f"  largest magnitude  {worst:.4f}\n")


def maybe_plot(psi, rel) -> None:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the contour figure")
        return
    fig, axes = plt.subplots(1, 2, figsize=(11, 4.5), constrained_layout=True)
    for ax, result, title in ((axes[0], psi, "bias factor"), (axes[1], rel, "relative bias, J=2")):
        im = ax.pcolormesh(result.grid, result.grid, result.values, shading="nearest")
        ax.set_xlabel("b (upper support)")
        ax.set_ylabel("a (lower support)")
        ax.set_title(title)
        fig.colorbar(im, ax=ax)
    fig.savefig("exponential_maps.png", dpi=150)
    print("wrote exponential_maps.png")


def main():
    psi = run_map(GRID)
    rel = run_map(GRID, relative=True)
    print(f"exponent-error maps, alpha={GRID.alpha}, {GRID.n}x{GRID.n} grid over [0, 8]\n")
    describe("bias factor", psi)
    describe("relative bias (J=2)", rel)
    maybe_plot(psi, rel)


if __name__ == "__main__":
    main()
