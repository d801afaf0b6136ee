"""Fit the coefficients of ``orbit_localize.oracle._j0`` with mpmath.

    python tests/fit_j0.py           # print the literals
    python tests/fit_j0.py --check   # exit 1 unless oracle.py holds them

``--check`` imports the installed package (or run with PYTHONPATH=src).

``_j0`` has three pieces, each a Chebyshev interpolant at first-kind nodes,
computed at 40 digits and rewritten in powers of the variable it is
evaluated in, highest power first:

* x < 2: J0(x) as a polynomial in t = x^2;
* 2 <= x <= 8: J0(x) / prod_k (t - j_k^2) over the first three zeros j_k of
  J0, as a polynomial in t - 32 (exact for t in [4, 64]);
* x > 8: the Hankel form (DLMF 10.17.3)
  J0(x) = sqrt(2 / (pi x)) (P(x) cos(x - pi/4) - Q(x) sin(x - pi/4)),
  where P and Q x / 8 are smooth in w = (8/x)^2 on [0, 1] and Q itself is
  not.  Both carry the factor 1 / sqrt(8 pi), so that
  J0(x) = sqrt(8/x) (P~(w) (cos x + sin x) + (8/x) Q~(w) (cos x - sin x)).

It needs mpmath alone (``--check`` also imports the package).  This is not
a test: ``tests/test_j0.py`` checks the committed literals against 50-digit
mpmath.
"""

import sys

import mpmath as mp

mp.mp.dps = 40

NEAR_NODES = 12
MID_NODES = 13
FAR_NODES = 11
MID_SHIFT = 32
ZEROS = [mp.besseljzero(0, k) ** 2 for k in (1, 2, 3)]


def chebyshev_fit(g, a, b, nodes, shift):
    """Interpolant of g on [a, b] at ``nodes`` Chebyshev points, as the
    coefficients of powers of z - shift, highest first."""
    a, b = mp.mpf(a), mp.mpf(b)
    mid, half = (a + b) / 2, (b - a) / 2
    angles = [mp.pi * (k + mp.mpf(1) / 2) / nodes for k in range(nodes)]
    vals = [g(mid + half * mp.cos(th)) for th in angles]
    cheb = [2 * mp.fsum(v * mp.cos(j * th) for v, th in zip(vals, angles)) / nodes
            for j in range(nodes)]
    cheb[0] /= 2
    # T_j(u) with u = alpha (z - shift) + beta, in powers of z - shift.
    alpha, beta = 1 / half, (shift - mid) / half
    prev, cur = [mp.mpf(1)], [beta, alpha]
    powers = [mp.mpf(0)] * nodes
    powers[0] = cheb[0]
    for j in range(1, nodes):
        for i, c in enumerate(cur):
            powers[i] += cheb[j] * c
        nxt = [mp.mpf(0)] * (len(cur) + 1)
        for i, c in enumerate(cur):
            nxt[i] += 2 * beta * c
            nxt[i + 1] += 2 * alpha * c
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return [float(c) for c in reversed(powers)]


def hankel_pq(x):
    """P(x) and Q(x) of DLMF 10.17.3, from J0 and Y0."""
    j, y = mp.besselj(0, x), mp.bessely(0, x)
    chi = x - mp.pi / 4
    amp = mp.sqrt(mp.pi * x / 2)
    return (amp * (j * mp.cos(chi) + y * mp.sin(chi)),
            amp * (y * mp.cos(chi) - j * mp.sin(chi)))


def far_p(w):
    if w == 0:
        return 1 / mp.sqrt(8 * mp.pi)
    return hankel_pq(8 / mp.sqrt(w))[0] / mp.sqrt(8 * mp.pi)


def far_q(w):
    if w == 0:
        return -1 / (64 * mp.sqrt(8 * mp.pi))
    x = 8 / mp.sqrt(w)
    return hankel_pq(x)[1] * x / 8 / mp.sqrt(8 * mp.pi)


def near(t):
    return mp.besselj(0, mp.sqrt(t))


def mid(t):
    return near(t) / ((t - ZEROS[0]) * (t - ZEROS[1]) * (t - ZEROS[2]))


def literals():
    """The coefficient tuples of oracle.py, by name."""
    return {
        "_J0_NEAR": tuple(chebyshev_fit(near, 0, 4, NEAR_NODES, 0)),
        "_J0_MID": tuple(chebyshev_fit(mid, 4, 64, MID_NODES, MID_SHIFT)),
        "_J0_ZEROS_SQ": tuple(float(z) for z in ZEROS),
        "_J0_FAR_P": tuple(chebyshev_fit(far_p, 0, 1, FAR_NODES, 0)),
        "_J0_FAR_Q": tuple(chebyshev_fit(far_q, 0, 1, FAR_NODES, 0)),
    }


def source(values):
    lines = []
    for name, coefs in values.items():
        lines.append(f"{name} = (")
        lines.extend(f"    {c!r}," for c in coefs)
        lines.append(")")
    return "\n".join(lines)


def main(argv):
    values = literals()
    if argv[1:] == ["--check"]:
        from orbit_localize import oracle

        wrong = [name for name, coefs in values.items()
                 if getattr(oracle, name) != coefs]
        print("oracle.py holds these literals" if not wrong
              else f"oracle.py differs in {', '.join(wrong)}")
        return 1 if wrong else 0
    print(source(values))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
