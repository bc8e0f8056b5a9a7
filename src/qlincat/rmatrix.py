"""The braid relation of an object's normalized projector combination.

B = P_1 - lam P_2 acts as 1 on the first component of V' (x) V' and as
-lam on the second.  ``braid_verdicts`` decides B12 B23 B12 = B23 B12 B23
for many lam at once, from one projector and one Hecke scalar (Gurevich
1991): L P is read from the object's cached component bases by one
``linalg.spectral_sum``, as a scale L and sparse integer columns, and
applied to the first and to the last two factors of each tensor-cube
basis word through those columns; no matrix on the tensor cube, dense sum
or ``Fraction`` entry is formed.
"""

from __future__ import annotations

from .linalg import frac, spectral_sum
from .spaces import QuantumObject


class RepeatedCoefficient(Exception):
    """Projector coefficients must be pairwise distinct."""


def _on_factors(cols: tuple[dict[int, int], ...], n: int):
    """The maps v -> (M (x) 1) v and v -> (1 (x) M) v on sparse vectors over
    the n**3 words of the tensor cube, for the integer columns of a matrix M
    on the tensor square."""
    nn = n * n

    def on12(v: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for idx, x in v.items():
            pair, last = divmod(idx, n)
            for r, y in cols[pair].items():
                key = r * n + last
                out[key] = out.get(key, 0) + x * y
        return out

    def on23(v: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for idx, x in v.items():
            first, pair = divmod(idx, nn)
            for r, y in cols[pair].items():
                key = first * nn + r
                out[key] = out.get(key, 0) + x * y
        return out

    return on12, on23


def braid_verdicts(obj: QuantumObject, lams) -> tuple[bool, ...]:
    """Whether B = P_1 - lam P_2 satisfies the braid relation
    B12 B23 B12 = B23 B12 B23 on the tensor cube, for each lam in lams,
    from one projector and no braid product per lam.  An object of other
    than two components is refused (ValueError) before any lam is read.

    With P = P_1, B = P_1 - lam P_2 = (1 + lam) P - lam, and P**2 = P gives
    B12 B23 B12 - B23 B12 B23 = (1 + lam) [(1 + lam)**2 X - lam Y], with
    X = P12 P23 P12 - P23 P12 P23 and Y = P12 - P23 (the Hecke condition).
    lam = -1 repeats the coefficient 1 and is refused (RepeatedCoefficient),
    so lam passes iff (1 + lam)**2 X = lam Y.  L P is read from one
    ``spectral_sum``, and each cube word's columns of L**3 X and of
    L Y = L P12 - L P23 are compared on integers: the first nonzero entry
    of L Y fixes kappa = (kx, ky) with ky L**3 X = kx L Y (before it, X
    must vanish where Y does), and a column where the two sides differ
    fails every lam.  Then X = kappa Y with
    kappa = kx / (ky L**2), and lam = num / den passes iff
    kx (den + num)**2 = ky L**2 num den; if X = Y = 0, every lam passes.
    """
    if obj.s != 2:
        raise ValueError("normalized form needs a two-component object")
    ratios = []
    for lam in map(frac, lams):
        if lam == -1:
            raise RepeatedCoefficient("coefficients 1, 1 are not pairwise distinct")
        ratios.append(lam.as_integer_ratio())
    n = obj.space.dim
    scale, cols = spectral_sum(obj.bases, (1, 0), n * n)
    p12, p23 = _on_factors(cols, n)
    kappa = None
    for word in range(n**3):
        e = {word: 1}
        y, z = p12(e), p23(e)
        x = p12(p23(y))
        for k, v in p23(p12(z)).items():
            x[k] = x.get(k, 0) - v
        for k, v in z.items():
            y[k] = y.get(k, 0) - v
        if kappa is None:
            kappa = next(((x.get(k, 0), v) for k, v in y.items() if v), None)
        kx, ky = kappa or (0, 1)
        # x becomes ky x - kx y (off the support of y, ky x vanishes iff x does)
        for k, v in y.items():
            x[k] = ky * x.get(k, 0) - kx * v
        if any(x.values()):
            return (False,) * len(ratios)
    if kappa is None:
        return (True,) * len(ratios)
    kx, ky = kappa[0], kappa[1] * scale * scale
    return tuple(kx * (den + num) ** 2 == ky * num * den for num, den in ratios)
