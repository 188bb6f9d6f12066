"""Seeded generator of block-lower-triangular systems for `synth-chains`.

Every system is written as a `system v1` file with two degree blocks
(top block D1, bottom block D2):

    A = [[beta0*T1,       0 ],
         [   S(x),  beta0*T2]]

The diagonal is monogenous: one constant matrix diag(T1, T2) times one
coefficient function beta0 = a/x.  T1 and T2 are integer matrices with
small integer eigenvalues and some Jordan links, conjugated by a unit
triangular integer matrix so that they are not already triangular.  The
eigenvalues of ad(diag(T1, T2)) on the subdiagonal block are the
differences mu(T2) - mu(T1), so chains with zero and with nonzero
eigenvalue both occur.  S(x) is a sum of a few rational functions times
sparse integer matrices; their denominators are products of factors from
POLE_POOL, none of which is x or x^2 + 1, so the reduction meets pole
factors that Henon-Heiles never produces.

The shape of system k comes from a fixed stream for k alone: eigenvalues,
links, conjugation, pole factors and their multiplicities, the constant
matrices that multiply the coefficient functions of S, and the sizes of
the numbers in those functions.  The seed draws only the signs of the
numerator coefficients, which changes the functions but not the Lie
algebra they multiply.  So every seed reduces systems of the same shapes
with different numbers, and the work of a batch varies little from seed
to seed.
"""

import random

from varred.fileformats import SystemFile, render_system
from varred.matrices import RatMat
from varred.poly import Poly
from varred.rationals import QQ
from varred.ratfun import RatFun

D1 = 4
D2 = 3
# irreducible monic factors, coefficients lowest degree first
POLE_POOL = ((-1, 1), (3, 1), (2, 0, 1), (-2, 1), (1, 1, 1))
_SHAPE_SEED = 7919


def _poly(coeffs):
    return Poly([QQ(c) for c in coeffs])


def _signed(shape, vals, bound):
    """A nonzero integer: the shape stream fixes its size, the seed its sign."""
    return shape.randint(1, bound) * vals.choice((-1, 1))


def _eigen_block(shape, size):
    """Integer matrix with small integer eigenvalues and some Jordan links."""
    eig = sorted(shape.choice((0, 0, 1, 2)) for _ in range(size))
    t = [[0] * size for _ in range(size)]
    for i in range(size):
        t[i][i] = eig[i]
        if i + 1 < size and eig[i] == eig[i + 1] and shape.random() < 0.6:
            t[i][i + 1] = 1
    # U^-1 T U with U unit lower triangular keeps the eigenvalues
    u = [[1 if i == j else (shape.randint(-1, 1) if j < i else 0)
          for j in range(size)] for i in range(size)]
    uinv = [[QQ(0)] * size for _ in range(size)]
    for j in range(size):
        for i in range(size):
            acc = QQ(1 if i == j else 0)
            for k in range(i):
                acc -= u[i][k] * uinv[k][j]
            uinv[i][j] = acc
    tu = [[sum(QQ(t[i][k]) * u[k][j] for k in range(size)) for j in range(size)]
          for i in range(size)]
    return [[sum(uinv[i][k] * tu[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)]


def _coefficient(shape, vals):
    """A subdiagonal coefficient with poles only at factors from POLE_POOL.

    Half of them are exact derivatives: those integrate completely
    ("chain-removal" steps on zero-eigenvalue chains).  The others leave
    simple-pole residues ("hermite-partial") or, on nonzero-eigenvalue
    chains, usually have no rational solution ("unresolved").
    """
    den = _poly((1,))
    for q in shape.sample(POLE_POOL, shape.randint(1, 2)):
        den = den * _poly(q) ** shape.randint(1, 2)
    num_deg = shape.randint(1, 2)
    num = [_signed(shape, vals, 3) for _ in range(num_deg)] + [_signed(shape, vals, 2)]
    f = RatFun(_poly(num), den)
    return f.derivative() if shape.random() < 1 / 2 else f


def generate_system(index, vals):
    """System `index` of a batch as a SystemFile with blocks [D1, D2]."""
    shape = random.Random(_SHAPE_SEED * 1000 + index)
    n = D1 + D2
    beta0 = RatFun(_poly((shape.choice((1, 2)),)), _poly((0, 1)))
    mat = RatMat.zeros(n, n)
    for size, off in ((D1, 0), (D2, D1)):
        for i, row in enumerate(_eigen_block(shape, size)):
            for j, c in enumerate(row):
                if c:
                    mat.data[off + i][off + j] = beta0.scale(c)
    for _ in range(shape.randint(2, 3)):
        f = _coefficient(shape, vals)
        for _ in range(shape.randint(1, 3)):
            i = D1 + shape.randrange(D2)
            j = shape.randrange(D1)
            c = shape.randint(1, 2) * shape.choice((-1, 1))
            mat.data[i][j] = mat.data[i][j] + f.scale(QQ(c))
    return SystemFile("x", mat, [D1, D2])


def generate_texts(seed, count):
    """`count` system files for `seed`, rendered; same seed, same bytes."""
    vals = random.Random(seed)
    return [render_system(generate_system(k, vals)) for k in range(count)]
