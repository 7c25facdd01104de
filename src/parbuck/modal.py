"""Certified multi-step jumps of the kernel's all-interior RK4 map.

At a fixed load, a full step of the compiled kernel whose four stage guards
keep d1 interior, and whose new d2 lies in [0, 1], applies one affine map
T(u) = M·u + m to the deviation u = x - x* from the load's equilibrium. n
such steps are T^n. `certify` builds the proof, checked before each jump,
that none of the n steps leaves that region.

Basis. The interior closed loop u' = A·u + b is linear in u, and M is a
polynomial in dt·A (RK4's stability polynomial), so the two share their
invariant subspaces. When A's poles form two complex pairs, the real and
imaginary parts of one eigenvector of each pair span a real invariant plane;
V holds the four as columns and W = V^-1. In z = W·(u - u_f), where u_f is
T's fixed point, B = W·M·V is block-diagonal up to rounding, and each
diagonal block is a 2x2 scaled rotation.

Certificate. Let rho0 and rho1 be the 2-norms of B's diagonal blocks and eps
the larger 2-norm of its off-diagonal blocks. If max(rho0, rho1) + eps <= 1,
|z| never grows, and the radius r_i = |z_i| of each plane grows by at most
eps·|z| per step. So over k <= n_max steps a half-space h·u + c <= bound
holds if

    a0·(r0 + k·eps·|z|) + a1·(r1 + k·eps·|z|) <= bound - c - h·u_f,

where a_i = |(h·V)_i| is the norm of h's component on plane i. With
|z| <= r0 + r1, one check at the start state covers every step of a jump of
at most n_max steps. Each slack is shrunk by MARGIN·(|bound| + |c|), far
above the rounding of the basis (V·W must equal I to 1e-12, or no
certificate is built), of the skipped float steps and of the check.

Everything here is pure Python on 4x4 matrices (lists of rows).
"""

from __future__ import annotations

import cmath
import math

# Relative shrink of every half-space's slack.
MARGIN = 1e-9


def _dot(x, y):
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return x0 * y0 + x1 * y1 + x2 * y2 + x3 * y3


def _matmul(a, b):
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def _char_poly(a):
    """c1..c4 with det(lambda·I - a) = lambda^4 + c1·lambda^3 + c2·lambda^2
    + c3·lambda + c4 (Faddeev-LeVerrier)."""
    coeffs = []
    m = a  # a·M_k, with M_1 = I and M_(k+1) = a·M_k + c_k·I
    for k in range(1, 5):
        c = -(m[0][0] + m[1][1] + m[2][2] + m[3][3]) / k
        coeffs.append(c)
        if k < 4:
            m = [list(row) for row in m]
            for i in range(4):
                m[i][i] += c
            m = _matmul(a, m)
    return coeffs


def _quadratic_roots(a, b, c):
    disc = cmath.sqrt(b * b - 4.0 * a * c)
    return (-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a)


def _roots(coeffs):
    """The four complex roots of the monic quartic, or None if the
    Durand-Kerner iteration does not settle.

    It starts from the roots of lambda^2 + c1·lambda + c2 and of
    c2·lambda^2 + c3·lambda + c4, which split the quartic when its two root
    pairs differ in size; distinct small turns keep the starts apart.
    """
    c1, c2, c3, c4 = coeffs
    if c2 == 0.0 or c4 == 0.0:
        return None
    zs = [
        z * (1.0 + 1e-3j * (i + 1))
        for i, z in enumerate((*_quadratic_roots(1.0, c1, c2), *_quadratic_roots(c2, c3, c4)))
    ]
    for _ in range(100):
        worst = 0.0
        for i, z in enumerate(zs):
            d = 1.0
            for j, w in enumerate(zs):
                if j != i:
                    d *= z - w
            if d == 0.0:
                return None
            dz = ((((z + c1) * z + c2) * z + c3) * z + c4) / d
            zs[i] = z - dz
            worst = max(worst, abs(dz) / abs(zs[i]) if zs[i] else math.inf)
        if worst <= 1e-14:
            return zs
    return None


def _null_vector(a):
    """A null vector of the singular 4x4 matrix a, by Gaussian elimination
    with complete pivoting, or None if a has rank below 3."""
    a = [list(row) for row in a]
    order = [0, 1, 2, 3]
    for k in range(3):
        size, i, j = max((abs(a[i][j]), i, j) for i in range(k, 4) for j in range(k, 4))
        if size == 0.0:
            return None
        a[k], a[i] = a[i], a[k]
        for row in a:
            row[k], row[j] = row[j], row[k]
        order[k], order[j] = order[j], order[k]
        pivot = a[k]
        for row in a[k + 1:]:
            f = row[k] / pivot[k]
            row[k:] = [x - f * y for x, y in zip(row[k:], pivot[k:])]
    x = [0j, 0j, 0j, 1.0 + 0j]
    for k in (2, 1, 0):
        x[k] = -sum(a[k][j] * x[j] for j in range(k + 1, 4)) / a[k][k]
    v = [0j] * 4
    for k, col in enumerate(order):
        v[col] = x[k]
    return v


def _solve(a, b):
    """x with a·x = b, for a square and b a list of rows of right-hand
    sides, by Gauss-Jordan elimination with partial pivoting; None if a is
    singular."""
    n = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        if rows[p][k] == 0.0:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        for i in range(n):
            if i != k:
                f = rows[i][k] / pivot[k]
                rows[i] = [x - f * y for x, y in zip(rows[i], pivot)]
    return [[x / row[i] for x in row[n:]] for i, row in enumerate(rows)]


def _norm2(a, b, c, d):
    """The 2-norm (largest singular value) of [[a, b], [c, d]]."""
    return 0.5 * (math.hypot(a + d, b - c) + math.hypot(a - d, b + c))


def _compose(p, q):
    """The affine map p∘q; a map is 4 rows of 4 linear coefficients and a
    constant."""
    (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4), (c0, c1, c2, c3, c4), (d0, d1, d2, d3, d4) = q
    # A loop, not a comprehension: one would close over the 20 names above,
    # and each call would leave its 20-tuple of cells parked on CPython's
    # tuple free list (up to 2000 of them, 400 KiB).
    rows = []
    for x0, x1, x2, x3, x4 in p:
        rows.append([
            x0 * a0 + x1 * b0 + x2 * c0 + x3 * d0,
            x0 * a1 + x1 * b1 + x2 * c1 + x3 * d1,
            x0 * a2 + x1 * b2 + x2 * c2 + x3 * d2,
            x0 * a3 + x1 * b3 + x2 * c3 + x3 * d3,
            x0 * a4 + x1 * b4 + x2 * c4 + x3 * d4 + x4,
        ])
    return rows


def modal_basis(a):
    """(poles, V, W) of the 4x4 matrix a: one pole of each complex pair, the
    smaller first, the real basis V of their invariant planes (columns
    Re v0, Im v0, Re v1, Im v1 of unit eigenvectors v0, v1) and W = V^-1.
    None unless the poles are two distinct complex pairs."""
    roots = _roots(_char_poly(a))
    if roots is None:
        return None
    upper = sorted((z for z in roots if z.imag > 1e-9 * abs(z)), key=abs)
    if len(upper) != 2:
        return None
    cols = []
    for lam in upper:
        v = _null_vector([[x - lam * (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)])
        if v is None:
            return None
        scale = math.sqrt(sum(abs(x) ** 2 for x in v))
        cols += [[x.real / scale for x in v], [x.imag / scale for x in v]]
    basis = [list(row) for row in zip(*cols)]
    identity = [[float(i == j) for j in range(4)] for i in range(4)]
    inverse = _solve(basis, identity)
    # The certificate's margin covers u - u_f = V·z only to this residual.
    if inverse is None or any(
        not abs(x - e) <= 1e-12
        for row, unit in zip(_matmul(basis, inverse), identity)
        for x, e in zip(row, unit)
    ):
        return None
    return tuple(upper), basis, inverse


class Jump:
    """The n-step jump of one load segment's interior map.

    ``jump(n, iL1, iL2, Vo, d2)`` returns the state after n <= n_max full
    steps, T^n applied once, when the certificate proves that every one of
    them stays interior, and None otherwise. T^n comes from T's binary
    powers and is kept per n.
    """

    __slots__ = (
        "poles", "basis", "inverse", "fixed", "halfspaces", "rows", "star", "state_map",
        "_squares", "_powers",
    )

    def __init__(self, poles, basis, inverse, fixed, halfspaces, rows, star, state_map):
        self.poles, self.basis, self.inverse, self.fixed = poles, basis, inverse, fixed
        self.halfspaces, self.rows, self.star, self.state_map = halfspaces, rows, star, state_map
        self._squares = [state_map]
        self._powers = {}

    def __call__(self, n, iL1, iL2, Vo, d2):
        f0, f1, f2, f3 = self.fixed
        y0, y1, y2, y3 = iL1 - f0, iL2 - f1, Vo - f2, d2 - f3
        (w00, w01, w02, w03), (w10, w11, w12, w13), \
            (w20, w21, w22, w23), (w30, w31, w32, w33) = self.inverse
        r0 = math.hypot(
            w00 * y0 + w01 * y1 + w02 * y2 + w03 * y3, w10 * y0 + w11 * y1 + w12 * y2 + w13 * y3
        )
        r1 = math.hypot(
            w20 * y0 + w21 * y1 + w22 * y2 + w23 * y3, w30 * y0 + w31 * y1 + w32 * y2 + w33 * y3
        )
        for a0, a1, slack in self.rows:
            if not a0 * r0 + a1 * r1 <= slack:  # also refuses a NaN radius
                return None
        power = self._powers.get(n)
        if power is None:
            power = self._powers[n] = self._power(n)
        s0, s1, s2, s3 = self.star
        u0, u1, u2, u3 = iL1 - s0, iL2 - s1, Vo - s2, d2 - s3
        (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4), \
            (c0, c1, c2, c3, c4), (q0, q1, q2, q3, q4) = power
        return (
            s0 + (a0 * u0 + a1 * u1 + a2 * u2 + a3 * u3 + a4),
            s1 + (b0 * u0 + b1 * u1 + b2 * u2 + b3 * u3 + b4),
            s2 + (c0 * u0 + c1 * u1 + c2 * u2 + c3 * u3 + c4),
            s3 + (q0 * u0 + q1 * u1 + q2 * u2 + q3 * u3 + q4),
        )

    def _power(self, n):
        squares = self._squares
        while 1 << len(squares) <= n:
            squares.append(_compose(squares[-1], squares[-1]))
        power = None
        for j, square in enumerate(squares):
            if n >> j & 1:
                power = square if power is None else _compose(square, power)
        return power


def certify(a, state_map, star, halfspaces, n_max):
    """The Jump for one load segment, or None when no certificate holds.

    a is the interior closed-loop matrix in u, state_map the interior RK4
    map as 4 rows (4 linear coefficients, constant), star the expansion
    point x*, and halfspaces the (h, c, bound) triples, h·u + c <= bound,
    that keep a step on that map. n_max bounds the length of any jump.
    """
    got = modal_basis(a)
    if got is None:
        return None
    poles, basis, inverse = got
    m = [row[:4] for row in state_map]
    b = _matmul(_matmul(inverse, m), basis)
    rho = max(_norm2(b[0][0], b[0][1], b[1][0], b[1][1]), _norm2(b[2][2], b[2][3], b[3][2], b[3][3]))
    eps = max(_norm2(b[0][2], b[0][3], b[1][2], b[1][3]), _norm2(b[2][0], b[2][1], b[3][0], b[3][1]))
    if not rho + eps <= 1.0:
        return None
    shift = _solve(
        [[float(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(m)],
        [[row[4]] for row in state_map],
    )
    if shift is None:
        return None
    u_f = [x for (x,) in shift]
    rows = []
    for h, c, bound in halfspaces:
        hv = [_dot(h, col) for col in zip(*basis)]
        a0, a1 = math.hypot(hv[0], hv[1]), math.hypot(hv[2], hv[3])
        slack = bound - c - _dot(h, u_f) - MARGIN * (abs(bound) + abs(c))
        if not slack > 0.0:
            return None
        grow = (a0 + a1) * n_max * eps
        rows.append((a0 + grow, a1 + grow, slack))
    # tuple() over lists, not generators: CPython sizes a tuple built from a
    # generator by a guess and shrinks it, so each one freed would park one
    # more tuple on the free list of its size.
    return Jump(
        poles, basis, inverse, tuple([s + x for s, x in zip(star, u_f)]), tuple(halfspaces),
        tuple(rows), tuple(star), tuple([tuple(row) for row in state_map]),
    )
