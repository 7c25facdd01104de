"""Certified multi-step jumps of the kernel's all-interior RK4 map.

At a fixed load, a full step of the compiled kernel whose four stage guards
keep d1 interior, and whose new d2 lies in [0, 1], applies one affine map
T(u) = M·u + m to the deviation u = x - x* from the load's equilibrium. n
such steps are T^n. `certify` builds the proof, checked before each jump,
that none of the n steps leaves that region.

Basis. The interior closed loop u' = A·u + b is linear in u, and M is a
polynomial in dt·A (RK4's stability polynomial), so the two share their
invariant subspaces. The backstepping design names them: in its error
coordinates (e, i_tilde, e2, v_tilde) = P·u + const, which the kernel's
control law gives as affine forms, the voltage pair (e, i_tilde) evolves on
its own and drives the sharing pair (e2, v_tilde), so P·A·P^-1 is block
lower triangular, [[A_v, 0], [C, A_s]]. Each 2x2 diagonal block gives a
complex pair of poles by the quadratic formula. The sharing pole's
eigenvector is (0, 0, s), with s an eigenvector of A_s; the voltage pole
lambda's is (v, (lambda·I - A_s)^-1·C·v), with v one of A_v. Mapped back by
P^-1 and scaled to unit 2-norm, the real and imaginary parts of each span a
real invariant plane of A; V holds the four as columns and W = V^-1. In
z = W·(u - u_f), where u_f is T's fixed point, B = W·M·V is block-diagonal
up to rounding, and each diagonal block is a 2x2 scaled rotation.

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

Everything here is pure Python on 4x4 matrices (lists of rows). A run
builds one certificate each time it enters a load segment, so products are
written out entry by entry, with no call per entry, each sum in the order
of the textbook loop. T's powers are composed with the kernel's own
sim._Affine.of and applied by calling its forms.
"""

from __future__ import annotations

import cmath
import math

from .sim import _Affine

# Relative shrink of every half-space's slack.
MARGIN = 1e-9

_IDENTITY = tuple(tuple(float(i == j) for j in range(4)) for i in range(4))


def _matmul(a, b):
    (b00, b01, b02, b03), (b10, b11, b12, b13), \
        (b20, b21, b22, b23), (b30, b31, b32, b33) = b
    # A loop, not a comprehension, which would close over the 16 names above
    # and park its tuple of cells on CPython's tuple free list at each call.
    rows = []
    for x0, x1, x2, x3 in a:
        rows.append([
            x0 * b00 + x1 * b10 + x2 * b20 + x3 * b30,
            x0 * b01 + x1 * b11 + x2 * b21 + x3 * b31,
            x0 * b02 + x1 * b12 + x2 * b22 + x3 * b32,
            x0 * b03 + x1 * b13 + x2 * b23 + x3 * b33,
        ])
    return rows


def _solve(a, b):
    """x with a·x = b, for 4x4 matrices a and b, by Gauss-Jordan elimination
    with partial pivoting; None if a is singular."""
    rows = [[*ra, *rb] for ra, rb in zip(a, b)]
    for k in range(4):
        # The first row of largest abs in column k.
        p, size = k, abs(rows[k][k])
        for i in range(k + 1, 4):
            x = abs(rows[i][k])
            if x > size:
                p, size = i, x
        if rows[p][k] == 0.0:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        y0, y1, y2, y3, y4, y5, y6, y7 = pivot = rows[k]
        for i in range(4):
            if i != k:
                x0, x1, x2, x3, x4, x5, x6, x7 = row = rows[i]
                f = row[k] / pivot[k]
                rows[i] = [
                    x0 - f * y0, x1 - f * y1, x2 - f * y2, x3 - f * y3,
                    x4 - f * y4, x5 - f * y5, x6 - f * y6, x7 - f * y7,
                ]
    return [[x / row[i] for x in row[4:]] for i, row in enumerate(rows)]


def _norm2(a, b, c, d):
    """The 2-norm (largest singular value) of [[a, b], [c, d]]."""
    return 0.5 * (math.hypot(a + d, b - c) + math.hypot(a - d, b + c))


def _pole(a, b, c, d):
    """The pole of [[a, b], [c, d]] in the upper half-plane, and its
    eigenvector (b, lambda - a); None unless the poles are a complex pair."""
    tr = a + d
    lam = (tr + cmath.sqrt(tr * tr - 4.0 * (a * d - b * c))) / 2.0
    if not lam.imag > 1e-9 * abs(lam):
        return None
    return lam, b, lam - a


def modal_basis(a, p):
    """(poles, V, W) of the interior matrix a, read off its blocks in the
    error coordinates whose rows in u are p: the upper pole of the sharing
    pair, then of the voltage pair, the real basis V of their invariant
    planes (columns Re v0, Im v0, Re v1, Im v1 of unit eigenvectors v0, v1)
    and W = V^-1. None when p is singular, when the voltage rows of
    p·a·p^-1 reach the sharing columns by more than 1e-12 of its largest
    entry, or unless the poles are two distinct complex pairs."""
    p_inv = _solve(p, _IDENTITY)
    if p_inv is None:
        return None
    blocks = _matmul(_matmul(p, a), p_inv)
    (v00, v01, u0, u1), (v10, v11, u2, u3), (c00, c01, s00, s01), (c10, c11, s10, s11) = blocks
    size = max(abs(x) for row in blocks for x in row)
    sharing, voltage = _pole(s00, s01, s10, s11), _pole(v00, v01, v10, v11)
    if not max(abs(u0), abs(u1), abs(u2), abs(u3)) <= 1e-12 * size or None in (sharing, voltage):
        return None
    lam_s, x2, x3 = sharing
    lam_v, x0, x1 = voltage
    # The voltage eigenvector's sharing part w solves (lam_v·I - A_s)·w = C·v;
    # the matrix is singular when the two blocks share a pole.
    y0, y1 = c00 * x0 + c01 * x1, c10 * x0 + c11 * x1
    det = (lam_v - s00) * (lam_v - s11) - s01 * s10
    if det == 0.0:
        return None
    w0, w1 = ((lam_v - s11) * y0 + s01 * y1) / det, (s10 * y0 + (lam_v - s00) * y1) / det
    cols = []
    for v in ((0.0, 0.0, x2, x3), (x0, x1, w0, w1)):
        cols += [[x.real for x in v], [x.imag for x in v]]
    basis = _matmul(p_inv, list(zip(*cols)))
    # Each eigenvector P^-1·v scaled to unit 2-norm.
    for j in (0, 2):
        scale = math.sqrt(sum(row[j] ** 2 + row[j + 1] ** 2 for row in basis))
        for row in basis:
            row[j] /= scale
            row[j + 1] /= scale
    inverse = _solve(basis, _IDENTITY)
    # The certificate's margin covers u - u_f = V·z only to this residual.
    if inverse is None or any(
        not abs(x - e) <= 1e-12
        for row, unit in zip(_matmul(basis, inverse), _IDENTITY)
        for x, e in zip(row, unit)
    ):
        return None
    return (lam_s, lam_v), basis, inverse


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
        self._squares = [[_Affine(row) for row in state_map]]
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
        u = iL1 - s0, iL2 - s1, Vo - s2, d2 - s3
        a, b, c, q = power
        return s0 + a(*u), s1 + b(*u), s2 + c(*u), s3 + q(*u)

    def _power(self, n):
        """T^n as 4 affine forms in u, one per state component."""
        squares = self._squares
        while 1 << len(squares) <= n:
            last = squares[-1]
            squares.append([form.of(last) for form in last])
        power = None
        for j, square in enumerate(squares):
            if n >> j & 1:
                power = square if power is None else [form.of(power) for form in square]
        return power


def certify(a, p, state_map, star, halfspaces, n_max):
    """The Jump for one load segment, or None when no certificate holds.

    a is the interior closed-loop matrix in u, p the rows of the error
    coordinates (e, i_tilde, e2, v_tilde) in u, state_map the interior RK4
    map as 4 rows (4 linear coefficients, constant), star the expansion
    point x*, and halfspaces the (h, c, bound) triples, h·u + c <= bound,
    that keep a step on that map. n_max bounds the length of any jump.
    """
    got = modal_basis(a, p)
    if got is None:
        return None
    poles, basis, inverse = got
    m = [row[:4] for row in state_map]
    b = _matmul(_matmul(inverse, m), basis)
    rho = max(_norm2(b[0][0], b[0][1], b[1][0], b[1][1]), _norm2(b[2][2], b[2][3], b[3][2], b[3][3]))
    eps = max(_norm2(b[0][2], b[0][3], b[1][2], b[1][3]), _norm2(b[2][0], b[2][1], b[3][0], b[3][1]))
    if not rho + eps <= 1.0:
        return None
    # The fixed point is the first column; the zero columns beside it do
    # not touch its arithmetic.
    shift = _solve(
        [[e - x for e, x in zip(unit, row)] for unit, row in zip(_IDENTITY, m)],
        [[row[4], 0.0, 0.0, 0.0] for row in state_map],
    )
    if shift is None:
        return None
    u_f = f0, f1, f2, f3 = [row[0] for row in shift]
    # The columns of V, read off once.
    (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3), (t0, t1, t2, t3) = zip(*basis)
    rows = []
    for h, c, bound in halfspaces:
        h0, h1, h2, h3 = h
        a0 = math.hypot(
            h0 * p0 + h1 * p1 + h2 * p2 + h3 * p3, h0 * q0 + h1 * q1 + h2 * q2 + h3 * q3
        )
        a1 = math.hypot(
            h0 * r0 + h1 * r1 + h2 * r2 + h3 * r3, h0 * t0 + h1 * t1 + h2 * t2 + h3 * t3
        )
        slack = bound - c - (h0 * f0 + h1 * f1 + h2 * f2 + h3 * f3) - MARGIN * (abs(bound) + abs(c))
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
