"""The original double-and-add ladder over Jacobian coordinates, kept as
the reference that `arksim.crypto.point_mul`'s fast paths are checked
against.  It shares no table, splitting or recoding with them."""

from arksim.crypto import P, Q, Point


def ladder(p: Point, n: int) -> Point:
    # Jacobian ladder: one field inversion total instead of one per addition.
    n %= Q
    if n == 0 or p is None:
        return None
    jx, jy, jz = p[0], p[1], 1
    rx, ry, rz = 0, 0, 0  # infinity marker: rz == 0

    def jdbl(x, y, z):
        if z == 0 or y == 0:
            return (0, 0, 0)
        s = 4 * x * y * y % P
        m = 3 * x * x % P  # curve a == 0
        nx = (m * m - 2 * s) % P
        ny = (m * (s - nx) - 8 * y * y * y * y) % P
        nz = 2 * y * z % P
        return (nx, ny, nz)

    def jadd(x1, y1, z1, x2, y2, z2):
        if z1 == 0:
            return (x2, y2, z2)
        if z2 == 0:
            return (x1, y1, z1)
        z1s, z2s = z1 * z1 % P, z2 * z2 % P
        u1, u2 = x1 * z2s % P, x2 * z1s % P
        s1, s2 = y1 * z2s * z2 % P, y2 * z1s * z1 % P
        if u1 == u2:
            if s1 != s2:
                return (0, 0, 0)
            return jdbl(x1, y1, z1)
        h = (u2 - u1) % P
        r = (s2 - s1) % P
        h2 = h * h % P
        h3 = h2 * h % P
        nx = (r * r - h3 - 2 * u1 * h2) % P
        ny = (r * (u1 * h2 - nx) - s1 * h3) % P
        nz = h * z1 * z2 % P
        return (nx, ny, nz)

    while n:
        if n & 1:
            rx, ry, rz = jadd(rx, ry, rz, jx, jy, jz)
        jx, jy, jz = jdbl(jx, jy, jz)
        n >>= 1
    if rz == 0:
        return None
    zi = pow(rz, -1, P)
    zi2 = zi * zi % P
    return (rx * zi2 % P, ry * zi2 * zi % P)
