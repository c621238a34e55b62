"""Independent reference implementations used to check the package.

Everything here is written straight from the defining formulas or first
principles and must not import from uavnav, so a bug in the package cannot
hide behind shared code.
"""

from collections import deque
from fractions import Fraction
from math import log10, sqrt

_MOVES = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def cost231_path_loss(f_mhz, h_b_m, h_r_m, d_km, c_m_db, d_min_km=0.01):
    """Line-by-line transcription of the COST 231 Hata loss with the
    mobile-antenna correction substituted in."""
    alpha = (1.1 * log10(f_mhz) - 0.7) * h_r_m - (1.56 * log10(f_mhz) - 0.8)
    d = d_km if d_km > d_min_km else d_min_km
    return (
        46.3
        + 33.9 * log10(f_mhz)
        - 13.82 * log10(h_b_m)
        - alpha
        + (44.9 - 6.55 * log10(h_b_m)) * log10(d)
        + c_m_db
    )


def bfs_shortest_len(nx, ny, nz, obstacles, src, dst):
    """Unweighted shortest path length on the 6-connected free lattice,
    or None when dst is unreachable."""
    if src == dst:
        return 0
    dist = {src: 0}
    q = deque([src])
    while q:
        c = q.popleft()
        for dx, dy, dz in _MOVES:
            n = (c[0] + dx, c[1] + dy, c[2] + dz)
            if not (0 <= n[0] < nx and 0 <= n[1] < ny and 0 <= n[2] < nz):
                continue
            if n in obstacles or n in dist:
                continue
            dist[n] = dist[c] + 1
            if n == dst:
                return dist[n]
            q.append(n)
    return None


def euclid_cells(a, b, cell_size_m, cell_height_m):
    dx = (a[0] - b[0]) * cell_size_m
    dy = (a[1] - b[1]) * cell_size_m
    dz = (a[2] - b[2]) * cell_height_m
    return sqrt(dx * dx + dy * dy + dz * dz)


def closer_exact(a, b, dest, cell_size_m, cell_height_m):
    """Whether cell ``b`` is strictly closer than cell ``a`` to cell
    ``dest``, between cell centres, in exact rational arithmetic on the
    float cell sizes: no square overflows, underflows or rounds. For cells
    one move apart, squared Euclidean distances and Manhattan distances
    must give the same answer; this asserts that they do."""
    sizes = (Fraction(cell_size_m), Fraction(cell_size_m), Fraction(cell_height_m))

    def offsets(c):
        return [(c[k] - dest[k]) * sizes[k] for k in range(3)]

    before, after = offsets(a), offsets(b)
    euclid = sum(x * x for x in after) < sum(x * x for x in before)
    manhattan = sum(map(abs, after)) < sum(map(abs, before))
    assert euclid == manhattan, (a, b, dest, cell_size_m, cell_height_m)
    return euclid


def alg3_choice(a1, a2, q_strategic_of_a2, q_adaptive_of_a1):
    """The decision rule exactly as pseudocoded: agreement passes through,
    otherwise the cross-table comparison, with the tie going to a1."""
    if a1 == a2:
        return a1
    if q_strategic_of_a2 > q_adaptive_of_a1:
        return a2
    return a1


_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def splitmix64_uniform(key, c):
    """Draw c of the SplitMix64 stream with key ``key``, as a float in [0, 1).

    The generator's c-th state is key + c * golden (mod 2**64); its output
    is that state through the two xor-shift-multiply rounds and a final
    xor-shift. The top 53 bits scale to [0, 1).
    """
    z = (key + c * _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53
