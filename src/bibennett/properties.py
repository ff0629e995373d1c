"""Runnable certificates for the vertex properties of coupled Bennett tubes.

Families A and B carry isogonal respectively deltoidal spherical vertex
figures; family C's adjacent vertices are related by a half-turn.  Each
displayed condition of the underlying arguments is evaluated as one named
residual so that a certificate is a direct numerical transcript of the claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

from .algebra import (
    det3,
    solve_linear,
    v_add,
    v_cross,
    v_dot,
    v_norm,
    v_norm_sq,
    v_scale,
    v_sub,
)
from .bennett import AXIS_LABELS
from .families import (
    BiBennett,
    CoupledPose,
    SkewQuad,
    align_isometry,
    coupled_pose,
    isogram_residuals,  # re-exported for callers of this module
)

ISO_TOL = 1e-10
HALFTURN_TOL = 1e-9
INVOLUTION_TOL = 1e-12


@dataclass(frozen=True)
class ResidualEntry:
    label: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.value) <= self.tolerance


@dataclass(frozen=True)
class CertificateReport:
    name: str
    residuals: tuple

    @property
    def verdict(self) -> bool:
        return all(r.passed for r in self.residuals)

    def failed(self):
        return [r for r in self.residuals if not r.passed]

    def lines(self):
        out = [f"{self.name}: {'PASS' if self.verdict else 'FAIL'}"]
        for r in self.residuals:
            mark = "ok " if r.passed else "FAIL"
            out.append(f"  [{mark}] {r.label:28s} {abs(float(r.value)):.3e}"
                       f" (tol {r.tolerance:g})")
        return out


# ---------------------------------------------------------------------------
# vertex roles: walking the quad cyclically
# ---------------------------------------------------------------------------

def _vertex_roles():
    """(center, opposite, prev neighbor, next neighbor) label quadruples for
    the four cyclic index shifts."""
    order = list(AXIS_LABELS)  # (1,4), (1,2), (2,3), (3,4)
    rolls = []
    for i in range(4):
        rolls.append((order[i], order[(i + 2) % 4],
                      order[(i - 1) % 4], order[(i + 1) % 4]))
    return rolls


# ---------------------------------------------------------------------------
# line-symmetric vertex certificates (opposite / adjacent angle equalities)
# ---------------------------------------------------------------------------

def _iso_delto_residuals(cp: CoupledPose, center, opposite, prev_n, next_n):
    """The raw residuals at one vertex of a line-symmetric coupling.

    With c the center vertex, o its opposite, u and w its neighbors, and
    r_c, r_o the axis directions at c and o, the opposite-angle conditions
    cleared of their (pairwise equal) normalizers read::

        iso1 = <u-c, r_c>^2 |u-o|^2 - <u-o, r_o>^2 |u-c|^2
        iso2 = <w-c, r_c>^2 |w-o|^2 - <w-o, r_o>^2 |w-c|^2
        iso3 = <u-c, r_c> <w-o, r_o> |u-o|^2 - <u-o, r_o> <w-c, r_c> |u-c|^2

    and the adjacent-angle (kite) conditions::

        delto1 = <u-c, r_c> - <w-o, r_o>
        delto2 = <w-c, r_c> - <u-o, r_o>

    All five are radical-free because the isogram equalities identify the
    cleared denominators and the axis directions are exactly unit vectors.
    """
    quad = cp.quad
    c, o = quad[center], quad[opposite]
    u, w = quad[prev_n], quad[next_n]
    r_c = cp.pose.axes[center].direction
    r_o = cp.pose.axes[opposite].direction
    uc, uo = v_sub(u, c), v_sub(u, o)
    wc, wo = v_sub(w, c), v_sub(w, o)
    iso1 = (v_dot(uc, r_c) ** 2 * v_norm_sq(uo)
            - v_dot(uo, r_o) ** 2 * v_norm_sq(uc))
    iso2 = (v_dot(wc, r_c) ** 2 * v_norm_sq(wo)
            - v_dot(wo, r_o) ** 2 * v_norm_sq(wc))
    iso3 = (v_dot(uc, r_c) * v_dot(wo, r_o) * v_norm_sq(uo)
            - v_dot(uo, r_o) * v_dot(wc, r_c) * v_norm_sq(uc))
    delto1 = v_dot(uc, r_c) - v_dot(wo, r_o)
    delto2 = v_dot(wc, r_c) - v_dot(uo, r_o)
    return iso1, iso2, iso3, delto1, delto2


def _vertex_certificate(name, labels, bib, tau, tol) -> CertificateReport:
    """The residuals of :func:`_iso_delto_residuals` named in ``labels``
    (label -> index) at all four quad vertices."""
    cp = coupled_pose(bib, tau)
    residuals = []
    for roles in _vertex_roles():
        values = _iso_delto_residuals(cp, *roles)
        tag = f"P{roles[0][0]}{roles[0][1]}"
        for label, index in labels.items():
            residuals.append(
                ResidualEntry(f"{label} @ {tag}", values[index], tol))
    return CertificateReport(name, tuple(residuals))


def isogonal_certificate(bib: BiBennett, tau, tol: float = ISO_TOL
                         ) -> CertificateReport:
    """Equal-opposite-angle certificate at all four quad vertices."""
    return _vertex_certificate("isogonal", {"iso1": 0, "iso2": 1, "iso3": 2},
                               bib, tau, tol)


def deltoidal_certificate(bib: BiBennett, tau, tol: float = ISO_TOL
                          ) -> CertificateReport:
    """Equal-adjacent-angle certificate at all four quad vertices."""
    return _vertex_certificate("deltoidal", {"delto1": 3, "delto2": 4},
                               bib, tau, tol)


def deltoidal_numerators(a1, a2, mu14, mu12, mu23, mu34):
    """The two cleared numerators of the adjacent-angle conditions.

    Both vanish identically on the mu-pattern (mu23, mu34, mu23, mu34).
    """
    n1 = (mu14 - mu12 - mu23 + mu34) * a2 + mu14 + mu12 - mu23 - mu34
    n2 = (mu14 + mu12 - mu23 - mu34) * a1 + mu14 - mu12 - mu23 + mu34
    return n1, n2


# ---------------------------------------------------------------------------
# family-C adjacent-vertex half-turn certificate
# ---------------------------------------------------------------------------

def _adjacent_roles():
    """(v, w, prev of v, opposite of v) quadruples for each adjacent vertex
    pair (v, w) in cyclic order."""
    return [(v, w, prev_v, opp_v)
            for v, opp_v, prev_v, w in _vertex_roles()]


def hat_points(quad: SkewQuad, bar_quad: SkewQuad, bar_point, scheme: int):
    """Transfer a point of the bar tube onto the first tube barycentrically.

    The point is written over the bar quad in the affine basis of the given
    scheme (23 or 34) and re-assembled with the same coefficients over the
    first quad; exact for rational input.
    """
    if scheme == 23:
        base = bar_quad.p23
        basis = (v_sub(bar_quad.p34, bar_quad.p23),
                 v_sub(bar_quad.p12, bar_quad.p23),
                 v_sub(bar_quad.p14, bar_quad.p34))
        tgt_base = quad.p23
        tgt_basis = (v_sub(quad.p34, quad.p23),
                     v_sub(quad.p12, quad.p23),
                     v_sub(quad.p14, quad.p34))
    elif scheme == 34:
        base = bar_quad.p23
        basis = (v_sub(bar_quad.p23, bar_quad.p34),
                 v_sub(bar_quad.p14, bar_quad.p34),
                 v_sub(bar_quad.p12, bar_quad.p23))
        tgt_base = quad.p23
        tgt_basis = (v_sub(quad.p23, quad.p34),
                     v_sub(quad.p14, quad.p34),
                     v_sub(quad.p12, quad.p23))
    else:
        raise ValueError("scheme must be 23 or 34")
    rows = [[basis[0][i], basis[1][i], basis[2][i]] for i in range(3)]
    rhs = list(v_sub(bar_point, base))
    xi, eta, zeta = solve_linear(rows, rhs)
    out = tgt_base
    for coef, vec in zip((xi, eta, zeta), tgt_basis):
        out = v_add(out, v_scale(coef, vec))
    return out


def _reflect_across_plane(point, p0, p1, p2):
    n = v_cross(v_sub(p1, p0), v_sub(p2, p0))
    coef = 2 * v_dot(v_sub(point, p0), n) / v_norm_sq(n)
    return v_sub(point, v_scale(coef, n))


def halfturn_certificate(bib: BiBennett, tau, tau_bar=None,
                         tol: float = HALFTURN_TOL) -> CertificateReport:
    """Half-turn relating adjacent vertices of a family-C coupling.

    Checks, at each adjacent vertex pair (v, w):

    * four tau-free angle equalities between rotary joints around v and w
      (each tube against the bar copy in its own frame),
    * the equality of the diagonal angles at v and w via barycentric
      transfer of the bar anchor points,
    * the orientation equality of the two anchor tetrahedra,
    * existence of the half-turn itself (aligning (v, w, F_v, Fhat_v) with
      (w, v, Fhat_w, F_w)), its involution property, and the negative check
      that it does not extend to the remaining quad vertices, those being
      related by a reflection instead.
    """
    cp = coupled_pose(bib, tau, tau_bar)
    residuals = []
    bar_quad = cp.bar_quad
    quad = cp.quad
    for v, w, prev_v, opp_v in _adjacent_roles():
        tag = f"P{v[0]}{v[1]}-P{w[0]}{w[1]}"
        pv, pw = quad[v], quad[w]
        bv, bw = bar_quad[v], bar_quad[w]
        fv = cp.pose.axes[v].point
        fw = cp.pose.axes[w].point
        bfv = cp.bar_pose.axes[v].point
        bfw = cp.bar_pose.axes[w].point
        pu, bu = quad[prev_v], bar_quad[prev_v]
        po, bo = quad[opp_v], bar_quad[opp_v]
        # tau-free angle equalities between the two tubes, each in its own
        # frame; the cleared normalizers agree by the shared side conditions
        g1 = (v_dot(v_sub(pw, pv), v_sub(fv, pv))
              - v_dot(v_sub(bv, bw), v_sub(bfw, bw)))
        g2 = (v_dot(v_sub(pu, pv), v_sub(fv, pv))
              - v_dot(v_sub(bo, bw), v_sub(bfw, bw)))
        g3 = (v_dot(v_sub(pv, pw), v_sub(fw, pw))
              - v_dot(v_sub(bw, bv), v_sub(bfv, bv)))
        g4 = (v_dot(v_sub(po, pw), v_sub(fw, pw))
              - v_dot(v_sub(bu, bv), v_sub(bfv, bv)))
        for i, g in enumerate((g1, g2, g3, g4), start=1):
            residuals.append(ResidualEntry(f"angle{i} @ {tag}", g, tol))
        # diagonal angle equality via barycentric transfer of the bar anchors
        fhat_v = cp.hat_axes[v].point
        fhat_w = cp.hat_axes[w].point
        diag = (v_dot(v_sub(fv, pv), v_sub(fhat_v, pv))
                - v_dot(v_sub(fw, pw), v_sub(fhat_w, pw)))
        residuals.append(ResidualEntry(f"diag @ {tag}", diag, tol))
        # orientation equality of the two local tetrahedra
        orient = (det3(v_sub(pw, pv), v_sub(fv, pv), v_sub(fhat_v, pv))
                  - det3(v_sub(pv, pw), v_sub(fhat_w, pw), v_sub(fw, pw)))
        residuals.append(ResidualEntry(f"orient @ {tag}", orient, tol))
        # the half-turn itself
        src = SkewQuad(pv, pw, fv, fhat_v)
        dst = SkewQuad(pw, pv, fhat_w, fw)
        rho = align_isometry(src, dst)
        sq = _compose_sq(rho)
        residuals.append(ResidualEntry(
            f"rho involution @ {tag}", sq, INVOLUTION_TOL))
        residuals.append(ResidualEntry(
            f"rho direct @ {tag}", rho.orientation - 1, 0.0))
        # negative check: rho must not map the previous neighbor of v onto
        # the opposite vertex ...
        img = rho.apply_point(tuple(float(x) for x in pu))
        gap = math.dist(img, tuple(float(x) for x in po))
        residuals.append(ResidualEntry(
            f"rho(P{prev_v[0]}{prev_v[1]}) != P{opp_v[0]}{opp_v[1]} @ {tag}",
            0.0 if gap > 1e-6 else 1.0, 0.5))
        # ... those two points are related by a reflection instead
        mirrored = _reflect_across_plane(
            tuple(float(x) for x in img),
            tuple(float(x) for x in pw),
            tuple(float(x) for x in fw),
            tuple(float(x) for x in fhat_w))
        residuals.append(ResidualEntry(
            f"reflection relation @ {tag}",
            math.dist(mirrored, tuple(float(x) for x in po)), tol))
    # the barycentric transfer must agree with the rigid alignment
    fhat23 = hat_points(quad, bar_quad, cp.bar_pose.axes[(2, 3)].point, 23)
    fhat34 = hat_points(quad, bar_quad, cp.bar_pose.axes[(3, 4)].point, 34)
    for label, direct, transferred in (
        ("Fhat23 transfer", cp.hat_axes[(2, 3)].point, fhat23),
        ("Fhat34 transfer", cp.hat_axes[(3, 4)].point, fhat34),
    ):
        gap = math.dist(tuple(float(x) for x in direct),
                        tuple(float(x) for x in transferred))
        residuals.append(ResidualEntry(label, gap, tol))
    return CertificateReport("halfturn", tuple(residuals))


def _compose_sq(motion) -> float:
    """Max displacement of rho(rho(x)) over a probe set (0 for an involution)."""
    probes = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
              (0.0, 0.0, 1.0), (1.0, 1.0, 1.0)]
    worst = 0.0
    for p in probes:
        q = motion.apply_point(motion.apply_point(p))
        worst = max(worst, math.dist(tuple(float(x) for x in q), p))
    return worst


# ---------------------------------------------------------------------------
# spherical indicatrix relations of family C
# ---------------------------------------------------------------------------

def _vertex_star_directions(cp: CoupledPose, center):
    """Unit directions of the four edges meeting at a quad vertex, in the
    cyclic order: quad edge to previous neighbor, own axis, quad edge to next
    neighbor, hat axis."""
    order = list(AXIS_LABELS)
    i = order.index(center)
    prev_n, next_n = order[(i - 1) % 4], order[(i + 1) % 4]
    c = cp.quad[center]

    def unit(v):
        n = v_norm(v)
        return tuple(float(x) / n for x in v)

    return (
        unit(v_sub(cp.quad[prev_n], c)),
        tuple(float(x) for x in cp.pose.axes[center].direction),
        unit(v_sub(cp.quad[next_n], c)),
        tuple(float(x) for x in cp.hat_axes[center].direction),
    )


def _spherical_sides(dirs):
    """Arcs between cyclically consecutive unit directions (line angles, so
    each arc is folded into [0, pi/2])."""
    out = []
    for i in range(4):
        c = abs(sum(a * b for a, b in zip(dirs[i], dirs[(i + 1) % 4])))
        out.append(math.acos(min(1.0, c)))
    return out


def star_invariant_gap(star_a, star_b) -> float:
    """Largest difference between the rotation invariants (six pairwise dot
    products, four triple products) of two stars of four directions,
    minimised over the signs of star b's directions (axes are lines).

    For a star spanning space it is zero exactly when one rotation maps each
    line of star a onto the matching line of star b.  As -I fixes every
    line, a line star and its mirror image are always so related.
    """
    pairs = list(combinations(range(4), 2))
    triples = list(combinations(range(4), 3))

    def invariants(star):
        return ([v_dot(star[i], star[j]) for i, j in pairs],
                [det3(*(star[i] for i in t)) for t in triples])

    dots_a, dets_a = invariants(star_a)
    dots_b, dets_b = invariants(star_b)
    best = math.inf
    for signs in product((1, -1), repeat=4):
        gap = max(
            max(abs(x - signs[i] * signs[j] * y)
                for (i, j), x, y in zip(pairs, dots_a, dots_b)),
            max(abs(x - signs[i] * signs[j] * signs[k] * y)
                for (i, j, k), x, y in zip(triples, dets_a, dets_b)),
        )
        best = min(best, gap)
    return best


def indicatrix_relation(bib: BiBennett, tau, tau_bar=None,
                        tol: float = HALFTURN_TOL) -> CertificateReport:
    """Spherical vertex figures of a family-C coupling.

    Opposite centers carry directly isometric indicatrices (one rotation
    matches both direction stars, see :func:`star_invariant_gap`); adjacent
    centers carry the same spherical four-bar in two different motion modes
    (equal side multisets, different vertex configurations).
    """
    cp = coupled_pose(bib, tau, tau_bar)
    stars = {label: _vertex_star_directions(cp, label) for label in AXIS_LABELS}
    residuals = []
    order = list(AXIS_LABELS)
    for i in range(2):
        a, b = order[i], order[(i + 2) % 4]
        gap = star_invariant_gap(stars[a], stars[b])
        tag = f"P{a[0]}{a[1]}~P{b[0]}{b[1]}"
        residuals.append(ResidualEntry(f"opposite rotation @ {tag}", gap, tol))
    for i in range(4):
        a, b = order[i], order[(i + 1) % 4]
        sa = sorted(_spherical_sides(stars[a]))
        sb = sorted(_spherical_sides(stars[b]))
        gap = max(abs(x - y) for x, y in zip(sa, sb))
        tag = f"P{a[0]}{a[1]}~P{b[0]}{b[1]}"
        residuals.append(ResidualEntry(f"adjacent sides @ {tag}", gap, tol))
    return CertificateReport("indicatrix", tuple(residuals))
