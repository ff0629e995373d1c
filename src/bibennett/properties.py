"""Runnable certificates for the vertex properties of coupled Bennett tubes.

Families A and B carry isogonal respectively deltoidal spherical vertex
figures; family C's adjacent vertices are related by a half-turn.  Each
displayed condition of the underlying arguments is evaluated as one named
residual so that a certificate is a direct numerical transcript of the claim.

Each certificate is a pure function of one ``CoupledPose`` and a tolerance
(``isogonal_check``, ``deltoidal_check``, ``halfturn_check``), so a caller
that already holds the pose does not solve it again; the public
``*_certificate`` functions pose the coupling at tau and run the check.  A
single loop certifies its own pose the same way: ``bennett_loop_check`` and
``planar_loop_check`` are pure functions of one ``Pose``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import (
    det3,
    v_add,
    v_cross,
    v_dot,
    v_norm_sq,
    v_scale,
    v_sub,
)
from .bennett import (
    AXIS_LABELS,
    DegenerateQuadricError,
    Pose,
    loop_closure_residual,
    pluecker_product,
    regulus_residual,
    symmetry_residual,
)
from .families import (
    BiBennett,
    CoupledPose,
    SkewQuad,
    align_isometry,
    coupled_pose,
    isogram_residuals,
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

def _isogonal_residuals(sides, dots):
    """The opposite-angle conditions of :func:`_vertex_certificate`,
    cleared of their (pairwise equal) normalizers::

        iso1 = <u-c, r_c>^2 |u-o|^2 - <u-o, r_o>^2 |u-c|^2
        iso2 = <w-c, r_c>^2 |w-o|^2 - <w-o, r_o>^2 |w-c|^2
        iso3 = <u-c, r_c> <w-o, r_o> |u-o|^2 - <u-o, r_o> <w-c, r_c> |u-c|^2

    Radical-free because the isogram equalities identify the cleared
    denominators and the axis directions are exactly unit vectors.
    """
    uc_c, wc_c, uo_o, wo_o = dots
    n_uc, n_wc, n_uo, n_wo = (v_norm_sq(side) for side in sides)
    return {"iso1": uc_c ** 2 * n_uo - uo_o ** 2 * n_uc,
            "iso2": wc_c ** 2 * n_wo - wo_o ** 2 * n_wc,
            "iso3": uc_c * wo_o * n_uo - uo_o * wc_c * n_uc}


def _deltoidal_residuals(sides, dots):
    """The adjacent-angle (kite) conditions of :func:`_vertex_certificate`::

        delto1 = <u-c, r_c> - <w-o, r_o>
        delto2 = <w-c, r_c> - <u-o, r_o>
    """
    uc_c, wc_c, uo_o, wo_o = dots
    return {"delto1": uc_c - wo_o, "delto2": wc_c - uo_o}


def _vertex_certificate(name, residuals, cp: CoupledPose, tol
                        ) -> CertificateReport:
    """The labelled values ``residuals(sides, dots)`` at all four quad
    vertices of a line-symmetric coupling.

    With c the vertex, o its opposite, u and w its neighbors, and r_c, r_o
    the axis directions at c and o, ``sides`` are (u-c, w-c, u-o, w-o) and
    ``dots`` are (<u-c, r_c>, <w-c, r_c>, <u-o, r_o>, <w-o, r_o>), each
    computed once per vertex.
    """
    quad, axes = cp.quad, cp.pose.axes
    entries = []
    for center, opposite, prev_n, next_n in _vertex_roles():
        c, o, u, w = (quad[lab] for lab in (center, opposite, prev_n, next_n))
        r_c, r_o = axes[center].direction, axes[opposite].direction
        sides = (v_sub(u, c), v_sub(w, c), v_sub(u, o), v_sub(w, o))
        dots = [v_dot(side, r) for side, r in zip(sides, (r_c, r_c, r_o, r_o))]
        for label, value in residuals(sides, dots).items():
            entries.append(ResidualEntry(
                f"{label} @ P{center[0]}{center[1]}", value, tol))
    return CertificateReport(name, tuple(entries))


def isogonal_check(cp: CoupledPose, tol) -> CertificateReport:
    """Equal-opposite-angle certificate at all four quad vertices."""
    return _vertex_certificate("isogonal", _isogonal_residuals, cp, tol)


def deltoidal_check(cp: CoupledPose, tol) -> CertificateReport:
    """Equal-adjacent-angle certificate at all four quad vertices."""
    return _vertex_certificate("deltoidal", _deltoidal_residuals, cp, tol)


def isogonal_certificate(bib: BiBennett, tau, tol: float = ISO_TOL
                         ) -> CertificateReport:
    """:func:`isogonal_check` of the coupling posed at tau."""
    return isogonal_check(coupled_pose(bib, tau), tol)


def deltoidal_certificate(bib: BiBennett, tau, tol: float = ISO_TOL
                          ) -> CertificateReport:
    """:func:`deltoidal_check` of the coupling posed at tau."""
    return deltoidal_check(coupled_pose(bib, tau), tol)


# ---------------------------------------------------------------------------
# family-C adjacent-vertex half-turn certificate
# ---------------------------------------------------------------------------

def _adjacent_roles():
    """(v, w, prev of v, opposite of v) quadruples for each adjacent vertex
    pair (v, w) in cyclic order."""
    return [(v, w, prev_v, opp_v)
            for v, opp_v, prev_v, w in _vertex_roles()]


def hat_points(quad: SkewQuad, bar_quad: SkewQuad, bar_points):
    """Transfer points of the bar tube onto the first tube through the
    affine frames of the two quads.

    Each point is written in the frame (p14; e1, e2, n) of the bar quad,
    with e1 = p12 - p14, e2 = p23 - p14 and n = e1 x e2, and re-assembled
    with the same coordinates in that frame of the first quad.  The
    coordinates are the dot products with the dual basis (e2 x n, n x e1, n)
    / |n|^2, so no pivot is chosen.  The frame spans space whenever e1 and
    e2 are not parallel, planar quads included; for a direct isometry
    carrying the bar quad onto the first quad the transfer is that
    isometry.  Exact for rational input.
    """
    def frame_vectors(q: SkewQuad):
        e1, e2 = v_sub(q.p12, q.p14), v_sub(q.p23, q.p14)
        return e1, e2, v_cross(e1, e2)

    e1, e2, n = frame_vectors(bar_quad)
    duals = (v_cross(e2, n), v_cross(n, e1), n)
    norm_sq = v_norm_sq(n)
    target = frame_vectors(quad)
    images = []
    for point in bar_points:
        rel = v_sub(point, bar_quad.p14)
        image = quad.p14
        for dual, vec in zip(duals, target):
            image = v_add(image, v_scale(v_dot(rel, dual) / norm_sq, vec))
        images.append(image)
    return images


def _reflect_across_plane(point, p0, p1, p2):
    n = v_cross(v_sub(p1, p0), v_sub(p2, p0))
    coef = 2 * v_dot(v_sub(point, p0), n) / v_norm_sq(n)
    return v_sub(point, v_scale(coef, n))


def halfturn_certificate(bib: BiBennett, tau, tol: float = HALFTURN_TOL
                         ) -> CertificateReport:
    """:func:`halfturn_check` of the coupling posed at tau."""
    return halfturn_check(coupled_pose(bib, tau), tol)


def halfturn_check(cp: CoupledPose, tol) -> CertificateReport:
    """Half-turn relating adjacent vertices of a family-C coupling.

    Checks, at each adjacent vertex pair (v, w):

    * four tau-free angle equalities between rotary joints around v and w
      (each tube against the bar copy in its own frame),
    * the equality of the diagonal angles at v and w,
    * the orientation equality of the two anchor tetrahedra,
    * existence of the half-turn itself (aligning (v, w, F_v, Fhat_v) with
      (w, v, Fhat_w, F_w)), its involution property, and the negative check
      that it does not extend to the remaining quad vertices, those being
      related by a reflection instead; the negative check asks for a gap
      above ``tol`` times the longest side of the quad,

    and that the hat anchors Fhat23 and Fhat34 agree with the transfer of
    the bar anchors through the affine frames of the two quads
    (:func:`hat_points`).
    """
    residuals = []
    bar_quad = cp.bar_quad
    quad = cp.quad
    corners = [tuple(float(x) for x in p) for p in quad.vertices()]
    min_gap = tol * max(math.dist(p, q)
                        for p, q in zip(corners, corners[1:] + corners[:1]))
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
        # diagonal angle equality at the hat anchors
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
            0.0 if gap > min_gap else 1.0, 0.5))
        # ... those two points are related by a reflection instead
        mirrored = _reflect_across_plane(
            tuple(float(x) for x in img),
            tuple(float(x) for x in pw),
            tuple(float(x) for x in fw),
            tuple(float(x) for x in fhat_w))
        residuals.append(ResidualEntry(
            f"reflection relation @ {tag}",
            math.dist(mirrored, tuple(float(x) for x in po)), tol))
    # the frame transfer must agree with the rigid alignment
    labels = ((2, 3), (3, 4))
    transferred = hat_points(quad, bar_quad,
                             [cp.bar_pose.axes[label].point for label in labels])
    for label, point in zip(labels, transferred):
        gap = math.dist(tuple(float(x) for x in cp.hat_axes[label].point),
                        tuple(float(x) for x in point))
        residuals.append(ResidualEntry(
            f"Fhat{label[0]}{label[1]} transfer", gap, tol))
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
# single-loop certificates
# ---------------------------------------------------------------------------

def bennett_loop_check(pose: Pose, tol) -> CertificateReport:
    """Bennett's facts about his loop at one pose of a BennettDesign
    (G. T. Bennett, "The skew isogram mechanism", Proc. London Math. Soc.
    13, 1914): the chain closes, the half-turn about the symmetry line swaps
    opposite axes, and the axes lie on a regulus.  Where the regulus
    degenerates (k = 0, or a1 a2 = 1) opposite axes meet instead, and their
    two Pluecker products take its place."""
    residuals = [
        ResidualEntry("closure",
                      loop_closure_residual(pose.design, pose.tau), tol),
        ResidualEntry("symmetry half-turn", symmetry_residual(pose), tol),
    ]
    try:
        residuals.append(ResidualEntry("regulus", regulus_residual(pose), tol))
    except DegenerateQuadricError:
        for a, b in (((1, 4), (2, 3)), ((1, 2), (3, 4))):
            residuals.append(ResidualEntry(
                f"axes {a[0]}{a[1]} and {b[0]}{b[1]} meet",
                pluecker_product(pose.axes[a], pose.axes[b]), tol))
    return CertificateReport("bennett-loop", tuple(residuals))


def planar_loop_check(pose: Pose, tol) -> CertificateReport:
    """A planar loop at one pose: the chain closes, the axes are parallel,
    the anchors are coplanar and their opposite sides are equal, so they
    form a parallelogram or an antiparallelogram."""
    axes = [pose.axes[label] for label in AXIS_LABELS]
    anchors = SkewQuad(*(ax.point for ax in axes))
    parallel = max(abs(c) for ax in axes[1:]
                   for c in v_cross(axes[0].direction, ax.direction))
    side_a, side_b = isogram_residuals(anchors)
    return CertificateReport("planar-loop", (
        ResidualEntry("closure",
                      loop_closure_residual(pose.design, pose.tau), tol),
        ResidualEntry("axes parallel", parallel, tol),
        ResidualEntry("anchors coplanar", anchors.orientation_det(), tol),
        ResidualEntry("sides 14-12 = 23-34", side_a, tol),
        ResidualEntry("sides 12-23 = 34-14", side_b, tol),
    ))
