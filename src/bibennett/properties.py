"""Runnable certificates for the vertex properties of coupled Bennett tubes.

Families A and B carry isogonal respectively deltoidal spherical vertex
figures; family C's adjacent vertices are related by a half-turn.  Each
displayed condition of the underlying arguments is evaluated as one named
residual so that a certificate is a direct numerical transcript of the claim.

Each certificate is a pure function of one ``CoupledPose`` (or, for one
loop, of one ``Pose``) and a tolerance, such as ``isogonal_check`` or
``bennett_loop_check``; the public ``*_certificate(bib, tau)`` functions
pose the coupling at tau and hold the check to ``TOL``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .algebra import (
    TOL,
    det3,
    div,
    one_denominator,
    to_floats,
    tolerance_of,
    v_cross,
    v_dot,
    v_norm_sq,
    v_scale,
    v_sub,
)
from .bennett import (
    AXIS_LABELS,
    VERTEX_ROLES,
    DegenerateQuadError,
    Pose,
    bennett_pairs,
    half_turn_residual,
    loop_closure_residual,
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

class ResidualEntry(NamedTuple):
    """A named value of a certificate and the float tolerance of its check;
    the value is held to ``tolerance_of(value, tol)``."""

    label: str
    value: float
    tol: float

    @property
    def tolerance(self):
        return tolerance_of(self.value, self.tol)

    @property
    def passed(self) -> bool:
        return abs(self.value) <= self.tolerance


class CertificateReport(NamedTuple):
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


def _vertex_certificate(name, residuals, power, cp: CoupledPose, tol
                        ) -> CertificateReport:
    """The labelled values ``residuals(sides, dots)`` at all four quad
    vertices of a line-symmetric coupling.

    With c the vertex, o its opposite, u and w its neighbors, and r_c, r_o
    the axis directions at c and o, ``sides`` are (u-c, w-c, u-o, w-o) and
    ``dots`` (<u-c, r_c>, <w-c, r_c>, <u-o, r_o>, <w-o, r_o>), on integers
    over one D (:func:`one_denominator`): each residual is over D^power."""
    cleared, den = one_denominator([(cp.quad.points, cp.quad.den),
                                    (cp.pose.directions, cp.pose.den)])
    quad = dict(zip(AXIS_LABELS, cleared))
    axes = dict(zip(AXIS_LABELS, cleared[4:]))
    scale = den ** power
    entries = []
    for center, opposite, prev_n, next_n in VERTEX_ROLES:
        c, o, u, w = (quad[lab] for lab in (center, opposite, prev_n, next_n))
        r_c, r_o = axes[center], axes[opposite]
        sides = (v_sub(u, c), v_sub(w, c), v_sub(u, o), v_sub(w, o))
        dots = [v_dot(side, r) for side, r in zip(sides, (r_c, r_c, r_o, r_o))]
        for label, value in residuals(sides, dots).items():
            entries.append(ResidualEntry(
                f"{label} @ P{center[0]}{center[1]}", div(value, scale), tol))
    return CertificateReport(name, tuple(entries))


def isogonal_check(cp: CoupledPose, tol) -> CertificateReport:
    """Equal-opposite-angle certificate at all four quad vertices."""
    return _vertex_certificate("isogonal", _isogonal_residuals, 6, cp, tol)


def deltoidal_check(cp: CoupledPose, tol) -> CertificateReport:
    """Equal-adjacent-angle certificate at all four quad vertices."""
    return _vertex_certificate("deltoidal", _deltoidal_residuals, 2, cp, tol)


def trivial_check(cp: CoupledPose, tol) -> CertificateReport:
    """The trivial pattern's claim, that the partner tube is the first one:
    the half-turn ``cp.delta`` swaps the tube's :func:`bennett_pairs`."""
    (through, line, *vectors), den = one_denominator([
        (cp.delta.line, cp.delta.den),
        (cp.pose.points + cp.pose.directions, cp.pose.den)])
    pairs = bennett_pairs(vectors[:4], vectors[4:])
    return CertificateReport("trivial", (ResidualEntry(
        "partner tube is the first",
        half_turn_residual(through, line, pairs, den), tol),))


def isogonal_certificate(bib: BiBennett, tau) -> CertificateReport:
    """:func:`isogonal_check` of the coupling at tau, held to ``TOL``."""
    return isogonal_check(coupled_pose(bib, tau), TOL)


def deltoidal_certificate(bib: BiBennett, tau) -> CertificateReport:
    """:func:`deltoidal_check` of the coupling at tau, held to ``TOL``."""
    return deltoidal_check(coupled_pose(bib, tau), TOL)


# ---------------------------------------------------------------------------
# family-C adjacent-vertex half-turn certificate
# ---------------------------------------------------------------------------

def _reflect_across_plane(point, w, p0, p1, p2):
    """Mirror image of ``point`` across the plane of P_w, F_w, Fhat_w."""
    n = v_cross(v_sub(p1, p0), v_sub(p2, p0))
    norm_sq = v_norm_sq(n)
    if not norm_sq > 0:
        raise DegenerateQuadError("the plane P{0}{1} F{0}{1} Fhat{0}{1} has a"
                                  " zero normal".format(*w))
    return v_sub(point, v_scale(2 * v_dot(v_sub(point, p0), n) / norm_sq, n))


def halfturn_certificate(bib: BiBennett, tau) -> CertificateReport:
    """:func:`halfturn_check` of the coupling at tau, held to ``TOL``."""
    return halfturn_check(coupled_pose(bib, tau), TOL)


def halfturn_check(cp: CoupledPose, tol) -> CertificateReport:
    """Half-turn relating adjacent vertices of a family-C coupling.

    Checks, at each adjacent vertex pair (v, w): four tau-free angle
    equalities between rotary joints around v and w (each tube against the
    bar copy in its own frame); the equality of the diagonal angles at v
    and w; the orientation equality of the two anchor tetrahedra; the
    half-turn itself (aligning (v, w, F_v, Fhat_v) with (w, v, Fhat_w,
    F_w)), its involution property, and the negative check that it does not
    extend to the remaining quad vertices (a gap above ``tol`` times the
    longest side), which a reflection relates instead.  Where the quad's
    diagonals are equal (exactly, or within ``tol`` times the larger for a
    float quad) a further half-turn makes the negative claim false, and its
    entry is 0 "(equal diagonals)".  Last, the partner map ``cp.delta`` must
    be a direct isometry carrying the bar quad onto the quad.  The angle
    entries are exact for an exact pose; every later entry reads floats.
    """
    residuals = []
    angles = _anchor_angles(cp.quad, cp.pose)
    bar_angles = _anchor_angles(cp.bar_quad, cp.bar_pose)
    quad, anchor, fhat, bar = (
        {label: to_floats(p, rec.den) for label, p in zip(AXIS_LABELS,
                                                          rec.points)}
        for rec in (cp.quad, cp.pose, cp.hat_pose, cp.bar_quad))
    min_gap = tol * max(math.dist(quad[v], quad[w])
                        for v, _, _, w in VERTEX_ROLES)
    d1, d2 = cp.quad.diag_sq()
    equal_diagonals = abs(d1 - d2) <= tolerance_of(d1 - d2, tol) * max(d1, d2)
    for v, opp_v, prev_v, w in VERTEX_ROLES:  # w is the next neighbor of v
        tag = f"P{v[0]}{v[1]}-P{w[0]}{w[1]}"
        # tau-free angle equalities between the two tubes, each in its own
        # frame; the cleared normalizers agree by the shared side conditions.
        # The bar tube's terms swap v with w and prev_v with opp_v.
        pairs = ((v, w), (v, prev_v), (w, v), (w, opp_v))
        for i in range(4):
            residuals.append(ResidualEntry(
                f"angle{i + 1} @ {tag}",
                angles[pairs[i]] - bar_angles[pairs[i - 2]], tol))
        pv, pw, fv, fw = quad[v], quad[w], anchor[v], anchor[w]
        fhat_v, fhat_w = fhat[v], fhat[w]
        # diagonal angle equality at the hat anchors
        diag = (v_dot(v_sub(fv, pv), v_sub(fhat_v, pv))
                - v_dot(v_sub(fw, pw), v_sub(fhat_w, pw)))
        residuals.append(ResidualEntry(f"diag @ {tag}", diag, tol))
        # orientation equality of the two local tetrahedra
        orient = (det3(v_sub(pw, pv), v_sub(fv, pv), v_sub(fhat_v, pv))
                  - det3(v_sub(pv, pw), v_sub(fhat_w, pw), v_sub(fw, pw)))
        residuals.append(ResidualEntry(f"orient @ {tag}", orient, tol))
        # the half-turn itself
        rho = align_isometry(SkewQuad((pv, pw, fv, fhat_v), 1),
                             SkewQuad((pw, pv, fhat_w, fw), 1))
        residuals.append(ResidualEntry(
            f"rho involution @ {tag}", _compose_sq(rho), tol))
        residuals.append(ResidualEntry(
            f"rho direct @ {tag}", rho.orientation - 1, tol))
        # negative check: rho must not map the previous neighbor of v onto
        # the opposite vertex ...
        img = rho.apply_point(quad[prev_v])
        gap = math.dist(img, quad[opp_v])
        label = (f"rho(P{prev_v[0]}{prev_v[1]}) != P{opp_v[0]}{opp_v[1]}"
                 f" @ {tag}")
        residuals.append(
            ResidualEntry(f"{label} (equal diagonals)", 0, tol)
            if equal_diagonals
            else ResidualEntry(label, 0 if gap > min_gap else 1, tol))
        # ... those two points are related by a reflection instead
        mirrored = _reflect_across_plane(img, w, pw, fw, fhat_w)
        residuals.append(ResidualEntry(
            f"reflection relation @ {tag}", math.dist(mirrored, quad[opp_v]),
            tol))
    # the partner map carries the bar quad onto the quad, directly
    partner = max(math.dist(cp.delta.apply_point(bar[lab]), quad[lab])
                  for lab in AXIS_LABELS)
    residuals.append(ResidualEntry("partner", partner, tol))
    residuals.append(ResidualEntry(
        "partner direct", cp.delta.orientation - 1, tol))
    return CertificateReport("halfturn", tuple(residuals))


def _anchor_angles(quad: SkewQuad, pose: Pose):
    """{(x, y): <P_y - P_x, F_x - P_x>} for each quad vertex P_x, anchor F_x
    and neighbor P_y, over D^2 (:func:`one_denominator`); a tube holding a
    float is over 1, so the values reading only exact points stay exact."""
    cleared, den = one_denominator([(quad.points, quad.den),
                                    (pose.points, pose.den)])
    return {(AXIS_LABELS[i], AXIS_LABELS[j]): div(v_dot(
        v_sub(cleared[j], cleared[i]), v_sub(cleared[4 + i], cleared[i])),
        den * den) for i in range(4) for j in ((i - 1) % 4, (i + 1) % 4)}


def _compose_sq(motion) -> float:
    """Max displacement of rho(rho(x)) over a probe set (0 for an involution)."""
    probes = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
              (0.0, 0.0, 1.0), (1.0, 1.0, 1.0)]
    return max(math.dist(motion.apply_point(motion.apply_point(p)), p)
               for p in probes)


# ---------------------------------------------------------------------------
# single-loop certificates
# ---------------------------------------------------------------------------

def bennett_loop_check(pose: Pose, tol) -> CertificateReport:
    """Bennett's facts about his loop at one pose of a BennettDesign
    (G. T. Bennett, "The skew isogram mechanism", Proc. London Math. Soc.
    13, 1914): the chain closes, the half-turn about the symmetry line swaps
    opposite axes, and the axes lie on a regulus, degenerate where axes
    meet (all at the apex for k = 0, opposite ones for a1 a2 = 1).  The
    regulus entry cannot fail at k = 0, where the four axes run through the
    apex: lines through one point have Pluecker rank at most 3."""
    return CertificateReport("bennett-loop", (
        ResidualEntry("closure",
                      loop_closure_residual(pose.design, pose.tau), tol),
        ResidualEntry("symmetry half-turn", symmetry_residual(pose), tol),
        ResidualEntry("regulus", regulus_residual(pose), tol),
    ))


def parallel_residual(directions, den):
    """Largest coordinate of the cross products of the first of
    ``directions`` (numerators over ``den``) with the others: 0 iff all are
    parallel, exact for exact input."""
    first, *rest = directions
    return div(max(abs(c) for d in rest for c in v_cross(first, d)), den * den)


def planar_loop_check(pose: Pose, tol) -> CertificateReport:
    """A planar loop at one pose: the chain closes, the axes are parallel,
    the anchors are coplanar and their opposite sides are equal, so they
    form a parallelogram or an antiparallelogram."""
    anchors = SkewQuad(pose.points, pose.den)
    parallel = parallel_residual(pose.directions, pose.den)
    side_a, side_b = isogram_residuals(anchors)
    return CertificateReport("planar-loop", (
        ResidualEntry("closure",
                      loop_closure_residual(pose.design, pose.tau), tol),
        ResidualEntry("axes parallel", parallel, tol),
        ResidualEntry("anchors coplanar", anchors.orientation_det(), tol),
        ResidualEntry("sides 14-12 = 23-34", side_a, tol),
        ResidualEntry("sides 12-23 = 34-14", side_b, tol),
    ))
