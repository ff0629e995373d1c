"""Unit tests for the prismatic and pyramidal limit structures."""

from fractions import Fraction

import pytest

from bibennett.families import MuSet, TrivialQuadError, coupled_pose
from bibennett.limits import (
    CLASS_LABELS,
    prism_parallel_residual,
    prismatic_limit_AB,
    prismatic_limit_C,
    pyramidal_limit,
    verify_labels,
)

F = Fraction
TAU = F(3, 4)


def test_prismatic_c_anti_labels():
    st = prismatic_limit_C("anti", F(1, 2), F(1, 3), F(2, 3), F(1, 2), 1)
    assert st.labels == {"III2ii"}
    report = verify_labels(st, TAU)
    assert report.verdict, report.lines()


def test_prismatic_c_para_labels():
    st = prismatic_limit_C("para", F(2, 3), F(3, 4), F(1, 3), F(1, 2), 1,
                           branch=-1)
    assert st.labels == {"III4ii"}
    assert verify_labels(st, TAU).verdict


def test_prismatic_a_anti_labels():
    st = prismatic_limit_AB("A", "anti", F(1, 2), F(1, 3),
                            mu12=F(1, 4), mu23=F(2, 3), mu34=F(1, 2))
    assert "III1" in st.labels
    assert verify_labels(st, TAU).verdict


def test_prismatic_a_anti_isogonal_compatible_branch():
    # mu chosen so the extra factor condition holds: III3 joins the labels
    st = prismatic_limit_AB("A", "anti", F(1, 2), F(1, 3),
                            mu12=F(1), mu23=F(3, 5), mu34=F(0))
    assert st.isogonal_compatible
    assert "III3" in st.labels
    assert verify_labels(st, TAU).verdict


def test_prismatic_a_para_labels():
    st = prismatic_limit_AB("A", "para", F(1, 2), F(1, 3),
                            mu12=F(1, 4), mu23=F(2, 3), mu34=F(1, 2))
    assert st.labels == {"III1", "III4ii"}
    assert verify_labels(st, TAU).verdict


def test_prismatic_b_anti_labels():
    st = prismatic_limit_AB("B", "anti", F(1, 2), F(1, 3),
                            mu23=F(2, 3), mu34=F(1, 2))
    assert st.labels == {"III1", "III2ii"}
    assert verify_labels(st, TAU).verdict


def test_prismatic_b_para_is_trivial():
    with pytest.raises(TrivialQuadError):
        prismatic_limit_AB("B", "para", F(1, 2), F(1, 3),
                           mu23=F(2, 3), mu34=F(1, 2))


def test_prism_directions_parallel_per_tube():
    st = prismatic_limit_C("anti", F(1, 2), F(1, 3), F(2, 3), F(1, 2), 1)
    cp = coupled_pose(st.bibennett, TAU)
    assert prism_parallel_residual(cp) < 1e-12


def test_pyramidal_labels():
    a = pyramidal_limit("A", mu=MuSet(F(37, 40), F(7, 8), F(1), F(1, 2)))
    assert a.labels == {"I1", "I3"}
    assert verify_labels(a, TAU).verdict
    b = pyramidal_limit("B", a1=F(1, 2), a2=F(1, 3),
                        mu23=F(2, 3), mu34=F(1, 2))
    assert b.labels == {"I1", "I2"}
    assert verify_labels(b, TAU).verdict
    c = pyramidal_limit("C", a1=F(1, 2), a2=F(1, 3), mu14=F(2, 3),
                        mu12=F(1, 2), s=1, branch=-1)
    assert c.labels == {"I2"}
    assert verify_labels(c, TAU).verdict


def test_labels_are_known():
    st = prismatic_limit_C("anti", F(1, 2), F(1, 3), F(2, 3), F(1, 2), 1)
    assert st.labels <= set(CLASS_LABELS)


def test_limit_quad_sides_rigid():
    structures = [
        prismatic_limit_C("anti", F(1, 2), F(1, 3), F(2, 3), F(1, 2), 1),
        prismatic_limit_AB("A", "para", F(1, 2), F(1, 3),
                           mu12=F(1, 4), mu23=F(2, 3), mu34=F(1, 2)),
        pyramidal_limit("C", a1=F(1, 2), a2=F(1, 3), mu14=F(2, 3),
                        mu12=F(1, 2), s=1, branch=-1),
    ]
    for st in structures:
        base = None
        for tau in (F(1, 4), F(1, 2), F(9, 10), F(2)):
            sides = st.bibennett.loop().quad(tau).side_sq()
            if base is None:
                base = sides
            assert sides == base
