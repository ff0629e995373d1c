"""Behaviour corpus: every subcommand, in both modes, on seeded random
configs of every config family, pinned by one digest per config and mode.

A digest covers, for each subcommand in turn, its exit code, its standard
output and error, and the bytes it wrote to ``--out``.  Any change in what
the command line prints, writes or returns therefore fails the test, which
names the first config that moved and shows its output.

``python tests/test_corpus.py`` rewrites ``corpus_digests.json``.  A
rewrite is a declared re-pin: its diff names the configs that moved.
"""

import hashlib
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from io import StringIO
from pathlib import Path

if __name__ == "__main__":  # run as a script: the package of this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bibennett.cli import main
from bibennett.io_export import FAMILIES

DIGESTS = Path(__file__).with_name("corpus_digests.json")
SEED = 20250615
PER_FAMILY = 12
SUBCOMMANDS = ("validate", "construct", "sweep", "certify", "limits",
               "export")
MODES = ("exact", "float")

# family-C rows with a rational tau_bar at their tau, (a1, a2, k, mu14,
# mu12, tau), as in tests/test_properties.py; the chord couplings start
# from them
_RATIONAL_BAR = (
    (F(1, 3), F(2, 3), F(0), F(5, 6), F(1, 2), F(1)),
    (F(1, 3), F(1), F(0), F(13, 40), F(1, 2), F(3)),
    (F(1, 3), F(1, 2), F(1, 2), F(2, 3), F(1, 3), F(3)),
    (F(2, 3), F(2), F(1), F(1, 2), F(1), F(3)),
    (F(1, 3), F(1), F(2), F(-2), F(-1), F(2, 3)),
)


def _ratio(rng, low, high=9):
    """p/q with p drawn from [low, high] and q from [1, 9]."""
    return F(rng.randint(low, high), rng.randint(1, 9))


def _signed(rng):
    return _ratio(rng, -9)


def _family_a_offsets(rng):
    """Offsets (mu14, mu12, mu23, mu34) with real, distinct family-A
    half-tangents: both squares the family's solved formulas give are
    positive and unequal."""
    while True:
        m14, m12, m23, m34 = (_signed(rng) for _ in range(4))
        s1, s2 = m14 - m12 + m23 - m34, m14 - m12 - m23 + m34
        s3, s4 = m14 + m12 + m23 + m34, m14 + m12 - m23 - m34
        if s3 * s4 * s2 == 0:
            continue
        a1_sq, a2_sq = -(s1 * s2) / (s3 * s4), -(s4 * s1) / (s3 * s2)
        if a1_sq > 0 and a2_sq > 0 and a1_sq != a2_sq:
            return dict(mu14=m14, mu12=m12, mu23=m23, mu34=m34)


def _draw(rng, family):
    """One config of ``family``: each key its family requires or allows,
    a drive value tau and three tau_samples."""
    row = FAMILIES[family]
    keys = row.required | row.optional
    values = {}
    if {"mu14", "mu12", "mu23", "mu34"} <= keys:  # A and A-pyramidal
        values.update(_family_a_offsets(rng))
    for key in sorted(keys - values.keys()):
        if key == "case":
            values[key] = rng.choice(("1a", "1b", "2a", "2b")
                                     if family == "planar"
                                     else ("anti", "para"))
        elif key in ("s", "branch"):
            values[key] = rng.choice((1, -1))
        elif key == "k":
            values[key] = _ratio(rng, 0)
        elif key.startswith("mu"):
            values[key] = _signed(rng)
        else:  # a1, a2, d1, d2
            values[key] = _ratio(rng, 1)
    taus = [_ratio(rng, 1) * rng.choice((1, -1)) for _ in range(4)]
    return dict(values, tau=taus[0], tau_samples=taus[1:])


def _chord(rng, row):
    """The second rational point of the family-C coupling conic on the line
    through ``row`` along a drawn direction: a coupling with the row's
    rational tau_bar, or None where the line only touches the conic.

    At fixed (a1, a2, tau, tau_bar) the coupling relation is the conic
    (P+Q) X^2 + (Q-P) Y^2 + 2Q Z^2 = 0 in (X, Y, Z) = (mu14, mu12, k), with
    P = (a1-a2)^2 tau^2 b + (a1^2+a2^2)(tau^2+b) + (a1+a2)^2 and
    Q = 2 a1 a2 (tau^2 - b), b = tau_bar^2; the relation is linear in b,
    so the row gives b without the package's solver, whose output the
    corpus pins."""
    a1, a2, k, mu14, mu12, tau = row
    t2 = tau * tau
    p0, p1 = (a1 * a1 + a2 * a2) * t2 + (a1 + a2) ** 2, (
        (a1 - a2) ** 2 * t2 + a1 * a1 + a2 * a2)
    q0, q1 = 2 * a1 * a2 * t2, -2 * a1 * a2
    diff, total = mu14 ** 2 - mu12 ** 2, mu14 ** 2 + mu12 ** 2 + 2 * k * k
    b = -(p0 * diff + q0 * total) / (p1 * diff + q1 * total)
    p, q = p0 + p1 * b, q0 + q1 * b
    form, point = (p + q, q - p, 2 * q), (mu14, mu12, k)
    direction = [_signed(rng) for _ in range(3)]
    square = sum(c * d * d for c, d in zip(form, direction))
    if square == 0:
        return None
    t = -2 * sum(c * x * d for c, x, d in zip(form, point, direction)) / square
    x, y, z = (x + t * d for x, d in zip(point, direction))
    return dict(a1=a1, a2=a2, k=abs(z), mu14=x, mu12=y,
                s=rng.choice((1, -1)), branch=rng.choice((1, -1)), tau=tau,
                tau_samples=[tau, tau + F(1, 7), -tau])


def corpus():
    """{name: config} of PER_FAMILY drawn configs per family, the chord
    couplings and the scaled k = 0 couplings, in a fixed order from SEED."""
    rng = random.Random(SEED)
    configs = {}
    for family in sorted(FAMILIES):
        for i in range(PER_FAMILY):
            configs[f"{family}-{i:02d}"] = dict(family=family,
                                                **_draw(rng, family))
    for i, row in enumerate(_RATIONAL_BAR):
        chord = _chord(rng, row)
        if chord is not None:
            configs[f"C-chord-{i:02d}"] = dict(family="C", **chord)
    # at k = 0 the coupling relation is homogeneous in the offsets, so a
    # k = 0 row with both offsets scaled keeps its rational tau_bar
    for i, (a1, a2, k, mu14, mu12, tau) in enumerate(_RATIONAL_BAR):
        if k == 0:
            scale = _ratio(rng, 1) * rng.choice((1, -1))
            configs[f"C-pyramidal-scaled-{i:02d}"] = dict(
                family="C-pyramidal", a1=a1, a2=a2, mu14=scale * mu14,
                mu12=scale * mu12, s=rng.choice((1, -1)),
                branch=rng.choice((1, -1)), tau=tau,
                tau_samples=[tau, tau + F(1, 7), -tau])
    return configs


def _text(config):
    """The config file: JSON with every rational written as "p/q"."""
    def scalar(x):
        return f"{x.numerator}/{x.denominator}"
    data = {"schema": 1}
    for key, value in config.items():
        if isinstance(value, F):
            value = scalar(value)
        elif isinstance(value, list):
            value = [scalar(x) for x in value]
        data[key] = value
    return json.dumps(data, sort_keys=True)


def run(config, mode):
    """(digest, transcript) of every subcommand on ``config`` in ``mode``,
    in the current directory."""
    Path("config.json").write_text(_text(config), encoding="utf-8")
    digest, transcript = hashlib.sha256(), []
    for command in SUBCOMMANDS:
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "-c", "config.json", "--mode", mode,
                         "--out", "out"])
        written = Path("out")
        data = written.read_bytes() if written.exists() else b""
        written.unlink(missing_ok=True)
        record = (f"{command} {code}\n{out.getvalue()}\0{err.getvalue()}\0"
                  f"{len(data)}\0").encode() + data
        digest.update(record)
        transcript.append(f"$ {command} -> {code}\n{out.getvalue()}"
                          f"{err.getvalue()}--out: {len(data)} bytes")
    return digest.hexdigest(), "\n".join(transcript)


def test_corpus_output_is_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    configs = corpus()
    assert sorted(configs) == sorted(pinned), "the corpus draws changed"
    for name, config in configs.items():
        for mode in MODES:
            digest, transcript = run(config, mode)
            assert digest == pinned[name][mode], (
                f"{name} ({mode}) moved: {_text(config)}\n{transcript}")


def repin():
    """Rewrite DIGESTS from the code of this checkout."""
    with tempfile.TemporaryDirectory() as workdir:
        here = os.getcwd()
        os.chdir(workdir)
        try:
            digests = {name: {mode: run(config, mode)[0] for mode in MODES}
                       for name, config in corpus().items()}
        finally:
            os.chdir(here)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")


if __name__ == "__main__":
    repin()
