"""Records are immutable named tuples: fields, equality, hashing, pickling.

Every record type of the package is a ``typing.NamedTuple`` (DirichletChar
through a named-tuple base, for the constructor's checks), with no instance
``__dict__``.  The CLI reads them through ``_fields`` and ``--jobs`` workers
send them back pickled.
"""

import copy
import os
import pickle
from fractions import Fraction
import subprocess
import sys

import pytest

from lzero import (
    DirichletChar,
    PadicTower,
    build_tower,
    embed_padic,
    integrality_verdict,
    l_value_at_zero,
    nonintegral_locus_scan,
    unit_group_basis,
)
from lzero import padic
from lzero.cyclo import CycloElt
from lzero.scans import (
    _odd_product_identity,
    _pole_depths,
    deligne_ribet_check,
    kummer_check,
    residue_congruence_scan,
)


NAMES = sorted([
    "UnitGroupBasis", "DirichletChar", "LValueRecord", "PadicTower", "PadicElt",
    "VerdictRecord", "BoundRecord", "CongruenceRow", "PoleDepthRow",
    "ProductIdentityReport", "CongruencePair", "CongruenceReport",
])


@pytest.fixture(scope="module")
def samples():
    """One instance of each of the twelve record types, built by the code
    that builds them in a run."""
    chi = DirichletChar(7, (1,))
    tower = build_tower(5, 20, 16)
    report = residue_congruence_scan(40, 3)
    return {
        "UnitGroupBasis": unit_group_basis(15),
        "DirichletChar": chi,
        "LValueRecord": l_value_at_zero(chi),
        "PadicTower": tower,
        "PadicElt": embed_padic(CycloElt.zeta(20, 3), tower),
        "VerdictRecord": integrality_verdict(chi, 7),
        "BoundRecord": deligne_ribet_check(chi),
        "CongruenceRow": kummer_check(7)[0],
        "PoleDepthRow": _pole_depths(5, 2, 16)[0][0],
        "ProductIdentityReport": _odd_product_identity(7, 16)[0],
        "CongruencePair": report.pairs[0],
        "CongruenceReport": report,
    }


def test_every_record_type_is_sampled(samples):
    assert sorted(type(rec).__name__ for rec in samples.values()) == NAMES == sorted(samples)


@pytest.mark.parametrize("name", NAMES)
def test_record_is_a_named_tuple(samples, name):
    rec = samples[name]
    assert isinstance(rec, tuple)
    assert type(rec)._fields == tuple(rec._asdict())
    assert list(rec) == [getattr(rec, f) for f in rec._fields]


@pytest.mark.parametrize("name", NAMES)
def test_record_has_no_instance_dict(samples, name):
    # a record is its fields: nothing cached on it, nothing more to pickle
    assert not hasattr(samples[name], "__dict__")


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned(samples, name):
    rec = samples[name]
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    assert rec == type(rec)(*rec)


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash_go_by_the_fields(samples, name):
    rec = samples[name]
    copy = type(rec)(*rec)
    assert copy == rec and copy is not rec
    # DirichletChar's _make checks the fields, so its unequal copy is a
    # different valid character
    other = [7, (5,)] if name == "DirichletChar" else [object(), *rec[1:]]
    assert type(rec)._make(other) != rec
    try:
        want = hash(tuple(rec))
    except TypeError:  # a dict or CycloElt field: unhashable, as the record
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(copy) == want


@pytest.mark.parametrize("name", ["VerdictRecord", "DirichletChar"])
def test_pickle_round_trips(samples, name):
    # --jobs workers send both back to the parent pickled
    rec = samples[name]
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec and type(back) is type(rec)


def test_verdict_record_notes_default(samples):
    rec = samples["VerdictRecord"]
    assert type(rec)(*rec[:-1]) == rec._replace(notes="")


_BAD_CHARACTERS = """
import sys
from lzero import DirichletChar
for modulus, exponents in [(15, (1,)), (15, (1, 1, 0)), (7, (6,)), (7, (-1,)), (15, (0, 4))]:
    try:
        DirichletChar(modulus, exponents)
    except ValueError as exc:
        print(exc)
    else:
        sys.exit(4)
print(DirichletChar(15, (1, 3)))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_dirichlet_char_checks_its_exponents(flags):
    env = {k: v for k, v in os.environ.items() if not k.startswith("LZERO_")}
    proc = subprocess.run([sys.executable, *flags, "-c", _BAD_CHARACTERS],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    length = "exponent vector length does not match the basis\n"
    bound = "exponent out of range for generator order\n"
    assert proc.stdout == (2 * length + 3 * bound
                           + "DirichletChar(modulus=15, exponents=(1, 3))\n")


_BAD_COPIES = """
from lzero import DirichletChar
chi = DirichletChar(7, (1,))
for build in [lambda: chi._replace(exponents=(9, 9)), lambda: DirichletChar._make((7, (9,)))]:
    try:
        build()
    except ValueError as exc:
        print(exc)
    else:
        raise SystemExit(4)
print(chi._replace(exponents=(5,)), DirichletChar._make((15, (1, 3))))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_dirichlet_char_make_and_replace_check_exponents(flags):
    env = {k: v for k, v in os.environ.items() if not k.startswith("LZERO_")}
    proc = subprocess.run([sys.executable, *flags, "-c", _BAD_COPIES],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("exponent vector length does not match the basis\n"
                           "exponent out of range for generator order\n"
                           "DirichletChar(modulus=7, exponents=(5,)) "
                           "DirichletChar(modulus=15, exponents=(1, 3))\n")


def test_a_copied_tower_embeds_to_the_same_image():
    # no cache is keyed on a tower: an equal tower, a copy or one a worker
    # sent back, embeds to the same image, and so does the tower itself
    # once the binomial rows are built again
    for p in (7, 3):  # tame, and wild with e = 6
        tower = build_tower(p, 36, 16)
        z = CycloElt.zeta(36, 5) * CycloElt.rational(Fraction(3, 7), 36)
        image = embed_padic(z, tower)
        for twin in (pickle.loads(pickle.dumps(PadicTower(*tower))),
                     copy.copy(tower), copy.deepcopy(tower)):
            got = embed_padic(z, twin)
            assert twin == tower and got.tower is twin
            assert (got.shift, got.mat) == (image.shift, image.mat)
        padic._binomial_rows.cache_clear()
        assert embed_padic(z, tower) == image


def test_a_tower_pickles_without_its_table():
    # a tower pickles as its eight fields, before and after it embeds
    tower = PadicTower(*build_tower(5, 36, 16))
    bare = pickle.dumps(tower)
    embed_padic(CycloElt.zeta(36, 5), tower)
    assert pickle.dumps(tower) == bare
    assert pickle.loads(bare) == tower and type(pickle.loads(bare)) is PadicTower
    assert tuple(pickle.loads(bare)) == tuple(build_tower(5, 36, 16))
    assert len(PadicTower._fields) == 8


def test_towers_sent_back_by_workers_equal_the_built_ones():
    records = nonintegral_locus_scan(36, 13, jobs=2)
    assert records
    for rec in records:
        tower = rec.tower
        assert type(tower) is PadicTower and not hasattr(tower, "__dict__")
        assert tower.p == rec.p
        assert tower == build_tower(tower.p, tower.k, tower.precision)
