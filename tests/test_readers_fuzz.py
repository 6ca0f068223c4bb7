"""Fuzzed file readers: any bytes end in a FocusError or a valid result.

Each reader gets arbitrary bytes and byte mutations (overwrites,
insertions, deletions, truncation) of a valid file. Anything but a
`FocusError` escaping is a bug: `focus` maps only those to exit codes.
`load_csv`'s np.loadtxt path is checked against its per-cell reader on
generated and mutated CSVs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from focus_forecast.clustering import FitMeta, PrototypeSet
from focus_forecast.config import read_config_file, resolve_config
from focus_forecast.container import (
    load_model,
    load_prototypes,
    read_container,
    save_model,
    save_prototypes,
)
from focus_forecast import data
from focus_forecast.data import load_csv
from focus_forecast.errors import FocusError, ParseError
from focus_forecast.model import HyperParams, init_params

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid file per reader, as bytes, and a scratch path to write to."""
    d = tmp_path_factory.mktemp("fuzz")
    hyper = HyperParams(p=2, d=2, m=1, k=2, lookback=4, horizon=2, n_entities=2)
    protos = PrototypeSet(np.array([[0.5, -1.0], [2.0, 0.25]]), 0.2, FitMeta(3, 0.5, 7))
    save_prototypes(d / "protos.bin", protos)
    save_model(
        d / "model.bin",
        init_params(hyper, protos, seed=1),
        norm_stats=(np.zeros(2), np.ones(2)),
        ratio=(0.7, 0.1, 0.2),
    )
    files = {
        "protos": (d / "protos.bin").read_bytes(),
        "model": (d / "model.bin").read_bytes(),
        "csv": b"a,b\n1.5,-2\n3e-1,4\n",
        "config": b"# run\nk=8\nlr = 0.01\nratio=0.6,0.2,0.2\nseed=3\n",
    }
    return files, d / "fuzzed"


# 8-byte patterns that stress numeric fields: NaN, infinities, a fraction,
# a huge float, and the extreme int64 values
SPECIALS = [
    np.array(v, dtype=t).tobytes()
    for v, t in [(np.nan, "<f8"), (np.inf, "<f8"), (-np.inf, "<f8"), (2.5, "<f8"),
                 (1e300, "<f8"), (2**63 - 1, "<i8"), (-(2**63), "<i8")]
]


def _mutate(data: bytes, edits) -> bytes:
    """Apply (kind, position, value) edits: overwrite, insert or delete a
    byte, truncate, or overwrite 8 bytes with one of SPECIALS."""
    buf = bytearray(data)
    for kind, pos, value in edits:
        i = pos % (len(buf) + 1)
        if kind == 0 and i < len(buf):
            buf[i] = value
        elif kind == 1:
            buf.insert(i, value)
        elif kind == 2 and i < len(buf):
            del buf[i]
        elif kind == 3:
            del buf[i:]
        elif kind == 4:
            buf[i : i + 8] = SPECIALS[value % len(SPECIALS)]
    return bytes(buf)


EDIT = st.tuples(st.integers(0, 4), st.integers(0, 1 << 16), st.integers(0, 255))
EDITS = st.lists(EDIT, min_size=1, max_size=6)

READERS = {
    "protos": [read_container, load_prototypes],
    "model": [read_container, load_model],
    "csv": [load_csv],
    "config": [read_config_file, resolve_config],
}


def _only_focus_errors(path, data, readers):
    path.write_bytes(data)
    for read in readers:
        try:
            read(path)
        except FocusError:
            pass


@pytest.mark.parametrize("kind", sorted(READERS))
@FUZZ
@given(data=st.binary(max_size=512))
def test_arbitrary_bytes_raise_only_focus_errors(valid, kind, data):
    _only_focus_errors(valid[1], data, READERS[kind])


@pytest.mark.parametrize("kind", sorted(READERS))
@FUZZ
@given(edits=EDITS)
def test_mutated_valid_files_raise_only_focus_errors(valid, kind, edits):
    files, path = valid
    _only_focus_errors(path, _mutate(files[kind], edits), READERS[kind])


@pytest.mark.parametrize("kind", sorted(READERS))
def test_unmutated_files_load(valid, kind):
    files, path = valid
    path.write_bytes(files[kind])
    for read in READERS[kind]:
        read(path)


# cells either reader may refuse, or read otherwise than float() would
ODD_CELLS = ["NaN", "inf", "-Infinity", "1e400", "1e-400", "1_0", "\xa01.5\xa0", " 2 ",
             '"3"', '"4,5"', "", "\u0661\u0662", "0x10", "nan(1)", "+.5", "5.", "#6", "7\t"]
CELLS = st.one_of(
    st.floats(width=64).map(lambda v: f"{v:.17g}"),
    st.floats(width=64).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(ODD_CELLS),
)


@st.composite
def csv_files(draw, cells=CELLS, odd_layout=True):
    """A CSV as bytes: a header and rows of mostly the header's width. With
    odd_layout, maybe quoted names, no rows, CRLF or CR endings, blank lines
    or no last newline; without it, at least one row of the header's width."""
    names = ["a", "b", " c ", "d e"] + (['"f"', '"g,h"'] if odd_layout else [])
    names = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4))
    width = st.just(len(names))
    if odd_layout:
        width = st.one_of(width, width, width, st.integers(0, 5))
    rows = draw(st.lists(width.flatmap(lambda w: st.lists(cells, min_size=w, max_size=w)),
                         min_size=0 if odd_layout else 1, max_size=8))
    lines = [",".join(names)] + [",".join(r) for r in rows]
    end = "\n"
    if odd_layout:
        end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), "")
    text = end.join(lines)
    if not odd_layout or draw(st.booleans()):
        text += end
    return text.encode("utf-8")


def _outcome(read, path):
    try:
        ds = read(path)
    except ParseError as e:
        return str(e)
    return ds.entity_names, ds.values.shape, ds.values.tobytes()


@FUZZ
@given(text=csv_files(), edits=st.lists(EDIT, max_size=3))
def test_load_csv_equals_its_per_cell_reader(valid, text, edits):
    path = valid[1]
    path.write_bytes(_mutate(text, edits) if edits else text)
    assert _outcome(load_csv, path) == _outcome(data._load_per_cell, path)


@FUZZ
@given(text=csv_files(
    cells=st.floats(width=64, allow_nan=False, allow_infinity=False).flatmap(
        lambda v: st.sampled_from([f"{v:.17g}", repr(v)])),
    odd_layout=False,
))
def test_plain_csv_takes_the_loadtxt_path_bit_for_bit(valid, text):
    path = valid[1]
    path.write_bytes(text)
    names, values = data._load_plain(path)
    want = data._load_per_cell(path)
    assert names == want.entity_names
    assert values.shape == want.values.shape and values.tobytes() == want.values.tobytes()
