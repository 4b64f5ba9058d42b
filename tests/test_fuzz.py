"""Property tests of the input parsers: malformed input ends in ParameterError only.

Config text goes through ``parse_config_text`` and
``ExperimentConfig.from_mapping``, bytes through ``load_pgm`` and text
under the results header through ``read_csv``.  Generated numbers stay
realistic in size: ``Fraction("1e-999999999")`` alone would build a
10^9-digit integer, so free text carries no exponent letter.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lod2d.coefficient import load_pgm  # noqa: E402
from lod2d.errors import ParameterError  # noqa: E402
from lod2d.harness import (  # noqa: E402
    CONFIG_KEYS,
    CSV_HEADER,
    ExperimentConfig,
    parse_config_text,
    read_csv,
)
from lod2d.mesh import BoundarySpec, build_hierarchy  # noqa: E402

FUZZ = settings(derandomize=True, deadline=None, max_examples=300)

BASE = {
    "coarse_level": "2",
    "fine_level": "4",
    "coefficient": "field",
    "alpha": "1.0,0.25",
    "operators": "SZ,IH",
    "k": "1,2",
    "f": "const:1",
}

TOKENS = [
    "", "0", "1", "-1", "2", "7", "0.5", "1/4", "1/0", "inf", "-inf", "nan",
    "true", "off", "all", "left,top", "left,,top", "SZ", "SZ,SZ", "IH,AprojQM",
    "stripes", "balls", "field", "const:", "const:2", "const:inf", "const:nan",
    "const:-inf", "rect:0,0.5,0,0.5", "rect:0,1,0,inf", "rect:1,0,0,1",
    "hat:0.5,0.5", "hat:nan,0.5", "hat:0.5", "out/res.csv", "out/plot_",
]
NO_EXPONENT = st.text(alphabet="0123456789.,:-+/ abcdfghijklmnopqrstuvwxyz_#=", max_size=12)
NUMBER = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
VALUE = st.one_of(st.sampled_from(TOKENS), NUMBER, NO_EXPONENT)
KEY = st.sampled_from(sorted(CONFIG_KEYS) + ["mystery", "", "k k"])


@FUZZ
@given(
    st.dictionaries(KEY, VALUE, max_size=6),
    st.lists(NO_EXPONENT, max_size=2),
)
def test_config_parsers_raise_only_parameter_error(overrides, junk):
    lines = [f"{key} = {value}" for key, value in {**BASE, **overrides}.items()] + junk
    try:
        cfg = ExperimentConfig.from_mapping(parse_config_text("\n".join(lines)))
    except ParameterError:
        return
    if cfg.f.kind == "const":
        assert math.isfinite(cfg.f.value)
    for path in (cfg.csv, cfg.svg_prefix, cfg.cache_dir):
        assert path is None or path != ""


@pytest.fixture(scope="module")
def mesh12():
    return build_hierarchy(1, 2, BoundarySpec.all_edges())


PGM_HEADER = st.builds(
    "P5\n{} {}\n{}\n".format,
    st.sampled_from([4, 3, 0, -4, 400]),
    st.sampled_from([4, 5, -1]),
    st.sampled_from([255, 1, 65535, -3]),
).map(str.encode)


@FUZZ
@given(
    st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=64).map(lambda b: b"P5" + b),
        st.tuples(PGM_HEADER, st.binary(max_size=20)).map(b"".join),
    )
)
def test_load_pgm_raises_only_parameter_error(tmp_path_factory, mesh12, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    path.write_bytes(data)
    try:
        coef = load_pgm(mesh12, path, 0.5)
    except ParameterError:
        return
    assert len(coef.is_one) == mesh12.fine.num_elements


CSV_FIELD = st.one_of(
    st.sampled_from(["IH", "SZ", "0.5", "1", "-2", "nan", "inf", "", "ok", "failed", "1e-3"]),
    NO_EXPONENT,
)


@FUZZ
@given(
    st.lists(
        st.one_of(
            st.lists(CSV_FIELD, min_size=7, max_size=10).map(",".join),
            st.text(max_size=30),
        ),
        max_size=5,
    )
)
def test_read_csv_raises_only_parameter_error(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_text("\n".join([CSV_HEADER] + lines) + "\n", encoding="utf-8")
    try:
        rows = read_csv(path)
    except ParameterError:
        return
    assert all(isinstance(row.k, int) for row in rows)
