import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ohtlab import arrays, cli, detection, formats, moments, states, twomode
from ohtlab.errors import ConfigError, DataFormatError

DET = detection.DetectorModel(eta_q=0.9, sigma_e=50.0)


# the per-record writers and reader the bulk code replaced, kept as references
def _reference_write_quadrature_dataset(path, ds):
    with open(path, "w") as f:
        f.write(formats.dumps_canonical(formats._dataset_header(ds)) + "\n")
        if ds.zetas is not None:
            for th, ze, q in zip(ds.thetas, ds.zetas, ds.qs):
                f.write(formats.dumps_canonical({"theta": float(th), "zeta": float(ze),
                                                 "Q": float(q)}) + "\n")
        else:
            for th, q in zip(ds.thetas, ds.qs):
                f.write(formats.dumps_canonical({"theta": float(th), "q": float(q)}) + "\n")


def _reference_write_frame_lines(path, frames):
    with open(path, "w") as f:
        for th, row in zip(frames.thetas, frames.frames):
            f.write(formats.dumps_canonical({"theta": float(th), "d": [int(x) for x in row]})
                    + "\n")


def _check_frame_lines(d, thetas, counts):
    """write_array_frames writes the reference's body at every chunk size,
    from a count table no longer than the frame array."""
    frames = arrays.ArrayFrameSet(
        frames=np.array(counts, np.int64).reshape(len(counts), 3),
        thetas=np.array(thetas, float), vacuum_offsets=np.zeros(3),
        grid=arrays.PixelGrid(n_pixels=3, pixel_area=1 / 3), detector=DET,
        schedule=detection.PhaseSchedule("uniform_random"), seed=0)
    _reference_write_frame_lines(d / "ref.jsonl", frames)
    tables, real_count_table = [], formats._count_table

    def count_table(c):
        tables.append(real_count_table(c))
        return tables[-1]

    for write_chunk, _ in CHUNKS:
        with mock.patch.object(formats, "WRITE_CHUNK", write_chunk), \
                mock.patch.object(formats, "_count_table", count_table):
            formats.write_array_frames(d / "new.jsonl", frames)
        body = (d / "new.jsonl").read_bytes().split(b"\n", 1)[1]
        assert body == (d / "ref.jsonl").read_bytes()
    assert all(len(texts) <= frames.frames.size for texts, _ in tables)


def _reference_write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(f"{x!r}" for x in row) + "\n")


def _complex(re, im):
    # re + 1j * im would turn an infinite im into a NaN real part
    z = np.array(re, complex)
    z.imag = im
    return z


def _reference_read_fields(path, keys):
    with open(path) as f:
        f.readline()
        fields = [[] for _ in keys]
        for i, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                for values, key in zip(fields, keys):
                    values.append(rec[key])
            except (json.JSONDecodeError, KeyError) as exc:
                raise DataFormatError(f"{path}:{i}: bad record: {exc}") from exc
    return [np.array(values, float) for values in fields]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


#: any double, with the spellings and repr edge cases named explicitly
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e-7, 1e22, math.nan, math.inf, -math.inf]))
#: phases a single-mode dataset accepts: [0, 2π), and NaN, which its range check lets by
THETAS = st.one_of(st.floats(0.0, 2 * np.pi, exclude_max=True),
                   st.sampled_from([-0.0, 5e-324, 1e-7, math.nan]))
#: a few phases repeated many times, as schedules write them: both zeros,
#: the smallest subnormal, NaN and a NaN with another payload
REPEATED_PHASES = [0.0, -0.0, 5e-324, 1.5, math.nan,
                   float(np.frombuffer(np.uint64(0x7FF8000000000001).tobytes())[0])]
#: every DetectorModel field over its valid range
DETECTORS = st.builds(
    detection.DetectorModel,
    eta_q=st.floats(0.0, 1.0, exclude_min=True), eta_ls=st.floats(0.0, 1.0),
    lo_mean_photons=st.floats(0.0, 1e12), sigma_e=st.floats(0.0, 1e6),
    gain=st.floats(1e-6, 1e12), balance_imbalance=st.floats(-1.0, 1.0))


@st.composite
def _schedules(draw):
    """Every schedule kind; a grid with its own span, within [0, 2π), or the
    default; the other kinds take neither d nor span."""
    kind = draw(st.sampled_from(detection.PhaseSchedule.KINDS))
    if kind != "grid":
        return detection.PhaseSchedule(kind)
    d = draw(st.integers(1, 1024))
    if draw(st.booleans()):
        return detection.PhaseSchedule(kind, d=d)
    lo = draw(st.floats(0.0, np.pi))
    hi = draw(st.floats(lo, 2 * np.pi))
    try:
        return detection.PhaseSchedule(kind, d=d, span=(lo, hi))
    except ConfigError:
        assume(False)


#: the state specs make_state records as a dataset's source, and none
SOURCES = st.none() | st.builds(
    lambda kind, x, n: states.StateSpec(
        kind, n=n if kind == "fock" else None,
        alpha=complex(x, -x) if "coherent" in kind else None,
        nbar=abs(x) if kind == "thermal" else None,
        r=x if "squeezed" in kind else None,
        phi=x / 2 if "squeezed" in kind else 0.0).to_dict(),
    st.sampled_from(states.StateSpec.KINDS), st.floats(-2.0, 2.0), st.integers(0, 20))
DATASET_METAS = st.builds(detection.DatasetMeta, detector=DETECTORS, schedule=_schedules(),
                          seed=st.integers(0, 2**64), source=SOURCES)
#: JSON numbers the reader's fast path accepts, in spellings repr never
#: writes: E and unsigned exponents, overflow and underflow, more than 17
#: mantissa digits, halfway cases, -0.0 and subnormals, and any other text of
#: its number pattern
SPELLINGS = st.one_of(st.sampled_from([
    "1.5e5", "2E+3", "2E3", "-1.5E-5", "1e400", "-1e400", "1e-400", "-0.0", "-0e0", "0.0e-0",
    "4.9406564584124654e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
    "2.2250738585072011e-308", "1.7976931348623159e308",
    "0.1000000000000000055511151231257827021181583404541015625",
    "12345678901234567890.12345678901234567890", "9007199254740993.00000000000000000001",
]), st.from_regex(formats._FLOAT, fullmatch=True))
#: chunk sizes: the defaults, and small ones that put many chunk edges in a file
CHUNKS = [(formats.WRITE_CHUNK, formats.READ_CHUNK), (8, 40)]
HEADER = ('{"eta_ls":1.0,"eta_q":1.0,"format":"ohtlab-quad-v1","lo_mean_photons":1000000.0,'
          '"n_phases":1,"schedule":{"d":1,"kind":"grid"},"seed":0,"sigma_e":0.0}\n')


def _dataset(qs, thetas, zetas=None):
    meta = detection.DatasetMeta(detector=DET, schedule=detection.PhaseSchedule("grid", d=1),
                                 seed=0, extra={} if zetas is None else {"alpha": 0.5})
    return detection.QuadratureDataset(thetas=thetas, qs=qs, meta=meta, zetas=zetas)


@pytest.fixture(scope="module")
def small_dataset(coherent1):
    return detection.sample_quadratures(
        coherent1, detection.PhaseSchedule("grid", d=16), DET, 5_000, seed=901)


class TestQuadratureFiles:
    def test_round_trip(self, small_dataset, tmp_path):
        path = tmp_path / "ds.jsonl"
        formats.write_quadrature_dataset(path, small_dataset)
        back = formats.read_quadrature_dataset(path)
        assert np.array_equal(back.qs, small_dataset.qs)
        assert np.array_equal(back.thetas, small_dataset.thetas)
        assert back.meta.detector == small_dataset.meta.detector
        assert back.meta.schedule == small_dataset.meta.schedule
        assert back.meta.source == small_dataset.meta.source

    def test_dual_round_trip(self, thermal1, tmp_path):
        st_ = twomode.TwoModeState("planted", law=twomode.correlated_thermal_law(0.5, 0.3))
        rand = detection.PhaseSchedule("uniform_random")
        ds = twomode.combined_quadrature_samples(
            st_, np.pi / 4, DET, 2_000, seed=902,
            theta_schedule=rand, zeta_schedule=rand)
        path = tmp_path / "dual.jsonl"
        formats.write_quadrature_dataset(path, ds)
        back = formats.read_quadrature_dataset(path)
        assert isinstance(back, detection.QuadratureDataset)
        assert np.array_equal(back.qs, ds.qs)
        assert np.array_equal(back.zetas, ds.zetas)
        assert back.meta.extra["alpha"] == ds.meta.extra["alpha"]

    def test_dual_record_moments_are_its_single_mode_moments(self, tmp_path):
        # moments read a dual record read back from file as they read the
        # single-mode record of its θ and Q, bit for bit
        st_ = twomode.TwoModeState("planted", law=twomode.correlated_thermal_law(1.0, 0.5))
        rand = detection.PhaseSchedule("uniform_random")
        ds = twomode.combined_quadrature_samples(st_, 0.0, DET, 5_000, seed=907,
                                                 theta_schedule=rand, zeta_schedule=rand)
        path = tmp_path / "dual.jsonl"
        formats.write_quadrature_dataset(path, ds)
        single = detection.QuadratureDataset(
            thetas=ds.thetas, qs=ds.qs,
            meta=detection.DatasetMeta(detector=DET, schedule=rand, seed=907))
        reports = [moments.moment_report(r).to_dict()
                   for r in (formats.read_quadrature_dataset(path), single)]
        assert reports[0]["g2"] is not None
        assert formats.dumps_canonical(reports[0]) == formats.dumps_canonical(reports[1])

    def test_fixed_phase_dual_round_trip(self, tmp_path):
        # fixed LO phases are one-phase grids, and the header records them
        st_ = twomode.TwoModeState("planted", law=twomode.correlated_thermal_law(0.5, 0.3))
        theta, zeta = (detection.PhaseSchedule("grid", d=1, span=(p, p + 0.1))
                       for p in (0.3, 1.0))
        ds = twomode.combined_quadrature_samples(st_, 0.0, DET, 500, seed=906,
                                                 theta_schedule=theta, zeta_schedule=zeta)
        path = tmp_path / "fixed.jsonl"
        formats.write_quadrature_dataset(path, ds)
        header = json.loads(path.read_text().split("\n", 1)[0])
        assert header["schedule"] == {"kind": "grid", "d": 1, "span": list(theta.span)}
        assert header["zeta_schedule"] == {"kind": "grid", "d": 1, "span": list(zeta.span)}
        back = formats.read_quadrature_dataset(path)
        assert back.meta.schedule == theta
        assert back.meta.extra["zeta_schedule"] == zeta.to_dict()
        assert np.array_equal(back.thetas, np.full(500, 0.3))
        assert np.array_equal(back.zetas, np.full(500, 1.0))
        assert np.array_equal(back.qs, ds.qs)

    @given(meta=DATASET_METAS, dual=st.booleans(), alpha=st.floats(-4.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_keeps_every_meta_field(self, tmp_path_factory, meta, dual, alpha):
        path = tmp_path_factory.mktemp("meta") / "ds.jsonl"
        thetas, qs = np.array([0.0, 1.0]), np.array([0.5, -0.5])
        if dual:
            meta.extra = {"alpha": alpha, "zeta_schedule": meta.schedule.to_dict()}
        ds = detection.QuadratureDataset(thetas=thetas, qs=qs, meta=meta,
                                         zetas=thetas if dual else None)
        formats.write_quadrature_dataset(path, ds)
        assert formats.read_quadrature_dataset(path).meta == meta

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format":"somebody-elses-v9"}\n{"theta":0,"q":1}\n')
        with pytest.raises(DataFormatError):
            formats.read_quadrature_dataset(path)

    def test_truncated_record_rejected(self, small_dataset, tmp_path):
        path = tmp_path / "trunc.jsonl"
        formats.write_quadrature_dataset(path, small_dataset)
        text = path.read_text()
        path.write_text(text[: len(text) - 7])
        with pytest.raises(DataFormatError):
            formats.read_quadrature_dataset(path)

    @given(st.lists(st.floats(-1e12, 1e12, allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_float_round_trip_exact(self, tmp_path_factory, values):
        # repr-based JSON serialization preserves doubles bit for bit
        path = tmp_path_factory.mktemp("rt") / "ds.jsonl"
        qs = np.array(values)
        ds = detection.QuadratureDataset(
            thetas=np.zeros(qs.size), qs=qs,
            meta=detection.DatasetMeta(detector=DET,
                                       schedule=detection.PhaseSchedule("grid", d=1),
                                       seed=0))
        formats.write_quadrature_dataset(path, ds)
        back = formats.read_quadrature_dataset(path)
        assert np.array_equal(back.qs, qs)

    @given(st.lists(st.tuples(FLOATS, THETAS, FLOATS), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_bulk_io_matches_per_record_reference(self, tmp_path_factory, rows):
        d = tmp_path_factory.mktemp("bulk")
        qs, thetas, zetas = (list(c) for c in zip(*rows)) if rows else ([], [], [])
        for ds, keys in ((_dataset(qs, thetas), ("q", "theta")),
                         (_dataset(qs, thetas, zetas), ("Q", "theta", "zeta"))):
            _reference_write_quadrature_dataset(d / "ref.jsonl", ds)
            expected = _reference_read_fields(d / "ref.jsonl", keys)
            for write_chunk, read_chunk in CHUNKS:
                with mock.patch.object(formats, "WRITE_CHUNK", write_chunk), \
                        mock.patch.object(formats, "READ_CHUNK", read_chunk):
                    formats.write_quadrature_dataset(d / "new.jsonl", ds)
                    back = formats.read_quadrature_dataset(d / "new.jsonl")
                assert (d / "new.jsonl").read_bytes() == (d / "ref.jsonl").read_bytes()
                got = [back.qs, back.thetas] + ([back.zetas] if len(keys) == 3 else [])
                assert all(_same_bits(g, e) for g, e in zip(got, expected))

    @given(st.lists(st.tuples(FLOATS, st.sampled_from(REPEATED_PHASES),
                              st.sampled_from(REPEATED_PHASES)), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_repeated_phases_match_per_record_reference(self, tmp_path_factory, rows):
        # phase columns are formatted once per distinct bit pattern
        d = tmp_path_factory.mktemp("phases")
        qs, thetas, zetas = (list(c) for c in zip(*rows)) if rows else ([], [], [])
        for ds in (_dataset(qs, thetas), _dataset(qs, thetas, zetas)):
            _reference_write_quadrature_dataset(d / "ref.jsonl", ds)
            for write_chunk, _ in CHUNKS:
                with mock.patch.object(formats, "WRITE_CHUNK", write_chunk):
                    formats.write_quadrature_dataset(d / "new.jsonl", ds)
                assert (d / "new.jsonl").read_bytes() == (d / "ref.jsonl").read_bytes()

    @given(st.lists(st.tuples(FLOATS, st.lists(st.integers(-2**63, 2**63 - 1),
                                              min_size=3, max_size=3)), max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_frame_lines_match_per_record_reference(self, tmp_path_factory, rows):
        _check_frame_lines(tmp_path_factory.mktemp("frames"),
                           [t for t, _ in rows], [r for _, r in rows])

    @given(st.data(), st.integers(0, 12), st.sampled_from(["small", "int64"]))
    @settings(max_examples=60, deadline=None)
    def test_frame_count_spans_match_per_record_reference(self, tmp_path_factory, data,
                                                          n_rows, span):
        # small spans take the table by offset from the minimum, spans over
        # all of int64 the table of distinct counts; both at every chunk size
        if span == "small":
            lo = data.draw(st.integers(-2**63, 2**63 - 1 - 3 * n_rows))
            counts = st.integers(lo, lo + 3 * n_rows)
        else:
            counts = st.one_of(st.integers(-2**63, 2**63 - 1),
                               st.sampled_from([-2**63, -1, 0, 1, 2**63 - 1]))
        rows = data.draw(st.lists(st.lists(counts, min_size=3, max_size=3),
                                  min_size=n_rows, max_size=n_rows))
        _check_frame_lines(tmp_path_factory.mktemp("spans"), [0.5] * n_rows, rows)

    def test_wide_two_row_frame_builds_no_span_sized_table(self, tmp_path):
        counts = [[0, 2**62, 0], [2**62, 0, 2**62]]

        def short_range(*args):
            # a table of every value in the span would take 2**62 entries
            assert len(range(*args)) <= 6, "a range as long as the count span"
            return range(*args)

        with mock.patch.object(formats, "range", short_range, create=True):
            _check_frame_lines(tmp_path, [0.25, 1.0], counts)

    def test_written_file_skips_the_line_parser(self, small_dataset, tmp_path):
        path = tmp_path / "ds.jsonl"
        formats.write_quadrature_dataset(path, small_dataset)
        with mock.patch.object(formats, "_parse_lines", side_effect=AssertionError):
            back = formats.read_quadrature_dataset(path)
        assert _same_bits(back.qs, small_dataset.qs)

    @given(st.lists(st.tuples(SPELLINGS, SPELLINGS, SPELLINGS), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_fast_path_reads_spellings_repr_never_writes(self, tmp_path_factory, rows):
        # canonical lines a hand or another writer may produce: the fast path
        # parses them, and each value is the one json.loads gives, bit for bit
        path = tmp_path_factory.mktemp("spellings") / "ds.jsonl"
        for template, keys in (formats._SINGLE_RECORD, formats._DUAL_RECORD):
            path.write_text(HEADER + "".join(template % row[:len(keys)] for row in rows))
            expected = _reference_read_fields(path, keys)
            for read_chunk in (formats.READ_CHUNK, 40):
                with open(path) as f, mock.patch.object(formats, "READ_CHUNK", read_chunk), \
                        mock.patch.object(formats, "_parse_lines", side_effect=AssertionError):
                    f.readline()
                    got = formats._read_records(f, path, (template, keys))
                assert all(_same_bits(g, e) for g, e in zip(got, expected))

    @pytest.mark.parametrize("read_chunk", [formats.READ_CHUNK, 40])
    def test_hand_written_lines_load_through_fallback(self, tmp_path, read_chunk):
        body = ('{"q":0.5,"theta":0.25}\n'
                '{ "theta" : 1.5 , "q" : -2.0 }\n'
                '{"theta":0.125,"q":3.0,"note":"hand"}\n'
                '\n'
                '{"q":2,"theta":0}\n'
                '   \n'
                '{"q":NaN,"theta":1e-3}\n'
                '{"q":1E+2,"theta":0.75}\r\n'
                '{"q":-0.0,"theta":0.5}')
        path = tmp_path / "hand.jsonl"
        path.write_text(HEADER + body)
        with mock.patch.object(formats, "READ_CHUNK", read_chunk):
            back = formats.read_quadrature_dataset(path)
        qs, thetas = _reference_read_fields(path, ("q", "theta"))
        assert _same_bits(back.qs, qs) and _same_bits(back.thetas, thetas)
        assert back.qs.size == 7

    @pytest.mark.parametrize("bad", [
        '{"theta":0.5}', '{"q":1.0,"theta":}', 'not json', '{"q":01.5,"theta":0.5}',
        '{"q":1.5,"theta":0.5', '{"q":1.\u0665,"theta":0.5}', '{"q":+1.5,"theta":0.5}',
        '{"q":"1.5","theta":0.5}', '{"q":true,"theta":0.5}', '[0.5,0.25]',
    ])
    @pytest.mark.parametrize("read_chunk", [formats.READ_CHUNK, 40])
    def test_bad_record_reports_its_line(self, tmp_path, bad, read_chunk):
        lines = ['{"q":0.5,"theta":0.25}'] * 5
        lines[3] = bad
        path = tmp_path / "bad.jsonl"
        path.write_text(HEADER + "\n".join(lines) + "\n")
        with mock.patch.object(formats, "READ_CHUNK", read_chunk):
            with pytest.raises(DataFormatError, match="bad.jsonl:5: bad record"):
                formats.read_quadrature_dataset(path)

    def test_header_keeps_every_detector_field(self, coherent1, tmp_path):
        det = detection.DetectorModel(eta_q=0.9, eta_ls=0.95, lo_mean_photons=2e6,
                                      sigma_e=30.0, gain=3e5, balance_imbalance=0.001)
        ds = detection.sample_quadratures(
            coherent1, detection.PhaseSchedule("grid", d=8), det, 200, seed=905)
        path = tmp_path / "ds.jsonl"
        formats.write_quadrature_dataset(path, ds)
        assert formats.read_quadrature_dataset(path).meta.detector == det

    def test_header_without_gain_and_imbalance_reads_defaults(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(HEADER + '{"q":0.5,"theta":0.0}\n')
        det = formats.read_quadrature_dataset(path).meta.detector
        assert det == detection.DetectorModel()


def _first_counts(counts):
    """An edit of a frames file that sets the first record's counts."""
    return lambda head, recs: (head, [{**recs[0], "d": counts(recs[0]["d"])}, *recs[1:]])


#: edits of a 4-pixel frames file that no header fits: (header, records) -> both
FRAME_EDITS = {
    "rows_shorter_than_n_pixels": lambda head, recs: (
        head, [{**rec, "d": rec["d"][:3]} for rec in recs]),
    "ragged_rows": _first_counts(lambda d: d[:3]),
    "row_longer_than_n_pixels": _first_counts(lambda d: d + [1]),
    "fractional_count": _first_counts(lambda d: [1.5, *d[1:]]),
    "count_true": _first_counts(lambda d: [True, *d[1:]]),
    "count_with_fraction_zero": _first_counts(lambda d: [2.0, *d[1:]]),
    "count_string": _first_counts(lambda d: ["3", *d[1:]]),
    "count_beyond_int64": _first_counts(lambda d: [2**63, *d[1:]]),
    "counts_not_an_array": _first_counts(lambda d: 7),
    "offsets_shorter_than_n_pixels": lambda head, recs: (
        {**head, "vacuum_offsets": head["vacuum_offsets"][:3]}, recs),
    "offsets_longer_than_n_pixels": lambda head, recs: (
        {**head, "vacuum_offsets": head["vacuum_offsets"] + [0.0]}, recs),
    "no_counts": lambda head, recs: (head, [{"theta": recs[0]["theta"]}, *recs[1:]]),
    "theta_string": lambda head, recs: (head, [{**recs[0], "theta": "0.5"}, *recs[1:]]),
}


class TestOtherArtifacts:
    def test_density_matrix_round_trip(self, squeezed05, tmp_path):
        err = np.full((squeezed05.dim, squeezed05.dim), 0.01)
        path = tmp_path / "rho.json"
        formats.write_density_matrix(path, squeezed05, errors=err)
        rho, err_back = formats.read_density_matrix(path)
        assert np.allclose(rho.elements, squeezed05.elements)
        assert np.allclose(err_back, err)

    def test_wigner_csv_round_trip(self, fock1, tmp_path):
        w = states.wigner_from_rho(fock1, np.linspace(-3, 3, 21), np.linspace(-3, 3, 21))
        path = tmp_path / "w.csv"
        formats.write_wigner_csv(path, w)
        raw = np.genfromtxt(path, delimiter=",", names=True)
        assert raw.dtype.names == ("q", "p", "w")
        assert np.array_equal(raw["q"], np.repeat(w.q_axis, w.p_axis.size))
        assert np.array_equal(raw["p"], np.tile(w.p_axis, w.q_axis.size))
        assert np.array_equal(raw["w"], w.values.ravel())

    def test_array_frames_round_trip(self, tmp_path):
        grid = arrays.PixelGrid(n_pixels=8, pixel_area=1 / 8)
        det = detection.DetectorModel(lo_mean_photons=1e5)
        fs = arrays.simulate_array_frames([], det, grid,
                                          detection.PhaseSchedule("uniform_random"),
                                          50, seed=903)
        path = tmp_path / "frames.jsonl"
        formats.write_array_frames(path, fs)
        back = formats.read_array_frames(path)
        assert np.array_equal(back.frames, fs.frames)
        assert np.allclose(back.vacuum_offsets, fs.vacuum_offsets)

    def test_array_frames_header_follows_config_rules(self, tmp_path, capsys):
        grid = arrays.PixelGrid(n_pixels=4, pixel_area=1 / 4)
        det = detection.DetectorModel(lo_mean_photons=1e5)
        fs = arrays.simulate_array_frames([], det, grid,
                                          detection.PhaseSchedule("uniform_random"),
                                          10, seed=904)
        path = tmp_path / "frames.jsonl"
        formats.write_array_frames(path, fs)
        head, body = path.read_text().split("\n", 1)
        path.write_text(json.dumps({**json.loads(head), "eta_q": True}) + "\n" + body)
        assert cli.main(["validate", "--input", str(path)]) == 3
        assert "at eta_q: expected a finite number, got true" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", FRAME_EDITS.values(), ids=FRAME_EDITS.keys())
    def test_array_frames_refuse_records_that_miss_the_header(self, tmp_path, capsys, edit):
        fs = arrays.simulate_array_frames([], detection.DetectorModel(lo_mean_photons=1e5),
                                          arrays.PixelGrid(n_pixels=4, pixel_area=1 / 4),
                                          detection.PhaseSchedule("uniform_random"), 5,
                                          seed=906)
        path = tmp_path / "frames.jsonl"
        formats.write_array_frames(path, fs)
        head, *lines = path.read_text().splitlines()
        head, records = edit(json.loads(head), [json.loads(line) for line in lines])
        path.write_text("".join(json.dumps(doc) + "\n" for doc in [head, *records]))
        with pytest.raises(DataFormatError):
            formats.read_array_frames(path)
        assert cli.main(["validate", "--input", str(path)]) == 3
        assert "data error" in capsys.readouterr().err

    @given(st.lists(st.tuples(FLOATS, FLOATS, FLOATS), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_csv_lines_match_per_row_reference(self, tmp_path_factory, rows):
        d = tmp_path_factory.mktemp("csv")
        a, b, c = (np.array(col, float) for col in zip(*rows)) if rows else [np.empty(0)] * 3
        grid = c[:len(c) // 2 * 2].reshape(-1, 2)
        wigner = states.WignerGrid(q_axis=a[:len(grid)], p_axis=np.array([0.5, -1.0]),
                                   values=grid)
        cases = [
            (formats.write_pn_csv, (a, b), "n,p,stderr",
             [(n, float(x), float(y)) for n, (x, y) in enumerate(zip(a, b))]),
            (formats.write_signal_csv, (a, _complex(b, c)), "t,re,im",
             [(float(x), float(y), float(z)) for x, y, z in zip(a, b, c)]),
            (formats.write_wigner_csv, (wigner,), "q,p,w",
             [(float(x), t, float(grid[i, j])) for i, x in enumerate(a[:len(grid)])
              for j, t in enumerate((0.5, -1.0))]),
        ]
        for write_chunk, _ in CHUNKS:
            with mock.patch.object(formats, "WRITE_CHUNK", write_chunk):
                for write, args, header, ref_rows in cases:
                    write(d / "new.csv", *args)
                    _reference_write_csv(d / "ref.csv", header, ref_rows)
                    assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()


def run_cli(*argv):
    return cli.main(list(argv))


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


#: one config per command, small enough to run in a few tens of milliseconds,
#: holding every field its command reads (but twomode's source/corr, which
#: only a correlated_thermal source reads); twomode's 2,000 samples resolve
#: the 0.5-photon mode from vacuum at the 5 standard errors its g² needs
DETECTOR = {"eta_q": 0.9, "eta_ls": 1.0, "lo_mean_photons": 1e6, "sigma_e": 10.0,
            "gain": 1e6, "balance_imbalance": 0.0}
CONFIGS = {
    "simulate": {"state": {"kind": "squeezed_coherent", "alpha": [1.0, 0.5], "r": 0.3,
                           "phi": 0.2, "truncation_dim": 24},
                 "detector": DETECTOR, "schedule": {"kind": "grid", "d": 4, "span": [0.0, 3.0]},
                 "n_samples": 200, "seed": 1, "outputs": {"dir": "unused"}},
    "twomode": {"source": {"kind": "independent_poisson", "nbar": 1.0, "nbar2": 0.5},
                "detector": DETECTOR, "n_samples": 2_000, "seed": 1, "outputs": {"dir": "unused"}},
    "array": {"detector": DETECTOR, "n_pixels": 4, "pixel_area": 0.25,
              "schedule": {"kind": "uniform_random"}, "n_pulses": 60, "seed": 1,
              "modes": [{"shape": "ramp", "state": {"kind": "coherent", "alpha": 1.0}},
                        {"shape": [1.0, 0.0, 0.0, 0.0], "state": {"kind": "vacuum"}}],
              "outputs": {"dir": "unused"}},
    "sample": {"signal": {"nu": 12.0, "bandwidth": 2.0, "band_fill": 0.9, "span": 160.0,
                          "points": 16384, "chirp": 8.0},
               "tau_span": 32.0, "tau_step_grid_units": 64, "outputs": {"dir": "unused"}},
    "calibrate": {"detector": DETECTOR, "lo_levels": [1e5, 3e5, 6e5], "pulses_per_level": 200,
                  "seed": 1, "outputs": {"dir": "unused"}},
}
#: marks a key to delete, and a value written as the JSON literal 1e400
DELETE, BIG = object(), "<1e400>"
#: the values a one-field mutation sets
MUTATIONS = [None, True, "x", [], {}, 2.0, 0, -1, 1.5, BIG, math.nan, [1.0], [1.0, "a"], DELETE]


def _paths(doc, prefix=()):
    """Every key and index path into a config document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutated(doc, path, value) -> str:
    """The JSON text of doc with the value at path set (or deleted)."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc).replace(json.dumps(BIG), "1e400")


def _keys(path: str) -> tuple:
    return tuple(int(k) if k.isdigit() else k for k in path.split("/"))


def _run_text(workdir, command, text):
    """Exit code, stderr and output directory of command on a config text."""
    (workdir / "cfg.json").write_text(text)
    out, err = workdir / "out", io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(workdir / "cfg.json"), "--out", str(out)])
    return code, err.getvalue(), out


#: one-field mutations of CONFIGS with the reader's message for each
MUTATION_REFUSALS = [
    ("simulate", "state/kind", 5, "at state/kind: expected a string, got 5"),
    ("simulate", "state/truncation_dim", 24.0,
     "at state/truncation_dim: expected an integer, got 24.0"),
    ("simulate", "schedule/d", 4.0, "at schedule/d: expected an integer, got 4.0"),
    ("simulate", "seed", 2.0, "at seed: expected an integer, got 2.0"),
    ("simulate", "n_samples", True, "at n_samples: expected an integer, got true"),
    ("simulate", "detector/eta_q", True,
     "at detector/eta_q: expected a finite number, got true"),
    ("simulate", "detector/lo_mean_photons", BIG,
     "at detector/lo_mean_photons: expected a finite number, got Infinity"),
    ("simulate", "detector/sigma_e", math.nan,
     "at detector/sigma_e: expected a finite number, got NaN"),
    ("simulate", "state/alpha", [1.0, "a"],
     'at state/alpha/1: expected a finite number, got "a"'),
    ("simulate", "schedule/span", [1.0],
     "at schedule/span: expected an array of 2 values, got [1.0]"),
    ("simulate", "state", None, "at state: expected an object, got null"),
    ("simulate", "outputs/dir", 3, "at outputs/dir: expected a string, got 3"),
    ("simulate", "detector/surprise", 1, "at detector/surprise: unknown key"),
    ("simulate", "n_samples", DELETE, "at n_samples: missing required key"),
    ("simulate", "schedule/kind", DELETE, "at schedule/kind: missing required key"),
    ("twomode", "source/nbar", BIG, "at source/nbar: expected a finite number, got Infinity"),
    ("twomode", "source/corr", None, "at source/corr: expected a finite number, got null"),
    ("twomode", "n_samples", 2.0, "at n_samples: expected an integer, got 2.0"),
    ("twomode", "source/kind", DELETE, "at source/kind: missing required key"),
    ("twomode", "source/surprise", 1, "at source/surprise: unknown key"),
    ("array", "n_pixels", 4.0, "at n_pixels: expected an integer, got 4.0"),
    ("array", "pixel_area", True, "at pixel_area: expected a finite number, got true"),
    ("array", "modes", {}, "at modes: expected an array, got {}"),
    ("array", "modes/1/shape/0", math.nan,
     "at modes/1/shape/0: expected a finite number, got NaN"),
    ("array", "modes/0/state/alpha", [1.0],
     "at modes/0/state/alpha: expected an array of 2 values, got [1.0]"),
    ("array", "modes/0/state", DELETE, "at modes/0/state: missing required key"),
    ("sample", "signal/points", 16384.0, "at signal/points: expected an integer, got 16384.0"),
    ("sample", "tau_step_grid_units", 2.0,
     "at tau_step_grid_units: expected an integer, got 2.0"),
    ("sample", "signal/bandwidth", BIG,
     "at signal/bandwidth: expected a finite number, got Infinity"),
    ("sample", "tau_span", math.nan, "at tau_span: expected a finite number, got NaN"),
    ("sample", "signal/seed", True, "at signal/seed: unknown key"),
    ("sample", "signal/bandwidth", DELETE, "at signal/bandwidth: missing required key"),
    ("sample", "signal/surprise", 1, "at signal/surprise: unknown key"),
    ("calibrate", "lo_levels/0", True, "at lo_levels/0: expected a finite number, got true"),
    ("calibrate", "lo_levels/1", BIG,
     "at lo_levels/1: expected a finite number, got Infinity"),
    ("calibrate", "pulses_per_level", 200.0,
     "at pulses_per_level: expected an integer, got 200.0"),
    ("calibrate", "detector/gain", math.nan,
     "at detector/gain: expected a finite number, got NaN"),
    ("calibrate", "seed", None, "at seed: expected an integer, got null"),
    ("calibrate", "lo_levels", DELETE, "at lo_levels: missing required key"),
    ("calibrate", "surprise", 1, "at surprise: unknown key"),
]
#: one-field mutations that crashed with a traceback (exit 1), wrote NaN or
#: Infinity into artifacts, or ran as if a float were an integer (exit 0)
OLD_FAILURES = [
    # values that crashed with a traceback (exit 1)
    ("sample", "tau_step_grid_units", 0),
    ("sample", "signal/bandwidth", 1.5),      # sinc gate overruns the time grid
    ("sample", "signal/span", 1.5),
    ("sample", "signal/band_fill", 2.0),      # content outside the band
    ("sample", "tau_span", 0),                # no delay to sample
    ("simulate", "schedule/span", [-1, 1]),   # grid phases below 0
    ("simulate", "n_samples", 2.0),
    ("twomode", "source/nbar", BIG),
    ("array", "pixel_area", BIG),
    ("calibrate", "detector/balance_imbalance", 1.5),   # a negative diode rate
    ("calibrate", "detector/gain", BIG),
    ("calibrate", "lo_levels", [1e5, 3e5, 1e300]),     # beyond numpy's Poisson draw
    ("array", "detector/lo_mean_photons", 1e300),
    # values that wrote NaN or Infinity into artifacts (exit 0)
    ("sample", "signal/band_fill", -1),
    ("sample", "signal/chirp", BIG),
    ("simulate", "detector/lo_mean_photons", BIG),
    # values that ran as if they were integers (exit 0)
    ("simulate", "schedule/d", 4.0),
    ("simulate", "seed", 2.0),
]


def _case_id(command, path, value) -> str:
    label = ("delete" if value is DELETE else "1e400" if value is BIG
             else json.dumps(value, separators=(",", ":")))
    return f"{command}-{path}-{label}"


class TestConfigReader:
    @pytest.mark.parametrize("command, doc, message", [
        ("simulate", {"state": {"kind": "vacuum"}, "schedule": {"kind": "grid"},
                      "n_samples": 10, "seed": 1, "surprise": True}, "at surprise: unknown key"),
        ("simulate", {"state": {"kind": "nope"}, "schedule": {"kind": "grid"},
                      "n_samples": 10, "seed": 1}, "at state: unknown state kind 'nope'"),
        ("simulate", {"state": {"kind": "coherent", "alpha": [1.0]},
                      "schedule": {"kind": "grid"}, "n_samples": 0},
         "at seed: missing required key"),
        ("twomode", {"source": {"kind": "hbt_split"}, "n_samples": 10, "seed": 1},
         "at source/nbar: missing required key"),
        ("array", {"n_pulses": 10, "seed": 1.5,
                   "modes": [{"shape": "wave", "state": {"kind": "vacuum"}}]},
         "at seed: expected an integer, got 1.5"),
        ("sample", {"signal": {"nu": "12", "bandwidth": -1}},
         'at signal/nu: expected a finite number, got "12"'),
        ("calibrate", {"lo_levels": [1e5], "pulses_per_level": 1},
         "at seed: missing required key"),
        ("calibrate", [], "at <root>: expected an object, got []"),
        ("simulate", {"state": {"kind": "vacuum"}, "n_samples": 10, "seed": 1,
                      "schedule": {"kind": "uniform_random", "span": [0, 1], "d": 7}},
         "at schedule: a uniform_random schedule takes neither d nor span"),
        ("simulate", {"state": {"kind": "coherent", "alpha": 1, "r": 0.7},
                      "schedule": {"kind": "grid", "d": 4}, "n_samples": 10, "seed": 1},
         "at state: a coherent state takes no r"),
        ("array", {"n_pulses": 10, "seed": 1, "detector": {"eta_ls": 0.5}},
         "at <root>: this command does not read detector/eta_ls; leave it out"),
        ("calibrate", {"lo_levels": [1e5, 3e5, 6e5], "pulses_per_level": 10, "seed": 1,
                       "detector": {"lo_mean_photons": 2e6}},
         "at <root>: this command does not read detector/lo_mean_photons; leave it out"),
        ("sample", {"signal": {"nu": 12.0, "bandwidth": 2.0}, "seed": 1},
         "at seed: unknown key"),
        ("simulate", {"state": {"kind": "vacuum"}, "schedule": {"kind": "grid", "d": 4},
                      "n_samples": 10, "seed": 1, "detector": {"gain": 2e6}},
         "at <root>: this command does not read detector/gain; leave it out"),
        ("twomode", {"source": {"kind": "hbt_split", "nbar": 1.0}, "n_samples": 10, "seed": 1,
                     "detector": {"gain": 2e6}},
         "at <root>: this command does not read detector/gain; leave it out"),
    ], ids=["simulate-unknown-key", "simulate-unknown-kind", "simulate-missing-seed",
            "twomode-missing-nbar", "array-float-seed", "sample-string-nu",
            "calibrate-missing-seed", "calibrate-non-object", "simulate-random-schedule-span",
            "simulate-coherent-state-with-r", "array-unread-eta_ls",
            "calibrate-unread-lo_mean_photons", "sample-seed", "simulate-unread-gain",
            "twomode-unread-gain"])
    def test_refused_documents(self, tmp_path, command, doc, message):
        # the documents the JSON schemas were checked on, refused by the reader
        code, err, out = _run_text(tmp_path, command, json.dumps(doc))
        assert (code, err) == (2, f"config error: {tmp_path / 'cfg.json'}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, path, value, message", MUTATION_REFUSALS,
                             ids=[_case_id(*case[:3]) for case in MUTATION_REFUSALS])
    def test_one_field_mutation_exit_2(self, tmp_path, command, path, value, message):
        code, err, out = _run_text(tmp_path, command,
                                   _mutated(CONFIGS[command], _keys(path), value))
        assert (code, err) == (2, f"config error: {tmp_path / 'cfg.json'}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    @pytest.mark.parametrize("bad, message", [("byte", "line 2: byte 0xff is not utf-8 text"),
                                              ("directory", "Is a directory")])
    def test_unreadable_config_exit_2(self, tmp_path, command, bad, message):
        # a config that is no file, or whose bytes are no text, is a config
        # error, not a traceback
        cfg = tmp_path / "cfg.json"
        if bad == "byte":
            cfg.write_bytes(json.dumps(CONFIGS[command], indent=1).encode().replace(
                b"\n", b"\n\xff", 1))
        else:
            cfg.mkdir()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert (code, err.getvalue()) == (2, f"config error: {cfg}: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_non_object_document_exit_2(self, tmp_path, command):
        code, err, out = _run_text(tmp_path, command, json.dumps([CONFIGS[command]]))
        assert code == 2 and "at <root>: expected an object, got [{" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, path, value", OLD_FAILURES,
                             ids=[_case_id(*case) for case in OLD_FAILURES])
    def test_old_failures_exit_2(self, tmp_path, command, path, value):
        code, err, out = _run_text(tmp_path, command,
                                   _mutated(CONFIGS[command], _keys(path), value))
        assert code == 2 and err.startswith("config error: ")
        assert not out.exists()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_one_field_mutation_exits_with_a_documented_code(self, tmp_path_factory, data):
        # never 1 (a traceback); a refused run writes nothing, and a run
        # that succeeds writes only finite numbers
        command = data.draw(st.sampled_from(sorted(CONFIGS)))
        path = data.draw(st.sampled_from(list(_paths(CONFIGS[command]))))
        value = data.draw(st.sampled_from(MUTATIONS))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, err, out = _run_text(tmp_path_factory.mktemp("mut"), command,
                                       _mutated(CONFIGS[command], path, value))
        assert code in (0, 2, 3, 4), err
        if code:
            assert not out.exists()
        else:
            assert not any(b"NaN" in f.read_bytes() or b"Infinity" in f.read_bytes()
                           for f in out.iterdir())

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_base_configs_run(self, tmp_path, command):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, err, _ = _run_text(tmp_path, command, json.dumps(CONFIGS[command]))
        assert code == 0, err

    def test_numbers_are_kept_as_given(self):
        # an int stays an int, so a dataset header writes it back unchanged
        det = detection.DetectorModel.from_dict({"lo_mean_photons": 1000000, "eta_q": 0.5})
        assert type(det.lo_mean_photons) is int and det.to_dict()["lo_mean_photons"] == 1000000
        spec = states.StateSpec.from_dict({"kind": "coherent", "alpha": 2})
        assert type(spec.alpha) is int
        assert states.StateSpec.from_dict(spec.to_dict()).alpha == 2 + 0j
        sched = detection.PhaseSchedule.from_dict({"kind": "grid", "d": 3, "span": [0, 3]})
        assert sched.span == (0, 3) and sched.to_dict()["span"] == [0, 3]


class TestCli:
    def test_simulate_reconstruct_moments_pipeline(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", {
            "state": {"kind": "coherent", "alpha": 1.0},
            "schedule": {"kind": "grid", "d": 16},
            "n_samples": 40_000,
            "seed": 5,
            "outputs": {"dir": str(tmp_path / "out")},
        })
        assert run_cli("simulate", "--config", cfg) == 0
        ds_file = str(tmp_path / "out" / "dataset.jsonl")
        assert run_cli("reconstruct", "--input", ds_file, "--method", "both",
                       "--dim", "6", "--out", str(tmp_path / "out")) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["pattern"]["populations"][1] == pytest.approx(np.exp(-1), abs=0.05)
        assert (tmp_path / "out" / "wigner.csv").exists()
        assert (tmp_path / "out" / "rho.json").exists()
        assert run_cli("moments", "--input", ds_file, "--out", str(tmp_path / "out"),
                       "--format", "csv") == 0
        mom = json.loads((tmp_path / "out" / "moments.json").read_text())
        assert mom["mean_n"] == pytest.approx(1.0, abs=0.05)

    def test_simulate_byte_identical_rerun(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", {
            "state": {"kind": "vacuum"},
            "schedule": {"kind": "uniform_random"},
            "n_samples": 5_000,
            "seed": 11,
            "outputs": {"dir": str(tmp_path / "a")},
        })
        assert run_cli("simulate", "--config", cfg) == 0
        first = formats.sha256_file(tmp_path / "a" / "dataset.jsonl")
        (tmp_path / "a" / "dataset.jsonl").unlink()
        assert run_cli("simulate", "--config", cfg) == 0
        assert formats.sha256_file(tmp_path / "a" / "dataset.jsonl") == first

    def test_squeezed_coherent_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the state comes from a scalar Fock recurrence, not from BLAS
        # matrix products, so the thread count cannot reach its bits
        cfg = write_config(tmp_path, "sc.json", {
            "state": {"kind": "squeezed_coherent", "r": 0.4, "alpha": [1.0, 0.3]},
            "schedule": {"kind": "swept_linear"}, "n_samples": 50_000, "seed": 3})
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "ohtlab.cli", "simulate", "--config", cfg,
                            "--out", str(tmp_path / threads)],
                           env=env, check=True, capture_output=True)
            digests.add(formats.sha256_file(tmp_path / threads / "dataset.jsonl"))
        assert len(digests) == 1

    def test_vacuum_variance_sanity(self, tmp_path):
        cfg = write_config(tmp_path, "vac.json", {
            "state": {"kind": "vacuum"},
            "schedule": {"kind": "grid", "d": 8},
            "n_samples": 200_000,
            "seed": 2,
            "outputs": {"dir": str(tmp_path / "v")},
        })
        assert run_cli("simulate", "--config", cfg) == 0
        ds = formats.read_quadrature_dataset(tmp_path / "v" / "dataset.jsonl")
        assert 0.49 < np.var(ds.qs) < 0.51

    def test_squeezed_config_keeps_all_phases(self, tmp_path):
        cfg = write_config(tmp_path, "sq.json", {
            "state": {"kind": "squeezed_vacuum", "r": 0.5},
            "schedule": {"kind": "grid", "d": 128},
            "n_samples": 12_800,
            "seed": 3,
            "outputs": {"dir": str(tmp_path / "sq")},
        })
        assert run_cli("simulate", "--config", cfg) == 0
        ds = formats.read_quadrature_dataset(tmp_path / "sq" / "dataset.jsonl")
        assert np.unique(ds.thetas).size == 128

    def test_bad_config_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {
            "state": {"kind": "vacuum"},
            "schedule": {"kind": "grid", "d": 4},
            "n_samples": 10,
            "seed": 1,
            "surprise": True,
        })
        assert run_cli("simulate", "--config", cfg) == 2

    @pytest.mark.parametrize("override", [
        {"detector": {"eta_q": 2.0}},
        {"schedule": {"kind": "grid", "d": 0}},
        {"state": {"kind": "fock", "n": -1}},
        {"state": {"kind": "thermal", "nbar": -0.5}},
        {"n_samples": 0},
        {"detector": {"lo_mean_photons": 0}},
        {"detector": {"eta_ls": 0.0}},
        {"state": {"kind": "vacuum", "truncation_dim": 0}},
        {"state": {"kind": "vacuum", "truncation_dim": 250}},
    ])
    def test_invalid_simulate_value_exit_2(self, tmp_path, capsys, override):
        # schema-valid documents whose values the constructors refuse
        doc = {"state": {"kind": "vacuum"}, "schedule": {"kind": "grid", "d": 4},
               "n_samples": 10, "seed": 1, "outputs": {"dir": str(tmp_path / "o")}}
        doc.update(override)
        cfg = write_config(tmp_path, "bad.json", doc)
        assert run_cli("simulate", "--config", cfg) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override", [
        {"detector": {"eta_q": 2.0}},
        {"source": {"kind": "correlated_thermal", "nbar": 1.0, "corr": 1.5}},
        {"source": {"kind": "correlated_thermal", "nbar": -1.0}},
        {"n_samples": 0},
        {"source": {"kind": "hbt_split"}},
        {"source": {"kind": "hbt_split", "nbar": -0.5}},
        {"source": {"kind": "independent_poisson", "nbar": 1.0, "nbar2": -1.0}},
        {"detector": {"eta_ls": 0.0}},
        {"detector": {"lo_mean_photons": 0, "sigma_e": 1.0}},
    ])
    def test_invalid_twomode_value_exit_2(self, tmp_path, capsys, override):
        doc = {"source": {"kind": "correlated_thermal", "nbar": 1.0}, "n_samples": 10,
               "seed": 1, "outputs": {"dir": str(tmp_path / "o")}}
        doc.update(override)
        cfg = write_config(tmp_path, "bad.json", doc)
        assert run_cli("twomode", "--config", cfg) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, doc", [
        ("array", {"n_pulses": 0, "seed": 1}),
        ("array", {"n_pulses": 10, "n_pixels": 1, "seed": 1}),
        ("calibrate", {"lo_levels": [1e5, 3e5, 6e5], "pulses_per_level": 1, "seed": 1}),
        ("calibrate", {"lo_levels": [-1e5, 3e5, 6e5], "pulses_per_level": 10, "seed": 1}),
        ("sample", {"signal": {"nu": 12.0, "bandwidth": 0.0}}),
        ("sample", {"signal": {"nu": 12.0, "bandwidth": 2.0, "points": 0}}),
        ("sample", {"signal": {"nu": 12.0, "bandwidth": 2.0, "span": 0.0}}),
        ("calibrate", {"lo_levels": [1e5, 1e5, 1e5], "pulses_per_level": 10, "seed": 1}),
        ("array", {"n_pulses": 10, "seed": 1, "detector": {"lo_mean_photons": 1e3}}),
        ("array", {"n_pulses": 10, "n_pixels": 4, "seed": 1, "modes": [
            {"shape": [1, 2, 3], "state": {"kind": "coherent", "alpha": 1.0}}]}),
        ("array", {"n_pulses": 10, "n_pixels": 4, "seed": 1, "modes": [
            {"shape": [0, 0, 0, 0], "state": {"kind": "coherent", "alpha": 1.0}}]}),
        ("calibrate", {"lo_levels": [1e5, 3e5, 6e5], "pulses_per_level": 10, "seed": 1,
                       "detector": {"gain": 0}}),
        ("sample", {"signal": {"nu": 12.0, "bandwidth": 2.0, "points": 2048}}),
    ])
    def test_invalid_config_value_exit_2(self, tmp_path, capsys, command, doc):
        cfg = write_config(tmp_path, "bad.json", {**doc, "outputs": {"dir": str(tmp_path / "o")}})
        assert run_cli(command, "--config", cfg) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [
        ["--dim", "0"], ["--dim", "31"], ["--k-c", "0"], ["--k-c", "nan"],
        ["--bootstrap", "-3"], ["--bootstrap", "1"],
    ])
    def test_invalid_reconstruct_flag_exit_2(self, small_dataset, tmp_path, capsys, flags):
        path = tmp_path / "ds.jsonl"
        formats.write_quadrature_dataset(path, small_dataset)
        out = tmp_path / "rec"
        assert run_cli("reconstruct", "--input", str(path), "--out", str(out), *flags) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--threads", "4", "simulate", "--config", "c.json"],
        ["simulate", "--config", "c.json", "--format", "csv"],
        ["reconstruct", "--input", "d.jsonl", "--seed", "3"],
        ["reconstruct", "--input", "d.jsonl", "--phases", "4"],
        ["reconstruct", "--input", "d.jsonl", "--phase-bins", "32"],
        ["sample", "--config", "c.json", "--seed", "3"],
        ["validate", "--input", "d.jsonl", "--out", "o"],
        # the config's seed is the only seed
        ["simulate", "--config", "c.json", "--seed", "3"],
        ["twomode", "--config", "c.json", "--seed", "3"],
        ["array", "--config", "c.json", "--seed", "3"],
        ["calibrate", "--config", "c.json", "--seed", "3"],
    ])
    def test_flags_a_command_does_not_read_are_refused(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2

    def test_aliasing_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", {
            "state": {"kind": "vacuum"},
            "schedule": {"kind": "grid", "d": 2},
            "n_samples": 2_000,
            "seed": 4,
            "outputs": {"dir": str(tmp_path / "al")},
        })
        assert run_cli("simulate", "--config", cfg) == 0
        code = run_cli("reconstruct", "--input", str(tmp_path / "al" / "dataset.jsonl"),
                       "--method", "pattern", "--dim", "6",
                       "--out", str(tmp_path / "al"))
        assert code == 3

    def test_pattern_on_a_short_random_record(self, tmp_path):
        # 1,500 random phases leave some of the 512 folded phases empty, so
        # the record is no grid; it is read as the sample mean over its phases
        cfg = write_config(tmp_path, "sim.json", {
            "state": {"kind": "coherent", "alpha": [0.5, 0.3]},
            "schedule": {"kind": "uniform_random"},
            "n_samples": 1_500,
            "seed": 6,
            "outputs": {"dir": str(tmp_path / "rand")},
        })
        assert run_cli("simulate", "--config", cfg) == 0
        ds = formats.read_quadrature_dataset(tmp_path / "rand" / "dataset.jsonl")
        keys = detection.distinct(detection.phase_keys(detection.fold_phases(ds.thetas,
                                                                             ds.qs)[0]))
        assert keys.size < 512
        out = tmp_path / "rec"
        assert run_cli("reconstruct", "--input", str(tmp_path / "rand" / "dataset.jsonl"),
                       "--method", "pattern", "--dim", "6", "--out", str(out)) == 0
        assert json.loads((out / "report.json").read_text())["pattern"]["d_phases"] == keys.size
        assert formats.read_density_matrix(out / "rho.json")[0].dim == 6

    @pytest.mark.parametrize("schedule", [{"kind": "grid", "d": 8}, {"kind": "uniform_random"}])
    def test_pattern_on_an_empty_record_exit_3(self, tmp_path, capsys, schedule):
        cfg = write_config(tmp_path, "sim.json", {
            "state": {"kind": "vacuum"}, "schedule": schedule, "n_samples": 10, "seed": 7,
            "outputs": {"dir": str(tmp_path / "s")}})
        assert run_cli("simulate", "--config", cfg) == 0
        path = tmp_path / "empty.jsonl"
        path.write_text((tmp_path / "s" / "dataset.jsonl").read_text().splitlines()[0] + "\n")
        assert run_cli("reconstruct", "--input", str(path), "--method", "pattern",
                       "--out", str(tmp_path / "rec")) == 3
        assert "data error: the record holds no samples" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()

    def test_dim_flag_bound_is_the_largest_buildable_table(self, tmp_path, capsys):
        # dim 28 would fail the Gram condition check (exit 4); the flag check
        # refuses it first, and dim 27 builds
        cfg = write_config(tmp_path, "sim.json", {
            "state": {"kind": "vacuum"},
            "schedule": {"kind": "grid", "d": 27, "span": [0.0, np.pi]},
            "n_samples": 2_700,
            "seed": 5,
            "outputs": {"dir": str(tmp_path / "v")},
        })
        assert run_cli("simulate", "--config", cfg) == 0
        ds = str(tmp_path / "v" / "dataset.jsonl")
        assert run_cli("reconstruct", "--input", ds, "--method", "pattern", "--dim", "28",
                       "--out", str(tmp_path / "r28")) == 2
        assert "config error" in capsys.readouterr().err
        assert run_cli("reconstruct", "--input", ds, "--method", "pattern", "--dim", "27",
                       "--out", str(tmp_path / "r27")) == 0
        assert json.loads((tmp_path / "r27" / "rho.json").read_text())["dim"] == 27

    def test_radon_on_one_phase_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json", {
            "state": {"kind": "vacuum"},
            "schedule": {"kind": "grid", "d": 1},
            "n_samples": 500,
            "seed": 4,
            "outputs": {"dir": str(tmp_path / "one")},
        })
        assert run_cli("simulate", "--config", cfg) == 0
        code = run_cli("reconstruct", "--input", str(tmp_path / "one" / "dataset.jsonl"),
                       "--method", "radon", "--out", str(tmp_path / "one"))
        assert code == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "one" / "wigner.csv").exists()

    @pytest.mark.parametrize("header, record, message", [
        ({"sigma_e": None}, '{"q":0.5,"theta":0.25}', "bad header"),  # None drops the key
        ({"eta_q": 2.0}, '{"q":0.5,"theta":0.25}', "bad header"),
        ({}, '{"q":0.5,"theta":7.0}', "phases must lie in"),
        # header values follow the config rules
        ({"eta_q": True}, '{"q":0.5,"theta":0.25}', "bad header"),
        ({"sigma_e": math.nan}, '{"q":0.5,"theta":0.25}', "bad header"),
        ({"schedule": {"kind": "grid", "d": 1.0}}, '{"q":0.5,"theta":0.25}', "bad header"),
        ({"schedule": {"kind": "grid", "d": 1, "span": [-1.0, 1.0]}},
         '{"q":0.5,"theta":0.25}', "bad header"),
        ({"schedule": {"kind": "uniform_random", "d": 7}}, '{"q":0.5,"theta":0.25}', "bad header"),
        # written as the one byte 0xe9, which starts no UTF-8 character
        ({}, '{"q":0.5,"th\xe9ta":0.25}', "ds.jsonl: line 2: byte 0xe9 is not utf-8 text"),
    ])
    def test_bad_file_value_exit_3(self, tmp_path, capsys, header, record, message):
        # a value a file carries is a data error, even where a config with
        # the same value would be a config error
        doc = {**json.loads(HEADER), **header}
        path = tmp_path / "ds.jsonl"
        path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None})
                        + "\n" + record + "\n", encoding="latin-1")
        assert run_cli("moments", "--input", str(path), "--out", str(tmp_path / "o")) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["reconstruct", "moments", "validate"])
    @pytest.mark.parametrize("dual, field, value, message", [
        (False, "qs", math.nan, "quadratures must be finite"),
        (False, "qs", math.inf, "quadratures must be finite"),
        (False, "qs", -math.inf, "quadratures must be finite"),
        (False, "thetas", math.nan, "phases must lie in"),
        (True, "qs", math.nan, "quadratures must be finite"),
        (True, "qs", -math.inf, "quadratures must be finite"),
        (True, "thetas", math.nan, "phases must lie in"),
        (True, "thetas", 7.0, "phases must lie in"),
        (True, "zetas", math.nan, "phases must lie in"),
        (True, "zetas", -0.5, "phases must lie in"),
    ])
    def test_non_finite_or_out_of_range_record_exit_3(self, small_dataset, tmp_path, capsys,
                                                      command, dual, field, value, message):
        # the formats reader keeps such values, and the commands that read a
        # record refuse them before anything is computed or written
        fields = {"qs": small_dataset.qs.copy(), "thetas": small_dataset.thetas.copy()}
        fields["zetas"] = fields["thetas"].copy() if dual else None
        ds = _dataset(**fields)
        # set after construction: the record refuses a θ outside [0, 2π)
        getattr(ds, field)[100] = value
        path = tmp_path / "ds.jsonl"
        formats.write_quadrature_dataset(path, ds)
        argv = [command, "--input", str(path)]
        if command != "validate":
            argv += ["--out", str(tmp_path / "o")]
        if command == "reconstruct":
            argv += ["--method", "radon"]
        assert run_cli(*argv) == 3
        out, err = capsys.readouterr()
        assert err.startswith(f"data error: {path}: {message}")
        assert out == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, key, value, message", [
        ("quad", "seed", "x", 'at seed: expected an integer, got "x"'),
        ("quad", "seed", 7.0, "at seed: expected an integer, got 7.0"),
        ("quad", "seed", True, "at seed: expected an integer, got true"),
        ("frames", "n_pixels", 4.0, "at n_pixels: expected an integer, got 4.0"),
        ("frames", "n_pixels", True, "at n_pixels: expected an integer, got true"),
        ("frames", "pixel_area", 0.0, "need at least 2 pixels of positive area"),
        ("frames", "pixel_area", -0.25, "need at least 2 pixels of positive area"),
        ("frames", "pixel_area", True, "at pixel_area: expected a finite number, got true"),
        ("frames", "seed", "x", 'at seed: expected an integer, got "x"'),
        ("frames", "seed", 7.0, "at seed: expected an integer, got 7.0"),
        ("frames", "seed", None, "at seed: expected an integer, got null"),
    ])
    def test_mutated_header_field_exit_3(self, small_dataset, tmp_path, capsys, kind, key,
                                         value, message):
        # header fields follow the config rules, as the detector's do
        path = tmp_path / f"{kind}.jsonl"
        if kind == "quad":
            formats.write_quadrature_dataset(path, small_dataset)
            reader = formats.read_quadrature_dataset
        else:
            formats.write_array_frames(path, arrays.simulate_array_frames(
                [], detection.DetectorModel(lo_mean_photons=1e5),
                arrays.PixelGrid(n_pixels=4, pixel_area=1 / 4),
                detection.PhaseSchedule("uniform_random"), 10, seed=905))
            reader = formats.read_array_frames
        head, body = path.read_text().split("\n", 1)
        path.write_text(json.dumps({**json.loads(head), key: value}) + "\n" + body)
        with pytest.raises(DataFormatError, match="bad header"):
            reader(path)
        assert run_cli("validate", "--input", str(path)) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["[1]", "1.5", '"ohtlab-quad-v1"', "null"])
    def test_header_not_an_object_exit_3(self, tmp_path, capsys, header):
        path = tmp_path / "ds.jsonl"
        path.write_text(header + '\n{"q":0.5,"theta":0.25}\n')
        assert run_cli("moments", "--input", str(path), "--out", str(tmp_path / "o")) == 3
        assert "header line is not a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["reconstruct", "moments", "validate"])
    @pytest.mark.parametrize("bad, message", [
        ("byte", "ds.jsonl: line 5: byte 0xe9 is not utf-8 text"),
        ("header byte", "ds.jsonl: line 1: byte 0xe9 is not utf-8 text"),
        ("directory", "ds.jsonl: Is a directory"),
    ])
    def test_unreadable_record_exit_3(self, small_dataset, tmp_path, capsys, command, bad,
                                      message):
        # a record that is no file, or whose bytes are no text, is a data
        # error, not a traceback; every command names the line of the byte
        path = tmp_path / "ds.jsonl"
        if bad == "directory":
            path.mkdir()
        else:
            formats.write_quadrature_dataset(path, small_dataset)
            lines = path.read_bytes().split(b"\n")
            line, word = (4, b"theta") if bad == "byte" else (0, b"schedule")
            lines[line] = lines[line].replace(word, word[:2] + b"\xe9" + word[3:])
            path.write_bytes(b"\n".join(lines))
        argv = [command, "--input", str(path)]
        if command != "validate":
            argv += ["--out", str(tmp_path / "o")]
        assert run_cli(*argv) == 3
        out, err = capsys.readouterr()
        assert err.startswith("data error: ") and "Traceback" not in err
        if command != "validate" or bad != "directory":
            assert err == f"data error: {tmp_path / message}\n"
        if command != "validate":
            assert out == "" and not (tmp_path / "o").exists()

    def test_missing_input_exit_3(self):
        assert run_cli("validate", "--input", "/nonexistent/file.jsonl") == 3

    @pytest.mark.parametrize("name, text", [("ds.jsonl", '[1]\n{"q":0.5,"theta":0.25}\n'),
                                            ("doc.json", "[1]\n")])
    def test_validate_non_object_exit_3(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        assert run_cli("validate", "--input", str(path)) == 3
        assert "is not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"re": {"a": 1}}, "at re: expected an array"),
        ({"errors": {"a": 1}}, "at errors: expected an array"),
        ({"re": [["1"]]}, "at re/0/0: expected a finite number"),
        ({"re": [[True]]}, "at re/0/0: expected a finite number"),
        ({"dim": True}, "at dim: expected an integer"),
        ({"errors": [[1, 2, 3]]}, "errors is not 1 × 1"),
        ({"re": [[1.0], [0.0]]}, "re is not 1 × 1"),
        ({"dim": None}, "KeyError: 'dim'"),      # None drops the key
    ])
    def test_validate_malformed_density_matrix_exit_3(self, tmp_path, capsys, doc, message):
        good = {"dim": 1, "re": [[1.0]], "im": [[0.0]], "errors": [[0.1]]}
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({k: v for k, v in {**good, **doc}.items() if v is not None}))
        assert run_cli("validate", "--input", str(path)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: bad density matrix") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, text, message", [
        ("frames.jsonl", '{"format":"ohtlab-array-v1"}\n[1]\n', "line 2 is not a JSON object"),
        ("frames.jsonl", '{"format":"ohtlab-array-v1"}\n{"d":[1],"theta":0.0}\n7\n',
         "line 3 is not a JSON object"),
        # no command writes k-records, so their tag is an unknown one
        ("k.jsonl", '{"format":"ohtlab-krec-v1","l_values":[0]}\n[1]\n',
         'unknown format tag "ohtlab-krec-v1"'),
        ("manifest.json", '{"format":"ohtlab-manifest-v1","files":["dataset.jsonl"]}\n',
         "manifest files is not a JSON object"),
    ])
    def test_validate_malformed_body_exit_3(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        assert run_cli("validate", "--input", str(path)) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("reader", [formats.read_array_frames,
                                        formats.read_quadrature_dataset])
    @pytest.mark.parametrize("text", ["[1]\n", "null\n", '"x"\n'])
    def test_reader_refuses_non_object_header(self, tmp_path, reader, text):
        path = tmp_path / "f.jsonl"
        path.write_text(text)
        with pytest.raises(DataFormatError, match="header line is not a JSON object"):
            reader(path)

    def test_validate_closes_the_file(self, small_dataset, tmp_path):
        path = tmp_path / "ds.jsonl"
        formats.write_quadrature_dataset(path, small_dataset)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert run_cli("validate", "--input", str(path)) == 0
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_fock1_negativity_flagged_in_report(self, tmp_path):
        cfg = write_config(tmp_path, "f1.json", {
            "state": {"kind": "fock", "n": 1, "truncation_dim": 6},
            "detector": {"eta_q": 0.55},
            "schedule": {"kind": "grid", "d": 64},
            "n_samples": 100_000,
            "seed": 12,
            "outputs": {"dir": str(tmp_path / "f1")},
        })
        assert run_cli("simulate", "--config", cfg) == 0
        assert run_cli("reconstruct", "--input", str(tmp_path / "f1" / "dataset.jsonl"),
                       "--method", "radon", "--bootstrap", "30",
                       "--out", str(tmp_path / "f1")) == 0
        report = json.loads((tmp_path / "f1" / "report.json").read_text())
        assert report["radon"]["w_origin"] < 0
        assert report["radon"]["bootstrap"]["origin_negative_3sigma"] is True

    def test_validate_manifest_and_tamper(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", {
            "state": {"kind": "thermal", "nbar": 1.0},
            "schedule": {"kind": "uniform_random"},
            "n_samples": 2_000,
            "seed": 6,
            "outputs": {"dir": str(tmp_path / "m")},
        })
        assert run_cli("simulate", "--config", cfg) == 0
        manifest = str(tmp_path / "m" / "manifest.json")
        assert run_cli("validate", "--input", manifest) == 0
        with open(tmp_path / "m" / "dataset.jsonl", "a") as f:
            f.write('{"theta":0.0,"q":0.0}\n')
        assert run_cli("validate", "--input", manifest) == 3
        assert run_cli("validate", "--input", manifest, "--report") == 0

    @pytest.mark.parametrize("source, message", [
        ({"kind": "hbt_split", "nbar": 1.0, "corr": 0.9},
         "corr applies to correlated_thermal sources only, not hbt_split"),
        ({"kind": "independent_poisson", "nbar": 1.0, "corr": 0.0},
         "corr applies to correlated_thermal sources only, not independent_poisson"),
        ({"kind": "anticorrelated_thermal", "nbar": 1.0, "corr": 1.5},
         "corr applies to correlated_thermal sources only, not anticorrelated_thermal"),
        ({"kind": "correlated_thermal", "nbar": 1.0, "nbar2": 2.0},
         "nbar2 applies to independent_poisson sources only, not correlated_thermal"),
        ({"kind": "hbt_split", "nbar": 1.0, "nbar2": 1.0},
         "nbar2 applies to independent_poisson sources only, not hbt_split"),
        ({"kind": "correlated_thermal", "nbar": 1.0, "corr": -0.1},
         "number correlation coefficient must be in [0, 1]"),
        ({"kind": "correlated_thermal", "nbar": 1.0, "corr": 1.5},
         "number correlation coefficient must be in [0, 1]"),
    ])
    def test_twomode_source_field_not_read_exit_2(self, tmp_path, capsys, source, message):
        # a field the source kind does not read is refused, not ignored
        cfg = write_config(tmp_path, "two.json", {"source": source, "n_samples": 10,
                                                  "seed": 1})
        assert run_cli("twomode", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["moments", "array"])
    def test_partial_span_grid_exit_3(self, tmp_path, capsys, command):
        # phase averages over a grid on [0, 1) are biased: for coherent α = 2
        # moments and array read about 6.2 photons, not 4
        sched = {"kind": "grid", "d": 8, "span": [0, 1]}
        state = {"kind": "coherent", "alpha": 2.0}
        if command == "moments":
            cfg = write_config(tmp_path, "sim.json", {"state": state, "schedule": sched,
                                                      "n_samples": 2_000, "seed": 1})
            assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "sim")) == 0
            argv = ["moments", "--input", str(tmp_path / "sim" / "dataset.jsonl")]
        else:
            cfg = write_config(tmp_path, "arr.json", {
                "n_pulses": 400, "n_pixels": 8, "seed": 1, "schedule": sched,
                "modes": [{"shape": "ramp", "state": state}]})
            argv = ["array", "--config", cfg]
        assert run_cli(*argv, "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == ("data error: grid span [0, 1] covers neither π "
                                           "nor 2π; its phase averages would be biased\n")
        assert not (tmp_path / "o").exists()

    def test_twomode_command(self, tmp_path):
        cfg = write_config(tmp_path, "two.json", {
            "source": {"kind": "correlated_thermal", "nbar": 1.0, "corr": 1.0},
            "n_samples": 40_000,
            "seed": 8,
            "outputs": {"dir": str(tmp_path / "two")},
        })
        assert run_cli("twomode", "--config", cfg) == 0
        rep = json.loads((tmp_path / "two" / "twomode_report.json").read_text())
        assert rep["g2"] == pytest.approx(3.0, abs=0.6)
        assert (tmp_path / "two" / "dual_alpha1.jsonl").exists()

    @pytest.mark.parametrize("source", [
        {"kind": "correlated_thermal", "nbar": 0.0},
        {"kind": "independent_poisson", "nbar": 0.001, "nbar2": 2.0},
    ])
    def test_twomode_near_vacuum_exit_4(self, tmp_path, capsys, source):
        # g² divides by each mode's ⟨n⟩, so a mode whose ⟨n⟩ is not resolved
        # from vacuum at 5 standard errors gives no g², and nothing is written
        cfg = write_config(tmp_path, "two.json", {"source": source, "n_samples": 20_000,
                                                  "seed": 3})
        assert run_cli("twomode", "--config", cfg, "--out", str(tmp_path / "o")) == 4
        out, err = capsys.readouterr()
        assert err.startswith("numerical failure: mean photon number")
        assert "consistent with vacuum" in err
        assert out == "" and not (tmp_path / "o").exists()

    def test_array_command(self, tmp_path):
        cfg = write_config(tmp_path, "arr.json", {
            "n_pulses": 3_000,
            "seed": 9,
            "detector": {"eta_q": 0.9},
            "modes": [{"shape": "ramp", "state": {"kind": "coherent", "alpha": 2.0}}],
            "outputs": {"dir": str(tmp_path / "arr")},
        })
        assert run_cli("array", "--config", cfg) == 0
        rep = json.loads((tmp_path / "arr" / "array_report.json").read_text())
        assert rep["photon_estimate"] == pytest.approx(4.0, rel=0.2)

    def test_sample_command(self, tmp_path):
        cfg = write_config(tmp_path, "samp.json", {
            "signal": {"nu": 12.0, "bandwidth": 2.0},
            "outputs": {"dir": str(tmp_path / "samp")},
        })
        assert run_cli("sample", "--config", cfg) == 0
        rep = json.loads((tmp_path / "samp" / "sampling_report.json").read_text())
        assert rep["relative_rms_error"] <= 1e-3

    def test_sample_needs_no_seed(self, tmp_path, capsys):
        # the demo draws nothing at random, so it runs without a seed and
        # refuses one, at the top level or in the signal block
        for name, extra in (("none", {}), ("seeded", {"seed": 3}),
                            ("signal_seed", {"signal": {"nu": 12.0, "bandwidth": 2.0,
                                                        "seed": 4}})):
            doc = {"signal": {"nu": 12.0, "bandwidth": 2.0},
                   "outputs": {"dir": str(tmp_path / name)}, **extra}
            code = run_cli("sample", "--config", write_config(tmp_path, f"{name}.json", doc))
            assert code == (0 if name == "none" else 2)
            assert (tmp_path / name).exists() == (name == "none")
        assert capsys.readouterr().err.count("unknown key") == 2

    def test_calibrate_command(self, tmp_path):
        cfg = write_config(tmp_path, "cal.json", {
            "detector": {"gain": 1e6, "sigma_e": 300.0},
            "lo_levels": [1e5, 3e5, 6e5, 1e6, 2e6],
            "pulses_per_level": 4_000,
            "seed": 1,
            "outputs": {"dir": str(tmp_path / "cal")},
        })
        assert run_cli("calibrate", "--config", cfg) == 0
        rep = json.loads((tmp_path / "cal" / "calibration.json").read_text())
        assert rep["gain_estimate"] == pytest.approx(1e6, rel=0.05)
