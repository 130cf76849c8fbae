import math
import sys
import threading
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtail import estimators, secondorder, stats
from gtail.distributions import DistSpec, sample
from gtail.errors import DegenerateSampleError, DomainError, GtailError, ParseError
from gtail.stats import PROFILE_TILE, RECORD_RS, SMALL_R, Sample, SampleBlock, log_moment_profile, stat_g, stat_g_rows

E = math.e


def sample_1_e_e2():
    return Sample.from_values([1.0, E, E * E])


def row_samples(block):
    """One Sample per row of a block."""
    return [Sample.from_values(v) for v in block.values]


class TestSample:
    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            Sample.from_values([1.0, -2.0, 3.0])
        with pytest.raises(DomainError):
            Sample.from_values([1.0, 0.0, 3.0])

    def test_rejects_tiny(self):
        with pytest.raises(DomainError):
            Sample.from_values([1.0, 2.0])

    def test_sorted_desc_is_permutation(self):
        s = Sample.from_values([3.0, 1.0, 2.0, 2.0])
        assert list(s.sorted_desc) == [3.0, 2.0, 2.0, 1.0]
        assert sorted(s.values) == sorted(s.sorted_desc)

    def test_from_values_takes_one_row(self):
        """A 1-D array or a single row is one sample; several rows are a
        block, never flattened into one sample."""
        values = [3.0, 1.0, 2.0, 5.0]
        for several in ([values, values], np.ones((3, 1))):
            with pytest.raises(DomainError, match="SampleBlock.from_values"):
                Sample.from_values(several)
        s = Sample.from_values(values)
        assert (s.n, s.rows, s.values.shape, s.sorted_desc.shape) == (4, 1, (4,), (4,))
        assert np.array_equal(s.desc, s.sorted_desc[None])
        row = Sample.from_values([values])
        assert np.array_equal(row.values, s.values)
        assert np.array_equal(row.sorted_desc, s.sorted_desc)

    def test_equality_is_identity(self):
        """== and hash are a sample's identity: a plain answer, never an
        error from comparing arrays, and a sample can be a dict key."""
        s = Sample.from_values([1.0, 2.0, 3.0, 4.0])
        copy = Sample.from_values(s.values)
        assert s == s and (s == copy) is False and s != copy
        assert {s: "s", copy: "copy"}[s] == "s" and hash(s) == hash(s)
        block = SampleBlock.from_values(np.arange(1.0, 7.0).reshape(2, 3))
        assert block == block and block != SampleBlock.from_values(block.values)
        assert block in {block}

    def test_from_file_with_header(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("value\n1.0\n2.5\n3.0\n")
        s = Sample.from_file(p)
        assert s.n == 3

    def test_from_file_malformed_line(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1.0\n2.5\noops\n")
        with pytest.raises(ParseError) as exc:
            Sample.from_file(p)
        assert exc.value.line_number == 3


def _read_lines(path) -> Sample:
    """The line-by-line reader that from_file had before it parsed with
    loadtxt, kept as the reference."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                if lineno == 1 and not values:
                    continue  # header
                raise ParseError(f"line {lineno}: not a number: {line!r}", line_number=lineno) from None
    if not values:
        raise ParseError("no numeric values found", line_number=None)
    return Sample.from_values(values)


def _outcome(read, path):
    try:
        s = read(path)
    except GtailError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return s.values.tobytes()


_LINES = st.one_of(
    st.floats().map(repr),
    st.floats(1e-300, 1e300).map(lambda x: f" {x:.6e}\t"),
    st.sampled_from(["", "  ", "value", "x y", "1 2", "3 4 5", "1_000", "\u0663", "1e999",
                     "-0", "0", "+7", " nan", "-inf", "1,5", "1.5\xa0", "\x0c2", "0x10"]),
    st.text(alphabet="0123456789.eE+- \t_x", max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_LINES, max_size=12), newline=st.sampled_from(["\n", "\r\n", "\r"]),
       trailing=st.booleans())
@example(lines=["value", "1 2 3"], newline="\n", trailing=True)  # one row, several columns
@example(lines=["", "4 5 6", ""], newline="\r\n", trailing=False)
@example(lines=["x", "1", "2 3", "4"], newline="\n", trailing=True)
@example(lines=["value", "1_000", "2", "3"], newline="\r\n", trailing=True)
@example(lines=["\u0663", "1", "2", "3"], newline="\n", trailing=False)
@example(lines=["1", "", "2", "oops"], newline="\r", trailing=True)
@example(lines=["value"], newline="\n", trailing=True)
def test_from_file_matches_the_line_reader(tmp_path_factory, lines, newline, trailing):
    """Same values to the bit, or the same error (class, message, line), on
    headers, blank lines, CRLF, multi-column lines and bad lines."""
    path = tmp_path_factory.mktemp("data") / "values.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(newline.join(lines) + (newline if trailing else ""))
    assert _outcome(Sample.from_file, path) == _outcome(_read_lines, path)


class TestStatG:
    def test_hill_numerator_example(self):
        # top-2 log ratios to the threshold 1 are {2, 1}
        assert stat_g(sample_1_e_e2(), 2, 0, 1) == pytest.approx(1.5, rel=1e-15)

    def test_power_example(self):
        expected = (E**2 + E) / 2.0
        assert stat_g(sample_1_e_e2(), 2, 1, 0) == pytest.approx(expected, rel=1e-14)

    def test_constant_kernel(self):
        rng = np.random.default_rng(0)
        s = Sample.from_values(rng.uniform(0.5, 9.0, size=40))
        assert stat_g(s, 10, 0, 0) == 1.0

    def test_k_bounds(self):
        s = sample_1_e_e2()
        with pytest.raises(DomainError):
            stat_g(s, 1, 0, 1)
        with pytest.raises(DomainError):
            stat_g(s, 3, 0, 1)

    def test_u_bound(self):
        with pytest.raises(DomainError):
            stat_g(sample_1_e_e2(), 2, 0, -1.0)

    def test_tie_with_threshold_negative_u(self):
        s = Sample.from_values([1.0, 2.0, 2.0, 5.0])
        with pytest.raises(DegenerateSampleError):
            stat_g(s, 2, 0.5, -0.5)

    def test_tie_with_threshold_u_zero_and_positive(self):
        s = Sample.from_values([1.0, 2.0, 2.0, 5.0])
        # ties contribute the kernel limit at 1: 1 for u=0, 0 for u>0
        assert stat_g(s, 2, 1.0, 0.0) == pytest.approx((5.0 / 2.0 + 1.0) / 2.0)
        assert stat_g(s, 2, 1.0, 1.0) == pytest.approx((5.0 / 2.0) * math.log(5.0 / 2.0) / 2.0)

    def test_hill_matches_independent_log_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = Sample.from_values(rng.pareto(1.0, size=200) + 1.0)
            k = int(rng.integers(2, 199))
            independent = np.mean(np.log(s.sorted_desc[:k] / s.sorted_desc[k]))
            assert stat_g(s, k, 0, 1) == independent  # bit-for-bit

    def test_nonnegative_summands(self):
        rng = np.random.default_rng(3)
        s = Sample.from_values(rng.pareto(0.7, size=100) + 1.0)
        assert stat_g(s, 30, 0.2, 0.0) >= 1.0
        assert stat_g(s, 30, -0.4, 2.0) >= 0.0


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(st.floats(min_value=0.01, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=5, max_size=60),
    scale_pow=st.integers(min_value=-20, max_value=20),
    r=st.sampled_from([-1.0, -0.3, 0.0, 0.4, 1.0]),
    u=st.sampled_from([0.0, 1.0, 2.0]),
)
def test_scale_and_permutation_invariance(values, scale_pow, r, u):
    s = Sample.from_values(values)
    k = s.n // 2 + 1
    base = stat_g(s, k, r, u)
    # permutation invariance: any reordering gives identical results
    perm = Sample.from_values(list(reversed(values)))
    assert stat_g(perm, k, r, u) == base
    # power-of-two rescaling is exact in binary floating point
    scaled = Sample.from_values([v * 2.0**scale_pow for v in values])
    assert stat_g(scaled, k, r, u) == base


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), n=st.integers(3, 300),
       spread=st.floats(1e-3, 690.0), triples=st.integers(1, 8), data=st.data())
def test_stat_g_rows_is_stat_g_of_each_row(seed, rows, n, spread, triples, data):
    """Bit for bit, with data spanning up to 1e-300..1e300, at triples whose
    rows may repeat; one triple alone gives its column."""
    rng = np.random.default_rng(seed)
    block = SampleBlock.from_values(np.exp(rng.uniform(-spread, spread, (rows, n))))
    idx = data.draw(st.lists(st.integers(0, rows - 1), min_size=triples, max_size=triples))
    ks = data.draw(st.lists(st.integers(2, n - 1), min_size=triples, max_size=triples))
    r = data.draw(st.lists(st.one_of(st.sampled_from([0.0, 1e-9, -0.5, 1.0]), st.floats(-3.0, 3.0)),
                           min_size=triples, max_size=triples))
    us = (0.0, 1.0, 2.0, 3.0)
    samples = row_samples(block)
    with np.errstate(all="ignore"):
        got = stat_g_rows(block, idx, ks, np.array(r), us)
        for t, (i, k, r_t) in enumerate(zip(idx, ks, r)):
            for u, g in zip(us, got[:, t].tolist()):
                if math.isfinite(g):
                    assert stat_g(samples[i], k, r_t, u) == g
                else:  # stat_g raises where G is not finite
                    with pytest.raises(DegenerateSampleError, match="is not finite"):
                        stat_g(samples[i], k, r_t, u)
            assert np.array_equal(stat_g_rows(block, i, k, r_t, us), got[:, t], equal_nan=True)
        if len(set(r)) == 1:
            assert np.array_equal(stat_g_rows(block, idx, ks, r[0], us), got, equal_nan=True)


def test_stat_g_rows_domain():
    block = SampleBlock.from_values(np.arange(1.0, 21.0).reshape(2, 10))
    with pytest.raises(DomainError, match="k=10 outside"):
        stat_g_rows(block, [0, 1], [2, 10], 0.0, (1.0,))
    with pytest.raises(DomainError, match="k=1 outside"):
        stat_g_rows(block, [0, 1], [1, 5], 0.0, (1.0,))
    with pytest.raises(DomainError, match="k=10 outside"):
        stat_g_rows(block, 0, 10, 0.0, (1.0,))
    with pytest.raises(DomainError):
        stat_g_rows(block, [0, 1], [3, 5], 0.0, (-1.0,))
    # u in (-1, 0) is defined where no top value ties the threshold ...
    got = stat_g_rows(block, [0, 1, 1], [3, 5, 5], 0.5, (2.0, -0.5))
    for t, (s, k) in enumerate(zip([row_samples(block)[i] for i in (0, 1, 1)], [3, 5, 5])):
        assert got[:, t].tolist() == [stat_g(s, k, 0.5, 2.0), stat_g(s, k, 0.5, -0.5)]
    # ... and a tie in any triple raises stat_g's tie error
    tied = SampleBlock.from_values(np.array([[1.0, 2.0, 2.0, 5.0], [1.0, 2.0, 3.0, 5.0]]))
    for rows, ks in (([1, 0], [2, 2]), (0, 2)):
        with pytest.raises(DegenerateSampleError, match="tie with threshold"):
            stat_g_rows(tied, rows, ks, 0.5, (1.0, -0.5))


def test_scale_invariance_arbitrary_factor():
    rng = np.random.default_rng(11)
    s = Sample.from_values(rng.pareto(1.0, size=300) + 1.0)
    scaled = Sample.from_values(s.values * math.pi)
    for r, u in [(0.0, 1.0), (0.5, 0.0), (-0.5, 2.0)]:
        assert stat_g(scaled, 100, r, u) == pytest.approx(
            stat_g(s, 100, r, u), rel=1e-12)


def _copy_then_clobber(g, spare, dst):
    """A fill that keeps the statistics (without the column after the tile)
    and then overwrites everything the kernel lends it, as a fill may."""
    for src, to in zip(g, dst):
        assert src.flags.c_contiguous and src.shape[-1] == to.shape[-1] + 1
        assert np.isfinite(src[:, -1]).all()
        np.copyto(to, src[:, :-1])
    for a in (*g, *spare):
        a.fill(np.nan)


def profile(s, lo, hi, width=None):
    """G_n(k, 0, u) for u = 1, 2, 3 and k in [lo, hi]: shape (3, rows, k).
    A width sets PROFILE_TILE so that a tile spans that many columns."""
    out = np.empty((3, s.rows, hi - lo + 1))
    tile = PROFILE_TILE if width is None else s.rows * (width + 1)
    with patch.object(stats, "PROFILE_TILE", tile):
        assert log_moment_profile(s, lo, hi, out, _copy_then_clobber) is out
    return out


def test_log_moment_profile_matches_stat_g():
    rng = np.random.default_rng(23)
    s = Sample.from_values(rng.pareto(0.8, size=500) + 1.0)
    prof = profile(s, 2, 499)
    for k in (2, 10, 100, 250, 499):
        for col, u in enumerate((1.0, 2.0, 3.0)):
            assert prof[col, 0, k - 2] == pytest.approx(stat_g(s, k, 0.0, u), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 64), n=st.integers(100, 5000),
       spread=st.floats(1e-3, 690.0), data=st.data())
def test_log_moment_profile_tiling_is_bit_identical(seed, rows, n, spread, data):
    """Any tile width, from one column to wider than the sweep, gives the
    single-tile statistics bit for bit, with data spanning up to
    1e-300..1e300 and tile edges at lo - 1, lo and hi among others."""
    rng = np.random.default_rng(seed)
    block = SampleBlock.from_values(np.exp(rng.uniform(-spread, spread, (rows, n))))
    lo, hi = data.draw(st.sampled_from([(max(2, int(n**0.90)), min(n - 1, int(n**0.995))),
                                        (2, n - 1), (n - 1, n - 1)]))
    # the sweep cuts tiles at multiples of the width below lo and at lo plus
    # multiples of it from lo on
    width = data.draw(st.one_of(st.sampled_from([1, max(1, lo - 1), lo, max(1, hi - lo), hi + 2]),
                                st.integers(1, hi + 2)))
    whole = profile(block, lo, hi, width=hi + 1)
    assert np.array_equal(profile(block, lo, hi, width=width), whole, equal_nan=True)
    for i, s in enumerate(row_samples(block)[:2]):
        assert np.array_equal(profile(s, lo, hi, width=width)[:, 0], whole[:, i],
                              equal_nan=True)


def test_log_moment_profile_production_tiles():
    """n = 2e5 runs the sweep in several tiles of PROFILE_TILE elements; it
    equals the one-tile sweep bit for bit."""
    s = Sample.from_values(np.random.default_rng(5).pareto(1.0, size=200_000) + 1.0)
    lo, hi = int(s.n**0.90), int(s.n**0.995)
    assert hi + 1 > 2 * PROFILE_TILE
    prof = profile(s, lo, hi)
    assert np.array_equal(prof, profile(s, lo, hi, width=hi + 1))
    for k in (lo, hi):
        for col, u in enumerate((1.0, 2.0, 3.0)):
            assert prof[col, 0, k - lo] == pytest.approx(stat_g(s, k, 0.0, u), rel=1e-9)


def test_log_moment_profile_domain():
    s = Sample.from_values(np.arange(1.0, 11.0))
    for lo, hi in ((1, 5), (2, 10), (6, 5)):
        with pytest.raises(DomainError, match="outside"):
            log_moment_profile(s, lo, hi, np.empty((3, 1, 8)), _copy_then_clobber)
    with pytest.raises(DomainError, match="k columns"):
        log_moment_profile(s, 2, 9, np.empty((3, 1, 7)), _copy_then_clobber)


def test_stat_g_rows_no_triples_and_unequal_lengths():
    block = SampleBlock.from_values(np.arange(1.0, 21.0).reshape(2, 10))
    assert stat_g_rows(block, [], [], 0.0, (1.0, 2.0)).shape == (2, 0)
    assert stat_g_rows(block, np.array([], dtype=int), [], np.array([]), (1.0,)).shape == (1, 0)
    for rows, ks, r in (([0, 1], [3], 0.0), (0, [3, 4], 0.0), ([0, 1], [3, 4], np.ones(3))):
        with pytest.raises(DomainError, match="one entry per triple"):
            stat_g_rows(block, rows, ks, r, (1.0,))


def test_a_sample_is_its_one_row_block():
    """A Sample passed straight to each array form gives, bit for bit, the
    arrays of the one-row block of its values."""
    s = sample(DistSpec("burr", 1.0, -1.0), 400, 29)
    block = SampleBlock.from_values(s.values[None])
    assert isinstance(s, SampleBlock) and (s.n, s.rows) == (block.n, block.rows)

    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    us = (0.0, 1.0, 2.0)
    for rows, ks, r in ((0, 50, 0.5), ([0, 0, 0], [2, 50, 399], np.array([0.0, -0.5, 1.0]))):
        assert same(stat_g_rows(s, rows, ks, r, us), stat_g_rows(block, rows, ks, r, us))
    assert same(profile(s, 50, 349), profile(block, 50, 349))
    for kind in estimators.KINDS:
        args = ([0, 0, 0], [2, 50, 399], [0.0, 0.3, -0.7])
        assert same(estimators.estimate_arrays(s, kind, *args),
                    estimators.estimate_arrays(block, kind, *args)), kind
    one, whole = secondorder.adaptive_arrays(s), secondorder.adaptive_arrays(block)
    for j in (1, 3):
        assert one[j].failed_step.tolist() == [-1] and one[j].k_used == whole[j].k_used
        for name in ("rho", "tau", "beta", "k_c", "gamma_c", "r", "k_g", "gamma_g", "failed_step"):
            assert same(getattr(one[j], name), getattr(whole[j], name)), (j, name)


def test_rows_outside_the_block_are_domain_errors():
    """On both paths, and in estimate_arrays, a row outside [0, rows) is a
    DomainError naming it, never an IndexError or a read of the last row."""
    block = SampleBlock.from_values(np.arange(1.0, 46.0).reshape(3, 15))
    stat_g_rows(block, 2, 10, 0.0, (1.0,))  # the memo holds row 2, which row -1 would read
    for rows, ks, bad in ((5, 10, 5), (3, 10, 3), (-1, 10, -1),
                          ([0, 3], [4, 10], 3), ([-1, 0], [4, 10], -1)):
        with pytest.raises(DomainError, match=rf"row {bad} outside \[0, 3\) for a block of 3 rows"):
            stat_g_rows(block, rows, ks, 0.0, (1.0,))
    with pytest.raises(DomainError, match=r"row -1 outside \[0, 3\)"):
        estimators.estimate_arrays(block, "hill", [-1], [10], 0.0)
    with pytest.raises(DomainError, match=r"row 1 outside \[0, 1\)"):
        stat_g_rows(Sample.from_values(block.values[0]), 1, 10, 0.0, (1.0,))
    for row in ([0], 2.0):  # 2.0 at the (row, k) in the memo
        with pytest.raises(DomainError, match="one int row"):
            stat_g_rows(block, row, 10, 0.0, (1.0,))


def test_rows_and_ks_that_are_not_integral_are_domain_errors():
    """A row or k that is not integral raises on the array path and in
    estimate_arrays, where it was truncated to another row's or k's value;
    an integral float row or k is that int."""
    block = SampleBlock.from_values(np.arange(1.0, 46.0).reshape(3, 15))
    for rows, ks, name, bad in (([1.7], [10], "row", "1.7"), ([0.9], [10], "row", "0.9"),
                                ([0, np.nan], [10, 10], "row", "nan"),
                                ([0], [10.5], "k", "10.5"), ([0, 1], [4, np.inf], "k", "inf")):
        with pytest.raises(DomainError, match=f"{name} must be integral, got {bad}"):
            stat_g_rows(block, rows, ks, 0.0, (1.0,))
        with pytest.raises(DomainError, match=f"{name} must be integral, got {bad}"):
            estimators.estimate_arrays(block, "hill", rows, ks, 0.0)
    args = ([1.0, 2.0, 0.0], [10.0, 4.0, 13.0])
    ints = ([1, 2, 0], [10, 4, 13])
    assert stat_g_rows(block, *args, 0.3, (0.0, 1.0)).tobytes() == \
        stat_g_rows(block, *ints, 0.3, (0.0, 1.0)).tobytes()
    assert estimators.estimate_arrays(block, "g3", *args, 0.3).tobytes() == \
        estimators.estimate_arrays(block, "g3", *ints, 0.3).tobytes()


@pytest.mark.parametrize("name, rows, ks, bad", [
    ("k", [0], [1e300], "1e[+]300"),
    ("k", [0, 1], [10, 2.0**63], "9.223372036854776e[+]18"),
    ("row", [1e300], [10], "1e[+]300"),
    ("row", [-2.0**64], [10], "-1.8446744073709552e[+]19"),
    ("row", np.array([2**63], dtype=np.uint64), [10], "9223372036854775808"),
    ("k", [0], [2**70], "1180591620717411303424"),
    ("row", [0, 2**70], [10, 10], "1180591620717411303424"),
])
def test_rows_and_ks_outside_int64_are_domain_errors(name, rows, ks, bad):
    """An integral float row or k outside the int64 range, a uint64 one
    above it, or a Python int beyond 64 bits (an object array, which
    np.isfinite rejects with a TypeError), raises a DomainError naming it,
    before a cast that would wrap it to -2^63 (with a warning for a float);
    -2^63 itself is an int64 and fails the range check instead."""
    block = SampleBlock.from_values(np.arange(1.0, 46.0).reshape(3, 15))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"{name} must be in the int64 range, got {bad}$"):
            stat_g_rows(block, rows, ks, 0.0, (1.0,))
        with pytest.raises(DomainError, match=f"{name} must be in the int64 range, got {bad}$"):
            estimators.estimate_arrays(block, "hill", rows, ks, 0.0)
        with pytest.raises(DomainError, match="k=-9223372036854775808 outside"):
            estimators.estimate_arrays(block, "hill", [0], [-2.0**63], 0.0)


@pytest.mark.parametrize("us, match", [
    ((), "us is empty"),
    ((math.nan,), "u must be finite, got nan"),
    ((1.0, math.nan), "u must be finite, got nan"),
    ((0.0, math.inf), "u must be finite, got inf"),
    ((-math.inf,), "u must be > -1, got -inf"),
])
def test_us_outside_the_domain_are_domain_errors(us, match):
    """An empty us and a u that is not a finite number > -1 are
    DomainErrors on every path: not min()'s ValueError, NaN, or the silent
    0.0 of u = inf; a NaN r, which estimate_arrays passes for a failed row,
    stays a NaN statistic."""
    block = SampleBlock.from_values(np.arange(1.0, 46.0).reshape(3, 15))
    s = Sample.from_values(block.values[1])
    calls = [lambda: stat_g_rows(block, [0, 2], [10, 4], 0.3, us),
             lambda: stat_g_rows(block, 1, 10, 0.3, us)]
    if len(us) == 1:
        calls.append(lambda: stat_g(s, 10, 0.3, us[0]))
    for call in calls:
        with pytest.raises(DomainError, match=match):
            call()
    got = stat_g_rows(block, [0, 0], [10, 10], [math.nan, 0.3], (0.0, 1.0))
    assert np.isnan(got[:, 0]).all() and np.isfinite(got[:, 1]).all()
    assert np.isnan(stat_g_rows(s, 0, 10, math.nan, (0.0, 1.0))).all()


def test_g_record_returns_floats_and_the_tie():
    """The record at (k, r) holds, as Python floats indexed by u, the bits
    of the one-triple stat_g_rows at u = 0 and 1, and 2 at r = 0 (or -0.0),
    and whether X_(1) ties X_(k+1); a k that is not an int is a
    DomainError, also with that k in the memo."""
    s = Sample.from_values([1.0, 2.0, 2.0, 2.0, 5.0, 7.0])
    for k in (2, 3, 4):
        for r, us in ((0.4, (0, 1)), (-0.0, (0, 1, 2)), (0.0, (0, 1, 2)), (-3.0, (0, 1))):
            g, tie = s.g_record(k, r)
            assert tie is False and len(g) == len(us) and all(type(x) is float for x in g)
            assert np.array(g).tobytes() == stat_g_rows(s, 0, k, r, us).tobytes()
    tied = Sample.from_values([2.0, 2.0, 2.0, 1.0])
    assert tied.g_record(2, 0.0) == ((1.0, 0.0, 0.0), True)
    assert tied.g_record(2, 0.5) == ((1.0, 0.0), True)
    with pytest.raises(DomainError, match="k must be an int, got 2.0"):
        tied.g_record(2.0, 0.0)  # also with k = 2 in the memo


_HME_R = 1.0 - (1.0 - 0.3)  # hme's r at beta = 0.7: 0.30000000000000004


@pytest.mark.parametrize("values, script", [
    ("burr", [(40, [0.3])]),
    ("burr", [(40, [0.0, 0.3, -0.25]), (41, [0.0, 0.3, -0.25]), (1500, [-0.25, 0.0, 0.3])]),
    ("burr", [(40, [0.0, 0.3]), (60, [-0.25, 0.3, 1.5]), (80, [0.0, 2.0]), (81, [0.7])]),
    ("burr", [(40, np.linspace(-1.0, 1.0, RECORD_RS + 4).tolist())] * 2
     + [(41, np.linspace(-1.0, 1.0, RECORD_RS + 4).tolist()[::-1])]),
    ("burr", [(40, [0.3, _HME_R]), (41, [_HME_R, 0.3])]),
    ("burr", [(40, [-0.0, 0.3]), (41, [0.0, -0.0]), (42, [0.0])]),
    ("inf-top", [(40, [0.0, 0.3, -0.25]), (41, [-0.25, 0.3, 0.0]), (3, [0.0])]),
], ids=["first-k", "next-k-inherits", "r-set-changes", f"over-{RECORD_RS}-r", "hme-1-beta",
        "signed-zero", "inf-top-log-ratio"])
def test_records_summed_together_are_the_one_r_records(values, script):
    """Whichever r's a k's first call sums in one pass (none before, the
    last k's, a set that changes, more than RECORD_RS, hme's 1 - beta
    beside r, -0.0 and 0.0, r = 0 where the top log-ratio is inf), each
    record equals, bit for bit, a fresh sample's (a one-r pass) and
    stat_g_rows' (at r = 0, where slot 0 holds 1.0, at u = 1 and 2), every
    record the memo keeps too, with no numpy warning."""
    if values == "burr":
        values = sample(DistSpec("burr", 1.0, -1.0), 2000, 13).values
    else:  # X_(1) / X_(k+1) overflows for k >= 3
        values = np.r_[1e300, 1e290, 1e-10, np.arange(1.0, 51.0) * 1e-300]
    s = Sample.from_values(values)

    def same(k, r, got):
        want = Sample.from_values(values).g_record(k, r)
        assert got[1] == want[1] and np.array(got[0]).tobytes() == np.array(want[0]).tobytes()
        if r == 0.0:
            assert len(got[0]) == 3 and got[0][0] == 1.0
            g, us = got[0][1:], (1, 2)
        else:
            assert len(got[0]) == 2
            g, us = got[0], (0, 1)
        assert np.array(g).tobytes() == stat_g_rows(s, 0, k, r, us).tobytes(), (k, r)

    for k, rs in script:
        for r in rs:
            same(k, r, s.g_record(k, r))
        key, _, _, tie, records = s.last_k
        assert key == k and len(records) <= RECORD_RS
        for r, g in records.items():
            same(k, r, (g, tie))


class TestLogMemo:
    """A sample remembers the log-ratios of the last k that a g_record call
    read, with the records of statistics of the r read at that k."""

    def test_order_statistics_and_memo_are_read_only(self):
        s = Sample.from_values([3.0, 1.0, 2.0, 5.0])
        assert s.last_k == (None, None, None, None, {})
        g, _ = s.g_record(2, 0.5)
        key, logs, top, tie, records = s.last_k
        assert key == 2 and tie is False and records == {0.5: g} and records[0.5] is g and len(g) == 2
        assert logs.tolist() == np.log([5.0 / 2.0, 3.0 / 2.0]).tolist() and top == logs[0]
        s.g_record(2, 0.0)  # the same k at r = 0 keeps L and adds a record
        assert s.last_k[1] is logs and s.last_k[4] is records
        assert list(records) == [0.5, 0.0] and records[0.5] is g and len(records[0.0]) == 3
        block = SampleBlock.from_values(np.arange(1.0, 7.0).reshape(2, 3))
        for arr in (s.sorted_desc, s.desc, logs, block.sorted_desc, block.desc):
            with pytest.raises(ValueError, match="read-only"):
                arr[..., 0] = 1.0
        assert s.sorted_desc.tolist() == [5.0, 3.0, 2.0, 1.0]

    def test_a_sweep_over_r_keeps_one_record(self):
        """After g1 at 1,000 distinct r at one k, the memo holds L and the
        records of the first RECORD_RS r, each a fresh sample's, and no
        array but L; the next k sums those r's records, and the estimate
        at any r is a fresh sample's."""
        s = sample(DistSpec("burr", 1.0, -1.0), 2000, 7)
        rs = np.linspace(-2.0, 2.0, 1000).tolist()
        for r in rs:
            estimators.g1(s, 100, r)
        for k in (100, 101):
            key, logs, top, tie, records = s.last_k
            assert key == k and list(records) == rs[:RECORD_RS]
            for r, g in records.items():
                assert g == Sample.from_values(s.values).g_record(k, r)[0]
            assert [type(v) for v in s.last_k].count(np.ndarray) == 1
            assert [type(v) for v in vars(s).values()].count(np.ndarray) == 3  # values, sorted_desc, desc
            for r in rs[-3:]:
                assert estimators.g1(s, k + 1, r) == estimators.g1(Sample.from_values(s.values), k + 1, r)

    def test_an_array_r_is_read_at_each_call(self):
        """A 0-d array r that the caller changes between calls is never
        matched to the memo's r, in the record or in an estimator."""
        s = sample(DistSpec("burr", 1.0, -1.0), 500, 3)
        fresh = Sample.from_values(s.values)
        r = np.array(0.3)
        s.g_record(40, r)
        estimators.g1(s, 40, r)
        r[...] = -0.4
        assert s.g_record(40, r) == fresh.g_record(40, -0.4)
        assert estimators.g1(s, 40, r).gamma_hat == estimators.g1(fresh, 40, -0.4).gamma_hat

    def test_negative_u_on_a_tie_raises_on_a_memo_hit(self):
        """u < 0 where a top value ties the threshold raises on every call,
        also after the other statistics of that (k, r) were summed."""
        s = Sample.from_values([1.0, 2.0, 2.0, 2.0, 5.0])
        for _ in range(2):
            got = stat_g_rows(s, 0, 3, 0.3, (0.0, 1.0))
            with pytest.raises(DegenerateSampleError, match="tie with threshold"):
                stat_g_rows(s, 0, 3, 0.3, (0.0, -0.5))
            assert stat_g_rows(s, 0, 3, 0.3, (0.0, 1.0)).tobytes() == got.tobytes()

    def test_overflowing_log_ratio_keeps_its_nan_at_r_zero(self):
        """The largest ratio overflows to inf: 0 * inf is NaN, so G(k, 0, u)
        stays NaN for every u, on the array path and in the record at r = 0
        (whose u = 0 is 1.0), on its first call and on memo hits; each kind
        at r = 0 raises the error of a non-finite estimate, and stat_g the
        error of a G that is not finite, with no numpy warning, where
        estimate_arrays gives NaN."""
        s = Sample.from_values([1e-300, 1e-299, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                for u in (0.0, 1.0, 2.0, 3.0):
                    with pytest.raises(DegenerateSampleError,
                                       match=f"G\\(k=2, r=0.0, u={u}\\) is not finite: nan"):
                        stat_g(s, 2, 0.0, u)
                assert np.isnan(stat_g_rows(s, 0, 2, 0.0, (0.0, 1.0, 2.0, 3.0))).all()
                assert np.isnan([estimators.estimate_arrays(s, kind, 0, 2, 1.0 if kind == "hme" else 0.0)
                                 for kind in estimators.KINDS]).all()
                g, tie = s.g_record(2, 0.0)
                assert g[0] == 1.0 and np.isnan(g[1:]).all() and tie is False
                for kind in estimators.KINDS:
                    with pytest.raises(DegenerateSampleError, match="non-finite estimate nan"):
                        estimators.evaluate(s, estimators.EstimatorSpec(kind, 2, beta=1.0))

    def test_threads_sharing_a_sample_get_the_serial_estimates(self):
        """Four threads evaluate every kind at alternating k and r on one
        sample, which swaps the memo on nearly every call, with a short switch
        interval; each gets the estimates of a serial run on a fresh sample."""
        s = sample(DistSpec("burr", 1.0, -1.0), 2000, 41)
        calls = [(kind, k, r) for i in range(60) for kind in estimators.KINDS
                 for k, r in (((50, 0.3), (400, -0.4), (400, 0.3), (50, -0.4)) if i % 2
                              else ((400, -0.4), (50, 0.3), (50, -0.4), (400, 0.3)))]

        def run(sample_, order):
            return [estimators.evaluate(sample_, estimators.EstimatorSpec(
                kind, k, r=r, beta=1.0 - r)).gamma_hat for kind, k, r in order]

        orders = [calls[t:] + calls[:t] for t in range(4)]
        fresh = Sample.from_values(s.values)
        want = [run(fresh, order) for order in orders]
        got, errors = [None] * 4, []

        def work(t):
            try:
                got[t] = run(s, orders[t])
            except Exception as exc:  # reported below, as a thread's error is otherwise lost
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads) and not errors
        assert got == want


def _call_bits(fn, s, *args):
    """A call on sample s as bytes, or the class and message of its error;
    an Estimate with the record of statistics s holds at its (k, r), which
    the call has just read."""
    try:
        result = fn(s, *args)
    except GtailError as exc:
        return type(exc), str(exc)
    if isinstance(result, estimators.Estimate):
        spec = result.spec
        # the record is read at the spec's r, but at 0.0 on hme's r = 0 branch,
        # where its spec keeps r = 1 - beta
        r = 0.0 if spec.kind == "hme" and abs(spec.r) < SMALL_R else spec.r
        record, _ = s.g_record(spec.k, r)
        return spec, repr(spec), np.float64(spec.r).tobytes(), result.n, \
            tuple(map(type, record)), np.array([result.gamma_hat, *record]).tobytes()
    return result.tobytes()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60), spread=st.floats(1e-3, 690.0),
       tied=st.booleans(), data=st.data())
def test_memo_calls_are_fresh_calls(seed, n, spread, tied, data):
    """On one sample, any sequence of calls at repeated and interleaved
    (k, r) gives, bit for bit, the result of the same call on a fresh
    sample, or raises the same error with the same message: the whole
    Estimate, its gamma_hat's bits, its spec (the sign of r included) and
    n, and the record of statistics it read, whether evaluate or the kind's
    own function makes it.
    hme takes beta = 1 - p, whose r = 1 - beta can differ from p in the
    last bit."""
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 4, n) if tied else np.exp(rng.uniform(-spread, spread, n))
    s = Sample.from_values(values)
    pool = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
    param = st.one_of(st.sampled_from([0.0, -0.0, 1e-9, -0.5, 0.3, 1.0, -50.0, -1e6]),
                      st.floats(-3.0, 3.0))
    params = data.draw(st.lists(param, min_size=1, max_size=3))
    calls = data.draw(st.lists(st.tuples(st.sampled_from(estimators.KINDS + ("stat_g",)),
                                         st.sampled_from(pool), st.sampled_from(params),
                                         st.booleans()),
                               min_size=1, max_size=12))

    def call(sample_, kind, k, p, direct):
        if kind == "stat_g":
            return stat_g_rows(sample_, 0, k, p, (-0.5, 0.0, 1.0, 2.0, 3.0))
        if direct:
            fn = getattr(estimators, kind)
            return fn(sample_, k) if kind in ("hill", "moment", "moment_ratio") else \
                fn(sample_, k, 1.0 - p if kind == "hme" else p)
        return estimators.evaluate(sample_, estimators.EstimatorSpec(kind, k, r=p, beta=1.0 - p))

    with np.errstate(all="ignore"):
        for kind, k, p, direct in calls:
            assert _call_bits(call, s, kind, k, p, direct) == _call_bits(
                call, Sample.from_values(s.values), kind, k, p, direct), (kind, k, p, direct)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_kinds_at_r_zero_share_one_record(zero):
    """hill and moment read G(k, 0, 1) and G(k, 0, 2) through their r = 0
    branch, and g2 reads G(k, 0, 1) through its tuned branch, all from the
    one record at (k, 0): in either order, and interleaved with g1 at
    another r, each estimate is estimate_arrays', bit for bit."""
    s = sample(DistSpec("burr", 1.0, -1.0), 500, 11)
    at_zero = [("hill", zero), ("moment", zero), ("g2", zero)]
    orders = [at_zero, at_zero[::-1],
              [at_zero[2], ("g1", 0.3), at_zero[0], ("g1", 0.3), at_zero[1], ("g2", zero)]]
    for order in orders:
        for kind, r in order:
            got = estimators.evaluate(s, estimators.EstimatorSpec(kind, 40, r=r)).gamma_hat
            assert np.float64(got).tobytes() == \
                estimators.estimate_arrays(s, kind, 0, 40, r).tobytes(), (order, kind)


def test_a_kind_major_sweep_is_the_k_major_sweep():
    """The memo serves any order: every kind at every (k, r) swept kind by
    kind gives each result of the k-major sweep (every kind at one (k, r),
    then the next r, then the next k), ties and -0.0 included."""
    values = sample(DistSpec("burr", 1.0, -1.0), 300, 5).values
    values[np.argsort(values)[-3:]] = values.max()  # the top 3 tie: k = 2 is a tie
    ks, params = (2, 3, 10, 150, 299), (0.0, -0.0, 1e-9, 0.3, -0.4, 5.0)

    def sweep(order):
        s = Sample.from_values(values)
        return {(kind, k, i): _call_bits(estimators.evaluate, s, estimators.EstimatorSpec(
            kind, k, r=params[i], beta=1.0 - params[i])) for kind, k, i in order}

    k_major = [(kind, k, i) for k in ks for i in range(len(params)) for kind in estimators.KINDS]
    kind_major = [(kind, k, i) for kind in estimators.KINDS for k in ks for i in range(len(params))]
    with np.errstate(all="ignore"):
        assert sweep(kind_major) == sweep(k_major)


@pytest.mark.parametrize("call, error, match", [
    (lambda s: stat_g(s, 10, math.inf, 1.0), DomainError, "r must be finite, got inf"),
    (lambda s: stat_g(s, 10, math.nan, 1.0), DomainError, "r must be finite, got nan"),
    (lambda s: estimators.g1(s, 10, 1e308), DegenerateSampleError, "non-finite estimate nan"),
    (lambda s: estimators.g2(s, 10, -1e308), DegenerateSampleError, "underflows to 0"),
    (lambda s: estimators.g1(s, 1000, 800.0), DegenerateSampleError, "non-finite estimate nan"),
    (lambda s: s.g_record(10, math.nan), None, None),
    (lambda s: estimators.estimate_arrays(s, "g1", [0], [1000], 800.0), None, None),
    (lambda s: estimators.estimate_arrays(s, "g2", [0], [10], -1e308), None, None),
    (lambda s: stat_g(s, 10, 800.0, 0.0), DegenerateSampleError, r"G\(k=10, r=800.0, u=0.0\) is not finite: inf"),
], ids=["stat_g-inf", "stat_g-nan", "g1-1e308", "g2--1e308", "g1-800-k1000", "g_record-nan",
        "estimate_arrays-g1-800-k1000", "estimate_arrays-g2--1e308", "stat_g-800"])
def test_tunings_out_of_range_raise_with_no_warning(call, error, match):
    """A tuning whose exp, product or sum overflows ends in a typed error
    with no numpy RuntimeWarning first, on a memo miss and on a hit; stat_g
    takes only a finite r and raises where G is not finite, a NaN r gives
    NaN statistics, and estimate_arrays gives NaN where the per-sample call
    raises."""
    s = sample(DistSpec("burr", 1.0, -1.0), 2000, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            if error is None:
                assert np.isnan(call(s)[0]).all()
                continue
            with pytest.raises(error, match=match):
                call(s)
