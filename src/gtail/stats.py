"""Core order-statistic machinery: samples and the power-log statistic family.

A :class:`SampleBlock` stacks equal-size samples of strictly positive
observations as rows and caches their descending order statistics (every
estimator re-reads prefixes of the sorted data for varying tail sizes
``k``), which are read-only. A :class:`Sample` is the one-row block, with
1-D ``values`` and ``sorted_desc``, so every array form also takes one
sample as its row 0. A per-sample read takes one Sample, and
:func:`one_sample` makes a block, even of one row, a DomainError there.

The statistic G_n(k, r, u) is the mean of
``(X_(i) / X_(k+1))^r * ln(X_(i) / X_(k+1))^u`` over the ``k`` largest
observations ``X_(1) >= ... >= X_(k)``, with ``X_(k+1)`` the threshold.
Classical tail-index estimators (Hill, moment, moment ratio) and their
generalizations are all simple functions of these statistics. Its one
array form is :func:`stat_g_rows`, which also serves one triple and
:func:`stat_g`. The per-sample estimators read :meth:`SampleBlock.g_record`
instead: the few statistics every kind reads at one (k, r), kept in a memo
of the last k with a table of its records by r. A k-plot reads every kind
at a few r at one k, then the same r at the next k; so it takes the logs
once per k, and from its second k on, the exp and the sums of every r in
one pass per k.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import DegenerateSampleError, DomainError, ParseError

# Below this magnitude of r the exact r=0 branch is used: the cancellation in
# (x^r - 1)/r destroys precision long before underflow.
SMALL_R = 1e-8

#: The context of a computation that cannot overflow: numpy's error state
#: as it is.
_NO_ERRSTATE = contextlib.nullcontext()


#: The most tunings r whose records :meth:`SampleBlock.g_record` keeps for
#: one k; a k-plot reads 4 to 7 (r = 0, and each r and hme's 1 - beta).
RECORD_RS = 8


@dataclass(frozen=True, eq=False)
class SampleBlock:
    """Equal-size samples stacked as rows, shape (rows, n), for steps that
    run on many replications at once; row i holds the arrays that
    ``Sample.from_values(values[i])`` would. ``desc`` is ``sorted_desc`` as
    (rows, n), a Sample's too, stored at construction so no call reshapes;
    both are read-only. ``n``, the sample size, is stored too.

    ``last_k`` is a memo of one entry, ``(k, L, top, tie, records)``, of the
    last k that a :meth:`g_record` call read on a Sample: the read-only
    log-ratios L = ln(X_(i) / X_(k+1)), i = 1..k; the largest of them as a
    float; whether the top k values all tie the threshold; and a dict from
    each r read at this k (at most :data:`RECORD_RS` of them) to its
    record. A call at another k makes a new entry, whose records are those
    of every r the last k read, summed in one pass, as a k-plot reads the
    same r at each k. The entry is swapped as one tuple, and its dict only
    gains records of its own L, so a thread never reads a record of another
    k."""

    values: np.ndarray
    sorted_desc: np.ndarray
    desc: np.ndarray = field(init=False, repr=False)
    n: int = field(init=False, repr=False)
    last_k: tuple = field(default=(None, None, None, None, {}), init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "desc", np.atleast_2d(self.sorted_desc))
        object.__setattr__(self, "n", self.values.shape[-1])

    @property
    def rows(self) -> int:
        return self.desc.shape[0]

    @classmethod
    def from_values(cls, values) -> "SampleBlock":
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 2:
            raise DomainError(f"a sample block needs a 2-D array, got {arr.ndim}-D")
        return cls(arr, _order_statistics(arr))

    def g_record(self, k: int, r: float) -> tuple[tuple, bool]:
        """The statistics the estimators read at (k, r) on a Sample, as a tuple
        g of Python floats indexed by u: G(k, r, 0) and G(k, r, 1), and at
        r = 0 also G(k, 0, 2), where g[0] is 1.0; and whether the top k
        values all tie the threshold X_(k+1). Each G is, bit for bit,
        :func:`stat_g_rows`'s, as every r, 0 too, takes its kernel
        exp(r L) L^u (see :func:`_g_records`). A record in the memo's entry
        for k is reused (r is read as a float, and matched by value, as
        hme's 1 - beta can differ from r in the last bit). The first call at
        a k sums the records of this r and of every r the last k read in one
        pass; a later r at that k is summed alone. A block, or a k that is
        not an int or is outside [2, n-1], is a DomainError where a k is
        read. No numpy warning escapes: what overflows is inf, and 0 * inf
        is NaN."""
        r = float(r)
        entry = self.last_k
        if entry[0] != k or not (type(k) is int or isinstance(k, np.integer)):
            one_sample(self)
            if not isinstance(k, (int, np.integer)):
                raise DomainError(f"k must be an int, got {k!r}")
            _check_k(self.n, k)
            d = self.desc[0]
            hi, lo = float(d[0]), float(d[k])
            # the largest ratio can overflow
            with _NO_ERRSTATE if hi / lo < math.inf else np.errstate(over="ignore"):
                logs = np.log(d[:k] / d[k])
            logs.flags.writeable = False
            rs = [*entry[4]]
            if r not in entry[4] and len(rs) < RECORD_RS:
                rs.append(r)
            top = float(logs[0])
            entry = (k, logs, top, hi == lo, dict(zip(rs, _g_records(logs, top, rs))))
            object.__setattr__(self, "last_k", entry)
        records = entry[4]
        g = records.get(r)
        if g is None:
            (g,) = _g_records(entry[1], entry[2], [r])
            if len(records) < RECORD_RS:
                records[r] = g
        return g, entry[3]


def _g_records(logs: np.ndarray, top: float, rs: list) -> list:
    """SampleBlock.g_record's record at each float r of rs, in order, from the
    log-ratios L, whose largest is top, in one pass. One (rows, k) buffer
    holds exp(r L) for each r, then exp(r L) L for each r, then, if 0.0 or
    -0.0 is in rs, (exp(0 L) L) L: every r, 0 too, takes the kernel of
    stat_g_rows, and exp(0 L) is 1.0, or NaN where L is inf. One
    np.add.reduce sums each row as its own sum, and each sum is divided by
    k as a float, the bits of numpy's division; the record at r = 0 is
    (1.0, G(k, 0, 1), G(k, 0, 2))."""
    k, m = logs.size, len(rs)
    buf = np.empty((2 * m + (0.0 in rs), k))
    # below 600, no exp, product or sum of k terms can overflow
    safe = all(abs(r) * top < 600.0 for r in rs)
    with _NO_ERRSTATE if safe else np.errstate(over="ignore", invalid="ignore"):
        e = np.multiply.outer(rs, logs, out=buf[:m])
        np.exp(e, out=e)
        np.multiply(e, logs, out=buf[m: 2 * m])
        if 0.0 in rs:
            np.multiply(buf[m + rs.index(0.0)], logs, out=buf[-1])
        sums = np.add.reduce(buf, axis=1).tolist()
    return [(1.0, sums[m + i] / k, sums[-1] / k) if r == 0.0 else (sums[i] / k, sums[m + i] / k)
            for i, r in enumerate(rs)]


class Sample(SampleBlock):
    """Immutable positive-valued sample with cached descending order
    statistics: the one-row block, whose values and sorted_desc are 1-D."""

    @classmethod
    def from_values(cls, values) -> "Sample":
        """One sample from a 1-D array or a single row; several rows are a
        DomainError (SampleBlock.from_values stacks them)."""
        arr = np.asarray(values, dtype=float)
        if arr.ndim > 1 and arr.size != arr.shape[-1]:
            raise DomainError(f"shape {arr.shape} is several samples: use SampleBlock.from_values")
        arr = arr.ravel()
        return cls(arr, _order_statistics(arr))

    @classmethod
    def from_file(cls, path) -> "Sample":
        """Read one numeric value per line; a non-numeric first line is a
        header and blank lines are skipped.

        numpy's loadtxt parses a well-formed file; anything it rejects or
        reads as other than one column (a bad line, several values on a line,
        no values, or a number only float() reads, such as ``1_000``) is read
        again line by line, which reports the first bad line, or raises
        ParseError for bytes that are not UTF-8.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                header = _is_header(fh.readline())
            # loadtxt parses a path faster than a text handle
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns on a file without data
                arr = np.loadtxt(path, comments=None, skiprows=int(header), ndmin=2,
                                 encoding="utf-8")
        except ValueError:
            arr = None
        if arr is None or arr.shape[0] == 0 or arr.shape[1] != 1:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    return cls.from_values(_parse_lines(fh))
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
        return cls.from_values(arr[:, 0])


def one_sample(s: SampleBlock) -> Sample:
    """s, checked to be one Sample: every per-sample read starts here, and
    a SampleBlock, even of one row, is a DomainError."""
    if not isinstance(s, Sample):
        raise DomainError(f"expected one Sample, got {type(s).__name__}")
    return s


def _is_header(line: str) -> bool:
    line = line.strip()
    try:
        float(line)
    except ValueError:
        return bool(line)
    return False


def _parse_lines(fh) -> list[float]:
    """One float per non-blank line; ParseError at the first line that is
    not a number, unless it is the first line (a header)."""
    values = []
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
    return values


def _order_statistics(arr: np.ndarray) -> np.ndarray:
    """Checked descending order statistics along the last axis, read-only,
    so that no log-ratio memo outlives the data it was taken from."""
    if arr.shape[-1] < 3:
        raise DomainError(f"sample needs at least 3 observations, got {arr.shape[-1]}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("sample contains non-finite values")
    if np.any(arr <= 0.0):
        bad = float(arr[arr <= 0.0][0])
        raise DomainError(f"sample contains non-positive value {bad}; all observations must be > 0")
    desc = np.sort(arr, axis=-1)[..., ::-1].copy()
    desc.flags.writeable = False
    return desc


def _check_k(n: int, k: int) -> None:
    if not (2 <= k <= n - 1):
        raise DomainError(f"k={k} outside [2, n-1] for n={n}")


def int_array(values, name: str) -> np.ndarray:
    """values as an int array; a value that is not integral, or not in the
    int64 range, raises DomainError naming it, and an integral float is
    that int."""
    arr = np.asarray(values)
    if arr.dtype.kind == "O":  # such as a Python int beyond 64 bits
        for v in arr.flat:
            if isinstance(v, (int, np.integer)) and not -2**63 <= v < 2**63:
                raise DomainError(f"{name} must be in the int64 range, got {v}")
        arr = arr.astype(float)
    if arr.dtype.kind not in "biu":
        whole = np.isfinite(arr) & (np.floor(arr) == arr)
        if not whole.all():
            raise DomainError(f"{name} must be integral, got {arr[~whole].flat[0]}")
        # -2^63 and 2^63 are floats; every integral float in between casts exactly
        wide = (arr < -2.0**63) | (arr >= 2.0**63)
        if wide.any():
            raise DomainError(f"{name} must be in the int64 range, got {arr[wide].flat[0]}")
    elif arr.dtype.kind == "u" and arr.size and arr.max() > np.iinfo(np.int64).max:
        raise DomainError(f"{name} must be in the int64 range, got {arr.max()}")
    return arr.astype(int)


def _check_u(us, logs: np.ndarray) -> None:
    """DomainError for an empty us or a u that is not a finite number > -1,
    and DegenerateSampleError for a u < 0 where a log-ratio is 0."""
    if not len(us):
        raise DomainError("us is empty: give at least one u")
    u_min = min(us)
    if u_min <= -1:
        raise DomainError(f"u must be > -1, got {u_min}")
    for u in us:
        if not u < math.inf:  # NaN too
            raise DomainError(f"u must be finite, got {u}")
    if u_min < 0 and np.any(logs == 0.0):
        raise DegenerateSampleError("tie with threshold makes ln^u undefined for u < 0")


def stat_g(s: Sample, k: int, r: float, u: float) -> float:
    """Mean of the power-log kernel over the top-k ratios: G_n(k, r, u), the
    one-u call of :func:`stat_g_rows` on one Sample, as a float. A block or
    an r that is not finite is a DomainError, and a G that is not finite (it
    overflows, or the largest ratio does) a DegenerateSampleError."""
    one_sample(s)
    if not math.isfinite(r):
        raise DomainError(f"r must be finite, got {r}")
    g = float(stat_g_rows(s, 0, k, r, (u,))[0])
    if not math.isfinite(g):
        raise DegenerateSampleError(f"G(k={k}, r={r}, u={u}) is not finite: {g}")
    return g


def stat_g_rows(s: SampleBlock, rows, ks, r, us) -> np.ndarray:
    """G_n(k, r, u) at (row, k, r) triples of a block, for each u > -1 in us.

    rows and ks are two ints (one triple: shape (len(us),)) or two
    equal-length sequences (shape (len(us), triples), with no column for no
    triples); rows may repeat, a Sample is the block whose one row is 0, and
    r is a scalar or one value per triple; other shapes, a row or k that is
    not integral (an integral float is that int) and a row outside the
    block raise DomainError, and so do an empty us and a u that is not a
    finite number > -1. A tie with the threshold contributes the kernel's
    limit at 1 for u >= 0 and makes the statistic undefined for u < 0.

    The kernel reads the log of each ratio X_(i) / X_(k+1), so an exact
    rescaling of the sample leaves it bit-identical. Each triple's terms are
    summed, per u, by the pairwise sum of np.mean (a padded or segmented sum
    rounds differently); the triples go through exp and the powers as one
    flat array. As in :meth:`SampleBlock.g_record`, no numpy warning
    escapes: what overflows is inf, and 0 * inf is NaN.
    """
    if np.ndim(ks) == 0:
        if not isinstance(rows, (int, np.integer)) or not isinstance(ks, (int, np.integer)):
            raise DomainError(f"one triple needs one int row and one int k, got {rows!r} and {ks!r}")
        return stat_g_rows(s, [rows], [ks], r, us)[:, 0]
    ks = int_array(ks, "k").tolist()
    if np.shape(rows) != (len(ks),) or np.ndim(r) and np.shape(r) != (len(ks),):
        raise DomainError(f"rows, ks and an array r need one entry per triple, got shapes "
                          f"{np.shape(rows)}, {np.shape(ks)} and {np.shape(r)}")
    if not ks:
        return np.empty((len(us), 0))
    if min(ks) < 2 or max(ks) > s.n - 1:
        _check_k(s.n, min(ks) if min(ks) < 2 else max(ks))
    desc, rows = s.desc, int_array(rows, "row")
    if rows.min() < 0 or rows.max() >= s.rows:
        row = rows.min() if rows.min() < 0 else rows.max()
        raise DomainError(f"row {row} outside [0, {s.rows}) for a block of {s.rows} rows")
    top = np.concatenate([desc[i, :k] for i, k in zip(rows.tolist(), ks)])
    if np.ndim(r):
        r = np.repeat(r, ks)
    with np.errstate(over="ignore", invalid="ignore"):
        logs = np.log(top / np.repeat(desc[rows, ks], ks))
        _check_u(us, logs)
        e = np.exp(r * logs)
        terms = np.empty((len(us), logs.size))
        for a, u in enumerate(us):
            terms[a] = e if u == 0 else e * logs**u
        ends = list(accumulate(ks))
        sums = [np.add.reduce(terms[:, lo:hi], axis=1) for lo, hi in zip([0] + ends[:-1], ends)]
    return np.array(sums).T / ks


#: Elements (rows x columns) of one tile of :func:`log_moment_profile`. Its
#: scratch buffer is six tiles and a row of k, at most 1.3 MiB, within a
#: 2 MiB L2 cache, and a 256 KiB Monte-Carlo block (32 rows at n = 1000)
#: takes one tile before the k range and one in it.
PROFILE_TILE = 3 << 13


def log_moment_profile(s: SampleBlock, lo: int, hi: int, out: np.ndarray, fill) -> np.ndarray:
    """G_n(k, 0, u) for u = 1, 2, 3 and every k in [lo, hi], tile by tile.

    The sweep reads the descending order statistics in tiles of about
    :data:`PROFILE_TILE` elements (rows x columns), first the columns before
    lo, then those from lo to hi. Each tile takes the logs L of its columns
    and runs the prefix sums of L, L^2 and L^3 with the previous tile's
    last sums as their first elements, so that each is the sequential sum of
    a whole-row cumsum to the last bit; the full k-sweep costs O(n) instead
    of O(n^2). Rows are those of a block, one row for a Sample.

    For each tile of w consecutive k from lo on, ``fill(g, spare, dst)``
    gets g, three (rows, w + 1) arrays with the statistics at u = 1, 2, 3,
    spare, three more arrays of that shape, and dst, the tile's w columns
    of out (the last axis of out runs over k). The last column of g is the
    first k after the tile (a finite placeholder where that k is n), so
    that each array is one contiguous run; fill computes along and drops
    it. g and spare are views of one scratch buffer allocated per call;
    fill may overwrite them, and they are reused after it returns. Returns
    out.
    """
    n = s.n
    if not 2 <= lo <= hi <= n - 1:
        raise DomainError(f"k range [{lo}, {hi}] outside [2, n-1] for n={n}")
    if out.shape[-1] != hi - lo + 1:
        raise DomainError(f"out has {out.shape[-1]} k columns, expected {hi - lo + 1}")
    desc, rows = s.desc, s.rows
    width = min(max(1, PROFILE_TILE // rows - 1), max(lo, hi - lo + 1))
    # per tile of w columns, each (rows, w + 1): the prefix sums of L, L^2 and
    # L^3 after the carried sums; L; two temporaries; and the tile's k
    size = 6 * rows * (width + 1)
    buf = np.empty(size + width + 1)
    scratch, kf = buf[:size], buf[size:]
    carry = np.zeros((3, rows, 1))

    def prefix_sums(c0: int, w: int) -> np.ndarray:
        """The scratch of the w columns from c0, holding at [u, :, j] the
        prefix sum of L^(u+1) over the top c0 + j values for j = 0..w, and
        at [3, :, j] the log of column c0 + j."""
        # one contiguous run, so that no ufunc copies an operand
        tile = scratch[: 6 * rows * (w + 1)].reshape(6, rows, w + 1)
        sums, L, t = tile[:3], tile[3], tile[4]
        got = min(w + 1, n - c0)
        np.log(desc[:, c0: c0 + got], out=L[:, :got])
        L[:, got:] = L[:, got - 1: got]  # past the last column, a placeholder
        sums[:, :, :1] = carry
        np.copyto(sums[0, :, 1:], L[:, :w])
        # cubes by multiplication: numpy's power is several times slower on
        # the negative logs of values below 1
        np.copyto(sums[1, :, 1:], np.multiply(L, L, out=t)[:, :w])
        np.copyto(sums[2, :, 1:], np.multiply(t, L, out=t)[:, :w])
        np.cumsum(sums, axis=2, out=sums)
        np.copyto(carry, sums[:, :, w:])
        return tile

    for c0 in range(0, lo, width):
        prefix_sums(c0, min(width, lo - c0))
    np.copyto(kf, np.arange(lo, lo + width + 1))
    for c0 in range(lo, hi + 1, width):
        w = min(width, hi + 1 - c0)
        p1, p2, p3, L, t, spare = prefix_sums(c0, w)
        k = kf[: w + 1]
        # (p3 - 3 Lk p2 + 3 Lk^2 p1 - k Lk^3) / k, with Lk = L = ln X_(k+1)
        np.multiply(L, 3.0, out=t)
        np.multiply(t, p2, out=t)
        np.subtract(p3, t, out=p3)
        np.multiply(L, L, out=t)
        np.multiply(t, 3.0, out=t)
        np.multiply(t, p1, out=t)
        np.add(p3, t, out=p3)
        np.multiply(L, L, out=t)
        np.multiply(t, L, out=t)
        np.multiply(t, k, out=t)
        np.subtract(p3, t, out=p3)
        np.divide(p3, k, out=p3)
        # (p2 - 2 Lk p1 + k Lk^2) / k
        np.multiply(L, 2.0, out=t)
        np.multiply(t, p1, out=t)
        np.subtract(p2, t, out=p2)
        np.multiply(L, L, out=t)
        np.multiply(t, k, out=t)
        np.add(p2, t, out=p2)
        np.divide(p2, k, out=p2)
        # (p1 - k Lk) / k
        np.multiply(L, k, out=t)
        np.subtract(p1, t, out=p1)
        np.divide(p1, k, out=p1)
        fill((p1, p2, p3), (L, t, spare), out[..., c0 - lo: c0 - lo + w])
        kf += width
    return out
