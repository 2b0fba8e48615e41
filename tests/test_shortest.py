"""The column writer `_shortest` against `repr`, and `csv_text` with it against
the `repr` writer, byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpcsim
from qpcsim import _shortest, simulate
from qpcsim.simulate import csv_text


def column_text(x) -> list[str]:
    """Each element of `x` as `_shortest` writes a one-column table."""
    return "".join(_shortest.rows_text([np.asarray(x, dtype=np.float64)])).splitlines()


def assert_reprs(x):
    x = np.asarray(x, dtype=np.float64)
    got, want = column_text(x), list(map(repr, x.tolist()))
    bad = [(w, g) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not bad, f"{len(bad)} differ, e.g. (repr, fill) {bad[:5]}"


def with_neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    return np.concatenate([x, -x])


def test_a_million_random_bit_patterns():
    x = np.random.default_rng(20261019).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
    x = np.concatenate([x.view(np.float64), [np.inf, -np.inf]])  # one pattern each
    assert np.isnan(x).sum() > 100
    assert ((x != 0) & (np.abs(x) < np.finfo(float).tiny)).sum() > 100  # subnormals
    assert_reprs(x)


def test_every_power_of_two_and_of_ten_and_their_neighbours():
    assert_reprs(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))
    assert_reprs(with_neighbours([float(f"1e{k}") for k in range(-323, 309)]))


def test_signed_zeros_and_non_finite():
    assert column_text([0.0, -0.0, np.inf, -np.inf, np.nan]) == ["0.0", "-0.0", "inf", "-inf", "nan"]


def test_integers_up_to_2_to_the_53():
    rng = np.random.default_rng(7)
    whole = np.concatenate([np.arange(-2000, 2001), rng.integers(0, 2 ** 53, 100_000),
                            [2 ** 53 - 1, 2 ** 53], 2 ** np.arange(54), 10 ** np.arange(16)])
    assert_reprs(whole.astype(np.float64))


@pytest.mark.parametrize("digits", range(1, 18))
def test_decimals_of_1_to_17_digits(digits):
    rng = np.random.default_rng(digits)
    mantissas = rng.integers(10 ** (digits - 1), 10 ** digits, 4000, dtype=np.int64)
    exponents = rng.integers(-340, 30, 4000)
    assert_reprs([float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())])


def test_layout_edges():
    # positional down to 1e-4, then d.ddde-05; positional up to 1e16, then
    # d.ddde+16; repr one value at a time from 2^50 up
    assert_reprs(with_neighbours([1e-4, 1e-5, 9.999999999999999e-05, 1e15, 1e16,
                                  9999999999999998.0, 2.0 ** 50, 2.0 ** 50 - 0.5, 2.0 ** 53,
                                  0.5, 1.5, 0.1, 0.3, 5e-324, 2.2250738585072014e-308]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_any_floats(values):
    assert_reprs(values)


def repr_writer_text(title, header, names, columns) -> str:
    lines = [f"# {title}\n", *(f"# {k}={v!r}\n" for k, v in header.items()), f"{names}\n"]
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return "".join(lines + [",".join(map(repr, row)) + "\n" for row in rows])


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("edge", ["threshold", "block", "two blocks"])
def test_csv_text_of_long_float_tables_is_the_repr_writers(edge, offset):
    rows = {"threshold": simulate._FLOAT_ROWS, "block": _shortest.BLOCK_ROWS,
            "two blocks": 2 * _shortest.BLOCK_ROWS}[edge] + offset
    rng = np.random.default_rng(rows)
    events = np.column_stack([np.cumsum(rng.exponential(50.0, rows)), rng.exponential(2e-3, rows)])
    columns = (-60.0 + 0.5 * np.arange(rows), rng.normal(1.0, 0.005, rows),
               *events.T,  # strided views
               rng.normal(size=rows).astype(np.float32))
    for n in (1, 2, 5):
        names = ",".join(f"c{j}" for j in range(n))
        assert csv_text("t", {"x": 1.5}, (None, names, columns[:n])) \
            == repr_writer_text("t", {"x": 1.5}, names, columns[:n])


@pytest.mark.parametrize("rows,calls", [(simulate._FLOAT_ROWS - 1, 0), (simulate._FLOAT_ROWS, 2)])
def test_csv_text_writes_float_tables_from_the_threshold_on(monkeypatch, rows, calls):
    seen = []
    fill = _shortest.fill
    monkeypatch.setattr(_shortest, "fill", lambda *args: seen.append(1) or fill(*args))
    column = np.linspace(-1.5, -1.2, rows)
    csv_text("t", {}, (None, "a,b", (column, column)))
    csv_text("t", {}, (None, "a,b", (column, list(column))))  # not all float arrays
    assert len(seen) == calls


def test_only_a_command_that_writes_a_long_float_table_imports_the_writer(tmp_path):
    # a process that does not cache bytecode compiles the module on import
    code = ("import sys; from qpcsim.cli import main; "
            f"codes = [main(['sweep', '--out', {str(tmp_path)!r}]), "
            "'qpcsim._shortest' in sys.modules, "
            f"main(['expose', '--duration', '600', '--out', {str(tmp_path)!r}])]; "
            "print(*codes, 'qpcsim._shortest' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(qpcsim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False 0 True"  # 601 rows, then 1,321


def three_decimals(m):
    """The doubles nearest m / 10^3, as the exposure clock makes them."""
    return np.asarray(m, dtype=np.float64) / 1e3


def test_short_decimals_and_their_edges():
    m = np.concatenate([[1, 999, 1000, 1001, 10 ** 15 - 1, 10 ** 15, 10 ** 15 + 1],
                        np.random.default_rng(3).integers(1, 10 ** 15, 20_000)])
    assert three_decimals([1, 10 ** 15 - 1]).tolist() == [0.001, 999_999_999_999.999]
    assert_reprs(with_neighbours(three_decimals(m)))  # one ULP either side, and negated


@pytest.mark.parametrize("first,rest", [("short", "long"), ("long", "short"), ("short", "mixed")])
def test_blocks_that_start_with_one_kind_and_hold_another(first, rest, monkeypatch):
    rng = np.random.default_rng(11)
    kinds = {"short": three_decimals(rng.integers(-10 ** 9, 10 ** 9, 3 * _shortest.BLOCK_ROWS))}
    kinds["long"] = rng.normal(1.0, 0.005, kinds["short"].size)
    kinds["mixed"] = np.where(rng.random(kinds["short"].size) < 0.5, kinds["short"], kinds["long"])
    column = kinds[rest].copy()
    column[::_shortest.BLOCK_ROWS] = kinds[first][0]  # the first and last values of every block
    column[_shortest.BLOCK_ROWS - 1::_shortest.BLOCK_ROWS] = kinds[first][1]
    # every block holds a long value, so every block goes through Ryū whole
    assert decimal_rows(monkeypatch, column) == column.size


def decimal_rows(monkeypatch, column):
    """How many rows `_shortest._decimal` sees while `column` is written."""
    seen = []
    decimal = _shortest._decimal
    monkeypatch.setattr(_shortest, "_decimal", lambda bits, t: seen.append(bits.size)
                        or decimal(bits, t))
    assert_reprs(column)
    return sum(seen)


def test_the_exposure_clock_skips_ryu_and_a_noisy_column_does_not(default_exposure,
                                                                  monkeypatch):
    trace, _ = default_exposure
    assert decimal_rows(monkeypatch, trace.times) == 0
    assert decimal_rows(monkeypatch, trace.conductance) == trace.conductance.size
