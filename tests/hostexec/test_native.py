"""The native one-pass kernel behind ``engine="parallel"``.

Every result is held to ``np.array_equal`` against the plain double cumsum
in the accumulator dtype — the association the kernel (and its NumPy
fallback) computes — across dtypes, shapes, memory layouts and the
floating-point and integer edge cases.  The build cache is checked for
content addressing, a subprocess-free warm path and concurrent first use.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.hostexec import native
from repro.sat.dtypes import accumulator_dtype
from repro.sat.parallel_host import parallel_sat
from repro.sat.registry import compute_sat

needs_compiler = pytest.mark.skipif(native._compiler() is None,
                                    reason="no C compiler on this host")

DTYPES = ("int8", "int16", "int32", "uint8", "uint16", "uint32", "int64",
          "uint64", "float16", "float32", "float64")
SHAPES = ((1, 1), (1, 37), (37, 1), (4, 4), (5, 7), (6, 3), (7, 9),
          (33, 17), (66, 130))


def oracle(a):
    return a.astype(accumulator_dtype(a.dtype)).cumsum(0).cumsum(1)


def parallel(a):
    return compute_sat(a, engine="parallel").sat


def random_matrix(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    dt = np.dtype(dtype)
    if np.issubdtype(dt, np.floating):
        return (rng.standard_normal(shape) * 100).astype(dt)
    info = np.iinfo(dt)
    return rng.integers(info.min, info.max, size=shape, dtype=dt,
                        endpoint=True)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=got.dtype.kind == "f")
    if got.dtype.kind == "f":
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_matches_double_cumsum(dtype, shape):
    a = random_matrix(shape, dtype)
    assert_same_bits(parallel(a), oracle(a))


@pytest.mark.parametrize("layout", ["fortran", "negative-stride",
                                    "read-only", "column-slice"])
@pytest.mark.parametrize("dtype", ["uint8", "float32", "float64"])
def test_memory_layouts(dtype, layout):
    base = random_matrix((23, 18), dtype, seed=1)
    a = {"fortran": lambda: np.asfortranarray(base),
         "negative-stride": lambda: base[::-1, ::-1],
         "read-only": lambda: base.copy(),
         "column-slice": lambda: base[:, ::2]}[layout]()
    if layout == "read-only":
        a.setflags(write=False)
    snapshot = a.copy()
    assert_same_bits(parallel(a), oracle(a))
    assert np.array_equal(a, snapshot)


@pytest.mark.parametrize("dtype", ["int64", "uint64"])
def test_integer_wraparound_matches_numpy(dtype):
    big = np.iinfo(dtype).max // 3
    a = np.full((9, 11), big, dtype=dtype)
    a[::2, 1::3] = np.iinfo(dtype).min + 5
    with np.errstate(over="ignore"):
        want = oracle(a)
    assert_same_bits(parallel(a), want)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_nan_inf_propagation(dtype):
    a = random_matrix((9, 10), dtype, seed=2)
    a[2, 3] = np.nan
    a[5, 0] = np.inf
    a[0, 7] = -np.inf
    a[7, 8] = np.inf
    with np.errstate(invalid="ignore"):
        want = oracle(a)
    assert_same_bits(parallel(a), want)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_signed_zeros(dtype):
    a = np.full((6, 5), -0.0, dtype=dtype)
    got = parallel(a)
    assert np.signbit(got).all()
    a[3, 2] = 0.0
    assert_same_bits(parallel(a), oracle(a))


@needs_compiler
@pytest.mark.parametrize("pair", native.PAIRS,
                         ids=lambda p: f"{p[0].name}->{p[1].name}")
def test_every_entry_point_matches_double_cumsum(pair):
    src, acc = pair
    kernel = native.load()
    for shape in SHAPES:
        a = random_matrix(shape, src, seed=shape[0])
        with np.errstate(over="ignore"):
            want = a.astype(acc).cumsum(0).cumsum(1)
        assert_same_bits(kernel.sat(a, np.empty(shape, dtype=acc)), want)


@needs_compiler
def test_widening_entry_point_rejects_a_mismatched_pair():
    kernel = native.load()
    a = random_matrix((5, 4), "uint8")
    with pytest.raises(ValueError, match="dtype pair"):
        kernel.sat(a, np.empty((5, 4), dtype=np.uint64))
    with pytest.raises(ValueError, match="dtype pair"):
        kernel.sat(a, np.empty((4, 5), dtype=np.int64))


@needs_compiler
def test_kernel_runs_in_place_and_rejects_partial_overlap():
    a = random_matrix((13, 9), "float64", seed=3)
    want = oracle(a)
    kernel = native.load()
    same = a.copy()
    assert kernel.sat(same, same) is same
    assert_same_bits(same, want)
    buf = np.zeros(a.size + 1)
    with pytest.raises(ValueError, match="overlaps"):
        kernel.sat(buf[:-1].reshape(a.shape), buf[1:].reshape(a.shape))


def test_unkernelled_accumulator_uses_numpy():
    a = random_matrix((10, 7), "int16", seed=4)
    got = parallel_sat(a, dtype_policy=np.int32)
    want = a.astype(np.int32).cumsum(0, dtype=np.int32) \
        .cumsum(1, dtype=np.int32)
    assert_same_bits(got, want)


def test_fallback_warns_once_with_same_bits(monkeypatch):
    def unavailable(*args, **kwargs):
        raise native.NativeUnavailable("no C compiler found")
    monkeypatch.setattr(native, "_kernel", None)
    monkeypatch.setattr(native, "_failure", None)
    monkeypatch.setattr(native, "load", unavailable)
    a = random_matrix((11, 6), "float32", seed=5)
    b = random_matrix((7, 12), "uint8", seed=6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got_a, got_b = parallel(a), parallel(b)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "native SAT kernel is unavailable" in str(caught[0].message)
    assert_same_bits(got_a, oracle(a))
    assert_same_bits(got_b, oracle(b))


@needs_compiler
def test_parallel_runs_the_kernel(monkeypatch):
    kernel = native.kernel()
    assert kernel is not None
    calls = []
    original = native.NativeKernel.sat

    def counting_sat(self, a, out):
        calls.append((a.dtype.name, out.dtype.name))
        return original(self, a, out)
    monkeypatch.setattr(native.NativeKernel, "sat", counting_sat)
    for dtype in ("uint8", "float32"):
        a = random_matrix((8, 8), dtype)
        assert_same_bits(parallel(a), oracle(a))
    # The uint8 input is read directly: no widened int64 copy first.
    assert calls == [("uint8", "int64"), ("float32", "float32")]


@needs_compiler
def test_changed_source_builds_new_library(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    source = tmp_path / "native.c"
    source.write_bytes(Path(native.SOURCE).read_bytes())
    first = native.load(str(source))
    source.write_bytes(source.read_bytes() + b"\n/* edited */\n")
    second = native.load(str(source))
    assert first.path != second.path
    assert os.path.dirname(first.path) == str(tmp_path / "cache" / "repro")
    a = random_matrix((9, 5), "float64")
    for k in (first, second):
        assert_same_bits(k.sat(a, np.empty_like(a)), oracle(a))

    def no_subprocess(*args, **kwargs):
        raise AssertionError("the warm path started a subprocess")
    monkeypatch.setattr(subprocess, "run", no_subprocess)
    assert native.load(str(source)).path == second.path


def test_cache_writable_by_others_is_refused(tmp_path, monkeypatch):
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o777)
    monkeypatch.setattr(native, "cache_dirs", lambda: [str(shared)])
    monkeypatch.setattr(native, "_compiler", lambda: "/bin/false")
    with pytest.raises(native.NativeUnavailable, match="other users"):
        native.load()


@needs_compiler
def test_concurrent_first_use(tmp_path):
    script = (
        "import numpy as np\n"
        "from repro.hostexec import native\n"
        "k = native.load()\n"
        "a = np.random.default_rng(0).random((37, 29))\n"
        "assert np.array_equal(k.sat(a, np.empty_like(a)),"
        " a.cumsum(0).cumsum(1))\n"
        "print(k.path)\n")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    procs = [subprocess.Popen([sys.executable, "-c", script], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for _ in range(2)]
    results = [p.communicate(timeout=300) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], results
    paths = {out.strip() for out, _ in results}
    assert len(paths) == 1
    assert sorted(os.listdir(tmp_path / "repro")) \
        == [os.path.basename(paths.pop())]
