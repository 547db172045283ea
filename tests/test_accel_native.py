"""The compiled layer loop nest: build, cache, load and fallback.

``repro.accel.native`` builds ``kernel.c`` at first use, caches it per
user and falls back to the numpy kernel when that fails.  These tests
pin the loader's contract — the cache key, racing cold builds, damaged
cache entries, the flags, one warning on fallback — that both
kernels decode bit for bit alike, the compiled one in-process and the
numpy fallback through the unchanged golden, differential,
engine-width, engine and batch-kernel suites, and that the compiled
loop refuses foreign state and writes only inside the state it is
handed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.accel import native
from repro.codes.registry import default_registry
from repro.errors import DecodingError
from repro.serve import BatchLayeredMinSumDecoder
from repro.utils.provenance import bench_meta

pytestmark = pytest.mark.accel

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A cold loader with a private cache; the session's kernel returns
    afterwards."""
    saved = (native._kernel, native._reason)
    monkeypatch.setattr(native, "cache_dir", lambda: tmp_path)
    native._reset()
    yield tmp_path
    native._kernel, native._reason = saved


def _no_compiler(monkeypatch):
    monkeypatch.setattr(native, "_find_compiler", lambda: None)


def test_the_session_decodes_on_the_compiled_kernel():
    # a silent fallback would leave only the numpy path tested
    assert native.load() is not None, native.fallback_reason()


def test_flags_keep_float_bit_exact():
    assert "-ffp-contract=off" in native.FLAGS
    assert "-ffast-math" not in native.FLAGS
    assert "-Ofast" not in native.FLAGS


def test_cache_key_tracks_source_flags_compiler_and_cpu():
    base = native.cache_key(b"src", ("-O3",), "gcc 12", "avx2")
    assert base == native.cache_key(b"src", ("-O3",), "gcc 12", "avx2")
    assert base != native.cache_key(b"src2", ("-O3",), "gcc 12", "avx2")
    assert base != native.cache_key(b"src", ("-O2",), "gcc 12", "avx2")
    assert base != native.cache_key(b"src", ("-O3", "-g"), "gcc 12", "avx2")
    assert base != native.cache_key(b"src", ("-O3",), "gcc 13", "avx2")
    assert base != native.cache_key(b"src", ("-O3",), "gcc 12", "avx512f")


def test_library_path_follows_the_source(fresh_loader, monkeypatch, tmp_path):
    before = native._build_plan().path
    edited = tmp_path / "kernel.c"
    edited.write_bytes(native.SOURCE.read_bytes() + b"\n/* edit */\n")
    monkeypatch.setattr(native, "SOURCE", edited)
    assert native._build_plan().path != before


def test_no_compiler_falls_back_with_one_warning(fresh_loader, monkeypatch):
    _no_compiler(monkeypatch)
    with pytest.warns(RuntimeWarning, match="no C compiler") as record:
        assert native.load() is None
        assert native.load() is None
    assert len(record) == 1
    assert "no C compiler" in native.fallback_reason()
    assert native.kernel_info() == "numpy"
    assert bench_meta("accel")["kernel"] == "numpy"


def test_provenance_names_the_compiled_kernel():
    info = bench_meta("accel")["kernel"]
    assert info["flags"] == list(native.FLAGS)
    assert info["compiler"]
    assert len(info["source_sha256"]) == 64


def test_racing_cold_loads_build_once(fresh_loader, monkeypatch):
    # four threads: more than a 2-core CI runner has cores
    builds = []
    compile_ = native._compile

    def counting(*args):
        builds.append(args)
        compile_(*args)

    monkeypatch.setattr(native, "_compile", counting)
    barrier = threading.Barrier(4)
    got = []

    def worker():
        barrier.wait()
        got.append(native.load())

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert len(got) == 4 and got[0] is not None
    assert all(kernel is got[0] for kernel in got)
    assert len(builds) == 1


def test_racing_cold_builds_leave_one_library(fresh_loader):
    # below the in-process lock, as separate processes would race: each
    # compiles and renames its own temporary file into place
    barrier = threading.Barrier(3)
    got = []

    def worker():
        barrier.wait()
        got.append(native._build_and_load())

    threads = [threading.Thread(target=worker) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert len(got) == 3
    assert all(kernel.path == got[0].path for kernel in got)
    assert sorted(p.name for p in fresh_loader.iterdir()) == [got[0].path.name]


@pytest.fixture(scope="module")
def library_head():
    """The first 512 bytes of the session's built library."""
    kernel = native.load()
    if kernel is None:
        pytest.skip(f"no compiled kernel: {native.fallback_reason()}")
    return kernel.path.read_bytes()[:512]


def test_truncated_cache_entry_is_rebuilt(library_head, fresh_loader):
    path = native._build_plan().path
    path.write_bytes(library_head)
    kernel = native.load()
    assert kernel is not None and kernel.path == path
    assert path.stat().st_size > len(library_head)


def test_truncated_cache_entry_that_cannot_be_rebuilt_falls_back(
    library_head, fresh_loader, monkeypatch
):
    path = native._build_plan().path
    path.write_bytes(library_head)

    def broken(*args):
        raise native._BuildError("compiler failed")

    monkeypatch.setattr(native, "_compile", broken)
    with pytest.warns(RuntimeWarning, match="compiler failed"):
        assert native.load() is None


@pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
def test_compiled_and_numpy_kernels_agree_bit_for_bit(fixed):
    """Every zoo code, widths 1/3/16, ten iterations: P, R and the
    syndrome weights are byte-identical on both paths."""
    registry = default_registry()
    rng = np.random.default_rng(2024)
    for code_id in registry.ids():
        code = registry.get(code_id)
        compiled = BatchLayeredMinSumDecoder(code, fixed=fixed)
        numpy_path = BatchLayeredMinSumDecoder(code, fixed=fixed)
        numpy_path._native = None
        for width in (1, 3, 16):
            llrs = rng.normal(1.0, 2.0, (width, code.n))
            states = []
            for dec in (compiled, numpy_path):
                states.append((dec, dec.prepare(llrs), dec.new_r_state(width)))
            for _ in range(10):
                weights = []
                for dec, p, r in states:
                    dec.iterate_once(p, r)
                    weights.append(dec.syndrome_weights(p))
                (_, p1, r1), (_, p2, r2) = states
                assert p1.tobytes() == p2.tobytes(), (code_id, width)
                assert [x.tobytes() for x in r1] == [x.tobytes() for x in r2]
                np.testing.assert_array_equal(*weights)


@pytest.mark.timeout(900)
def test_golden_differential_and_engine_width_suites_pass_on_numpy():
    """The unchanged suites, run with the loader reporting no compiler."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-p", "tests.numpy_kernel",
         "tests/test_golden_vectors.py", "tests/test_golden_zoo.py",
         "tests/test_differential_random.py",
         "tests/test_serve_engine_width.py",
         "tests/test_decoder_column_layered.py",
         "tests/test_batch_kernel_props.py", "tests/test_serve_batch.py",
         "tests/test_serve_engine.py"],
        cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, timeout=850,
    )
    assert out.returncode == 0, out.stdout.decode()[-4000:]


def test_traced_iteration_has_one_span_per_layer_and_the_same_values():
    from repro.obs.trace import TraceRecorder

    code = default_registry().get("nr-bg2-z16")  # mixed layer degrees
    llrs = np.random.default_rng(7).normal(1.0, 2.0, (4, code.n))
    recorder = TraceRecorder()
    traced = BatchLayeredMinSumDecoder(code, recorder=recorder)
    plain = BatchLayeredMinSumDecoder(code)
    p1, r1 = traced.prepare(llrs), traced.new_r_state(4)
    p2, r2 = plain.prepare(llrs), plain.new_r_state(4)
    with recorder.span("outer"):
        traced.iterate_once(p1, r1)
    plain.iterate_once(p2, r2)
    assert p1.tobytes() == p2.tobytes()
    outer = recorder.by_name("outer")[0]
    spans = recorder.by_name("batch.layer")
    assert len(spans) == code.num_layers
    labels = [dict(s.labels) for s in spans]
    assert labels == [{"batch": 4, "layer": l, "mode": "float"}
                      for l in range(code.num_layers)]
    for prev, span in zip(spans, spans[1:]):
        assert prev.end_s <= span.start_s
    assert all(s.parent_id == outer.span_id for s in spans)
    assert outer.start_s <= spans[0].start_s <= spans[-1].end_s <= outer.end_s


@pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
def test_state_that_is_not_the_kernel_layout_is_refused(fixed):
    code = default_registry().get("wimax-r12-576")
    dec = BatchLayeredMinSumDecoder(code, fixed=fixed)
    p = dec.prepare(np.zeros((2, code.n)))
    r = dec.new_r_state(2)
    with pytest.raises(DecodingError):
        dec.syndrome_weights(p[:-1])          # too few variables
    with pytest.raises(DecodingError):
        dec.iterate_once(np.asfortranarray(p), r)
    with pytest.raises(DecodingError):
        dec.iterate_once(p, [x.copy() for x in r])  # not one buffer
    with pytest.raises(DecodingError):
        dec.iterate_once(p, dec.new_r_state(3))     # width mismatch


@pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
def test_the_compiled_kernel_stays_inside_the_state_it_is_given(fixed):
    """P sits in rows ``g .. g+n`` of a guard-filled ``(n + 2g, B)``
    array; iterating and counting syndromes on every zoo code, widths
    1/3/16, leaves the guard rows untouched and P bit for bit equal to
    P decoded on its own."""
    if native.load() is None:
        pytest.skip(f"no compiled kernel: {native.fallback_reason()}")
    registry = default_registry()
    rng = np.random.default_rng(99)
    guard_rows = 64
    for code_id in registry.ids():
        code = registry.get(code_id)
        dec = BatchLayeredMinSumDecoder(code, fixed=fixed)
        for width in (1, 3, 16):
            llrs = rng.normal(1.0, 2.0, (width, code.n))
            alone = dec.prepare(llrs)
            big = np.empty((code.n + 2 * guard_rows, width), dtype=alone.dtype)
            big.fill(0x5A5A if fixed else -1234.5)
            guard = big.copy()
            p = big[guard_rows : guard_rows + code.n]
            assert p.flags.c_contiguous and p.base is big
            p[:] = alone
            r_alone, r = dec.new_r_state(width), dec.new_r_state(width)
            for _ in range(3):
                dec.iterate_once(alone, r_alone)
                dec.iterate_once(p, r)
                np.testing.assert_array_equal(
                    dec.syndrome_weights(p), dec.syndrome_weights(alone)
                )
            assert p.tobytes() == alone.tobytes(), (code_id, width)
            assert big[:guard_rows].tobytes() == guard[:guard_rows].tobytes()
            assert big[-guard_rows:].tobytes() == guard[-guard_rows:].tobytes()
