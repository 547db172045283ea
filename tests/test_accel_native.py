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
    """Every zoo code, widths 1/3/5/16/100, ten iterations: P, the whole
    R buffer (fresh-lane row included) and the syndrome weights are
    byte-identical on both paths.  Width 5 does not divide the 64-lane
    float tile and width 100 is above it."""
    registry = default_registry()
    rng = np.random.default_rng(2024)
    for code_id in registry.ids():
        code = registry.get(code_id)
        compiled = BatchLayeredMinSumDecoder(code, fixed=fixed)
        numpy_path = BatchLayeredMinSumDecoder(code, fixed=fixed)
        numpy_path._native = None
        for width in (1, 3, 5, 16, 100):
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
                assert r1[0].base.tobytes() == r2[0].base.tobytes(), (
                    code_id, width)
                np.testing.assert_array_equal(*weights)


def _decoder(code, fixed: bool, path: str) -> BatchLayeredMinSumDecoder:
    dec = BatchLayeredMinSumDecoder(code, fixed=fixed)
    if path == "numpy":
        dec._native = None
    elif dec._native is None:
        pytest.skip(f"no compiled kernel: {native.fallback_reason()}")
    return dec


@pytest.mark.parametrize("stage", ["width", "resize", "compact"])
@pytest.mark.parametrize("path", ["compiled", "numpy"])
@pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
def test_a_slot_reloaded_over_stale_state_decodes_like_a_fresh_one(
        fixed, path, stage):
    """``load_slots`` leaves a retired frame's R messages in place and
    only marks the slot fresh.  The reloaded frame must decode byte for
    byte as it does in a state of its own, and the other frames as if
    nothing was loaded: at the current width, in a state that
    ``resize`` grew, and in one that ``compact`` narrowed."""
    rng = np.random.default_rng(11)
    for code_id in ("wimax-r12-576", "nr-bg2-z16"):   # uniform, mixed degrees
        code = default_registry().get(code_id)
        dec = _decoder(code, fixed, path)
        p = dec.prepare(rng.normal(1.0, 2.0, (4, code.n)))
        r = dec.new_r_state(4)
        for _ in range(3):                  # stale messages in every slot
            dec.iterate_once(p, r)
        if stage == "resize":
            p, r = dec.resize(p, r, 6)
        elif stage == "compact":
            p, r = dec.compact(p, r, np.array([True, False, True, True]))
        slot = 1                            # a slot that held a frame
        buf = dec._r_buffer(r, p.shape[1])
        assert np.any(buf[:-1, slot] != 0)
        others = [b for b in range(p.shape[1]) if b != slot]
        p_rest, r_rest = dec.compact(
            p, r, np.arange(p.shape[1]) != slot)

        llrs = rng.normal(1.0, 2.0, code.n)
        dec.load_slots(p, r, [slot], llrs[None, :])
        alone = dec.prepare(llrs[None, :])
        r_alone = dec.new_r_state(1)
        for _ in range(4):
            dec.iterate_once(p, r)
            dec.iterate_once(alone, r_alone)
            dec.iterate_once(p_rest, r_rest)
        buf = dec._r_buffer(r, p.shape[1])
        assert p[:, slot].tobytes() == alone[:, 0].tobytes(), code_id
        assert buf[:, slot].tobytes() == r_alone[0].base[:, 0].tobytes()
        assert p[:, others].tobytes() == p_rest.tobytes(), code_id
        assert buf[:, others].tobytes() == r_rest[0].base.tobytes()


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
    """P, R (fresh-lane row included) and the loop's scratch each sit
    in rows ``g ..`` of a guard-filled array with ``g`` guard rows on
    either side; iterating and counting syndromes on every zoo code,
    widths 1/3/5/16/100, leaves the guard rows untouched and P and R
    bit for bit equal to the state decoded on its own.  ``_r_buffer``
    refuses a foreign R buffer, so the guarded state goes straight to
    the entry point, which finds the fresh row at ``layer_edge[L] * z *
    B``.  Then engine steps run every frame to retirement on the same
    state, with the step's weights, iteration counts, budgets, trail,
    retired list and doorbell guarded too: three lanes above the width
    hold busy budgets the step must not touch, and the doorbell is only
    read."""
    if native.load() is None:
        pytest.skip(f"no compiled kernel: {native.fallback_reason()}")
    registry = default_registry()
    rng = np.random.default_rng(99)
    guard_rows = 64

    def guarded(rows, width, dtype, fill=0x5A5A if fixed else -1234.5):
        big = np.empty((rows + 2 * guard_rows, width), dtype=dtype)
        big.fill(fill)
        inner = big[guard_rows : guard_rows + rows]
        assert inner.flags.c_contiguous and inner.base is big
        return big, big.copy(), inner

    for code_id in registry.ids():
        code = registry.get(code_id)
        dec = BatchLayeredMinSumDecoder(code, fixed=fixed)
        for width in (1, 3, 5, 16, 100):
            llrs = rng.normal(1.0, 2.0, (width, code.n))
            alone, r_alone = dec.prepare(llrs), dec.new_r_state(width)
            r_buf = r_alone[0].base
            scratch_size = dec._native_buffers(width)[0].size
            arrays = [guarded(code.n, width, alone.dtype),
                      guarded(r_buf.shape[0], width, alone.dtype),
                      guarded(scratch_size, 1, alone.dtype)]
            (_, _, p), (_, _, r), (_, _, scratch) = arrays
            p[:] = alone
            r[:] = r_buf
            for _ in range(3):
                dec.iterate_once(alone, r_alone)
                dec._iterate_fn(*dec._tables, code.z, width, p.ctypes.data,
                                r.ctypes.data, scratch.ctypes.data,
                                *dec._consts, None)
                np.testing.assert_array_equal(
                    dec.syndrome_weights(p), dec.syndrome_weights(alone)
                )
            assert p.tobytes() == alone.tobytes(), (code_id, width)
            assert r.tobytes() == r_buf.tobytes(), (code_id, width)

            capacity, max_it = width + 3, dec.max_iterations
            lanes = dec.new_lanes(capacity)
            lanes.budgets[:] = rng.integers(1, max_it + 1, capacity)
            lane_arrays = [guarded(rows, cols, dtype, fill=0x5A5A5A5A)
                           for rows, cols, dtype in (
                               (width, 1, np.int64),          # weights
                               (capacity, 1, np.int64),       # iters
                               (capacity, 1, np.int64),       # budgets
                               (capacity, max_it, np.int64),  # trail
                               (capacity + 1, 1, np.int64),   # retired
                               (1, 1, np.int32))]             # doorbell
            (_, _, weights), (_, _, iters), (_, _, budgets), \
                (_, _, trail), (_, _, retired), (_, _, doorbell) = lane_arrays
            iters[:, 0], budgets[:, 0], trail[:] = (
                lanes.iters, lanes.budgets, lanes.trail)
            doorbell[:] = 0
            arrays += lane_arrays
            while lanes.budgets[:width].any():
                k, gone = dec.iterate_once(alone, r_alone, lanes, True)
                assert k == dec._step_fn(
                    *dec._tables, code.z, width, p.ctypes.data,
                    r.ctypes.data, scratch.ctypes.data, *dec._consts, None,
                    weights.ctypes.data, iters.ctypes.data,
                    budgets.ctypes.data, trail.ctypes.data, max_it,
                    retired.ctypes.data, doorbell.ctypes.data,
                ) >= 1, (code_id, width)
                assert gone == retired[1 : retired[0, 0] + 1, 0].tolist()
            assert not lanes.iters[width:].any()
            assert lanes.budgets[width:].all()
            assert iters[:, 0].tolist() == lanes.iters.tolist()
            assert budgets[:, 0].tolist() == lanes.budgets.tolist()
            assert trail.tobytes() == lanes.trail.tobytes(), (code_id, width)
            assert doorbell[0, 0] == 0
            assert p.tobytes() == alone.tobytes(), (code_id, width)
            assert r.tobytes() == r_buf.tobytes(), (code_id, width)
            for big, guard, _ in arrays:
                assert big[:guard_rows].tobytes() == guard[:guard_rows].tobytes()
                assert (big[-guard_rows:].tobytes()
                        == guard[-guard_rows:].tobytes())


@pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
def test_the_compiled_kernel_stays_inside_a_relayout_buffer(fixed):
    """The guard canary for the re-layout buffers of ``resize``: a state
    of width ``w`` is the leading values of a buffer sized for more
    lanes, so every value after them is a guard.  Re-laying out into the
    buffers (growing and shrinking), iterating and stepping every frame
    to retirement leave the guard values untouched, and P and R equal
    the state decoded on its own."""
    if native.load() is None:
        pytest.skip(f"no compiled kernel: {native.fallback_reason()}")
    registry = default_registry()
    rng = np.random.default_rng(98)
    fill = 0x5A5A if fixed else -1234.5
    for code_id in registry.ids():
        code = registry.get(code_id)
        dec = BatchLayeredMinSumDecoder(code, fixed=fixed)
        for width in (1, 3, 5, 16):
            capacity = 2 * width + 3
            llrs = rng.normal(1.0, 2.0, (width, code.n))
            alone, r_alone = dec.prepare(llrs), dec.new_r_state(width)
            # into pair 0 at full capacity, then back to width in pair 1
            p, r = dec.resize(alone, r_alone, capacity, capacity)
            p, r = dec.resize(p, r, width, capacity)
            flats = [p.base, r[0].base]
            assert all(np.shares_memory(a, flat) for a, flat in
                       zip((p, dec._r_buffer(r, width)), flats))
            used = [code.n * width, dec._r_rows * width]
            for flat, n_used in zip(flats, used):
                flat[n_used:] = fill
            guards = [flat[n_used:].copy() for flat, n_used in zip(flats, used)]
            for _ in range(2):
                dec.iterate_once(p, r)
                dec.iterate_once(alone, r_alone)
            lanes, lanes_alone = dec.new_lanes(width), dec.new_lanes(width)
            budgets = rng.integers(1, dec.max_iterations + 1, width)
            lanes.budgets[:], lanes_alone.budgets[:] = budgets, budgets
            while lanes.budgets.any():
                assert (dec.iterate_once(p, r, lanes, True)
                        == dec.iterate_once(alone, r_alone, lanes_alone, True))
            assert p.tobytes() == alone.tobytes(), (code_id, width)
            assert (dec._r_buffer(r, width).tobytes()
                    == dec._r_buffer(r_alone, width).tobytes()), (code_id, width)
            for flat, n_used, guard in zip(flats, used, guards):
                assert flat[n_used:].tobytes() == guard.tobytes(), (
                    code_id, width)
