"""Backend selection, RNG shims, and cnative build failures."""

import warnings

import numpy as np
import pytest

from repro.native import rngshim
from repro.native.backend import (
    BACKEND_ENV,
    BACKEND_IDS,
    BACKEND_NAMES,
    CNativeBackend,
    NumpyBackend,
    available_backends,
    backend_scope,
    resolve_backend_name,
    set_backend,
)
from repro.obs import get_metrics

COMPILED = [b for b in available_backends() if b != "numpy"]

needs_cnative = pytest.mark.skipif(
    "cnative" not in COMPILED, reason="no C toolchain on this host")


def _make_backend(name):
    from repro.native import backend as mod
    return mod._make(name)


class TestSelection:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "cnative")
        assert resolve_backend_name("numpy") == "numpy"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "cnative")
        assert resolve_backend_name(None) == "cnative"

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend_name(None) == "numpy"

    def test_blank_env_ignored(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "  ")
        assert resolve_backend_name(None) == "numpy"

    def test_case_insensitive(self):
        assert resolve_backend_name("CNative") == "cnative"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend_name("cuda")

    def test_retired_numba_name_rejected(self, capsys):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend_name("numba")
        from repro import cli
        with pytest.raises(SystemExit) as exc:
            cli.main(["sample", "--app", "k-hop", "--backend", "numba"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_every_name_resolvable(self):
        for name in BACKEND_NAMES:
            assert resolve_backend_name(name) == name

    @needs_cnative
    def test_backend_scope_restores(self):
        from repro.native.backend import active_backend_name
        before = active_backend_name()
        with backend_scope("cnative") as b:
            assert b.name == "cnative"
            from repro.native.backend import active_backend
            assert active_backend() is b
        assert active_backend_name() == before

    @needs_cnative
    def test_set_backend_exports_gauge(self):
        with backend_scope("cnative"):
            gauge = get_metrics().gauge("runtime.backend_active")
            assert gauge.value == float(BACKEND_IDS["cnative"])

    def test_backend_ids_keep_historical_values(self):
        assert BACKEND_IDS == {"numpy": 0, "cnative": 2}


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """A host with no C compiler and a cold kernel-library cache."""
    from repro.native import backend as mod, cnative
    monkeypatch.setattr(cnative, "find_compiler", lambda: None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(cnative, "_lib_cache", None)
    monkeypatch.setattr(mod, "_AUTO_WARNED", False)
    monkeypatch.setattr(mod, "_ACTIVE", None)


def _auto_warnings(caught):
    return [w for w in caught if "backend 'auto'" in str(w.message)]


class TestAutoFallback:
    def test_auto_without_compiler_warns_once(self, no_compiler):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = set_backend("auto")
            second = set_backend("auto")
        assert isinstance(first, NumpyBackend)
        assert isinstance(second, NumpyBackend)
        relevant = _auto_warnings(caught)
        assert len(relevant) == 1
        assert "no C compiler" in str(relevant[0].message)

    @needs_cnative
    def test_auto_with_compiler_selects_cnative(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with backend_scope("auto") as b:
                assert isinstance(b, CNativeBackend)
        assert not _auto_warnings(caught)


class TestBuildFailure:
    """An explicit cnative that cannot build fails loudly at selection,
    before any draw, instead of silently running numpy."""

    def test_set_backend_raises_without_compiler(self, no_compiler):
        gauge = get_metrics().gauge("runtime.backend_active")
        gauge.set(float(BACKEND_IDS["numpy"]))
        with pytest.raises(RuntimeError, match="no C compiler"):
            set_backend("cnative")
        assert gauge.value == float(BACKEND_IDS["numpy"])
        assert available_backends() == ("numpy",)

    def test_cli_exits_2_without_compiler(self, no_compiler):
        import io
        from repro import cli
        out = io.StringIO()
        code = cli.main(["sample", "--app", "k-hop", "--graph", "ppi",
                         "--backend", "cnative"], out=out)
        assert code == 2
        assert ("backend 'cnative' unavailable: no C compiler"
                in out.getvalue())

    def test_cli_auto_runs_numpy_without_compiler(self, no_compiler):
        import io
        from repro import cli
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["sample", "--app", "k-hop", "--graph",
                             "ppi", "--samples", "64", "--backend",
                             "auto"], out=io.StringIO())
        assert code == 0
        assert len(_auto_warnings(caught)) == 1

    def test_failed_compile_raises(self, monkeypatch, no_compiler):
        from repro.native import cnative
        monkeypatch.setattr(cnative, "find_compiler", lambda: "false")
        with pytest.raises(RuntimeError, match="false failed"):
            set_backend("cnative")

    @needs_cnative
    def test_missing_symbol_raises(self):
        from repro.native import cnative
        with pytest.raises(RuntimeError, match="lacks repro_missing"):
            cnative._sym(cnative.load_library(), "repro_missing")


class TestRngShim:
    """The C node2vec kernel re-derives numpy's PCG64 stream; these pin
    the reference implementation the kernel mirrors."""

    def test_ref_doubles_match_numpy(self):
        rng = np.random.default_rng(1234)
        state, inc = rngshim.raw_state(rng)
        _, ours = rngshim.ref_doubles(state, inc, 64)
        assert np.array_equal(ours, rng.random(64))

    def test_consume_realigns_stream(self):
        a = np.random.default_rng(77)
        b = np.random.default_rng(77)
        state, inc = rngshim.raw_state(a)
        rngshim.ref_doubles(state, inc, 10)
        rngshim.consume(a, 10)
        b.random(10)
        assert np.array_equal(a.random(8), b.random(8))

    def test_state_words_roundtrip(self):
        rng = np.random.default_rng(5)
        state, inc = rngshim.raw_state(rng)
        words = rngshim.state_words(rng)
        assert int(words[0]) << 64 | int(words[1]) == state
        assert int(words[2]) << 64 | int(words[3]) == inc

    def test_non_pcg64_declines(self):
        rng = np.random.Generator(np.random.MT19937(0))
        assert rngshim.raw_state(rng) is None
        assert rngshim.state_words(rng) is None

    def test_buffered_uint32_declines(self):
        rng = np.random.default_rng(0)
        rng.integers(0, 10, dtype=np.uint32)  # leaves has_uint32 set
        if rng.bit_generator.state.get("has_uint32"):
            assert rngshim.raw_state(rng) is None

    @needs_cnative
    def test_pcg_fill_kernel_matches_numpy(self):
        from repro.native import cnative
        pcg_fill = cnative.load_kernels()["pcg_fill"]
        rng = np.random.default_rng(99)
        words = rngshim.state_words(rng).copy()
        out = np.empty(32, dtype=np.float64)
        pcg_fill(words, out)
        assert np.array_equal(out, rng.random(32))
        # The kernel leaves its state words where numpy's stream is.
        state, _ = rngshim.raw_state(rng)
        assert int(words[0]) << 64 | int(words[1]) == state


class TestGeneratorForCache:
    def test_cached_matches_direct_construction(self):
        from repro.runtime.rngplan import generator_for
        for seed, key in [(0, (0,)), (123, (4, 7)), (2**63, (1, 2, 3))]:
            cached = generator_for(seed, key)
            direct = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy=seed, spawn_key=key)))
            assert (cached.bit_generator.state
                    == direct.bit_generator.state)
            assert np.array_equal(cached.random(16), direct.random(16))

    def test_repeat_calls_independent(self):
        from repro.runtime.rngplan import generator_for
        a = generator_for(42, (3,))
        a.random(100)
        b = generator_for(42, (3,))
        c = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=42, spawn_key=(3,))))
        assert np.array_equal(b.random(4), c.random(4))

    def test_seed_words_shim_generic_path(self):
        from repro.runtime.rngplan import _seed_words
        shim = _seed_words(7, (1, 2))
        ss = np.random.SeedSequence(entropy=7, spawn_key=(1, 2))
        assert np.array_equal(shim.generate_state(4, np.uint64),
                              ss.generate_state(4, np.uint64))
        # Fallback path: widths/dtypes beyond the cached words.
        assert np.array_equal(shim.generate_state(8, np.uint32),
                              ss.generate_state(8, np.uint32))
        assert np.array_equal(shim.generate_state(6, np.uint64),
                              ss.generate_state(6, np.uint64))


@pytest.mark.parametrize("backend_name", COMPILED)
class TestKernelMicroParity:
    """Hook-level parity on tiny inputs, per compiled backend."""

    @pytest.fixture
    def backend(self, backend_name):
        b = _make_backend(backend_name)
        b.warm_up()
        return b

    def test_warm_up_idempotent(self, backend):
        table_after_first = dict(backend._kernels)
        backend.warm_up()
        assert backend._kernels == table_after_first

    def test_grouping_matches_argsort(self, backend):
        vals = np.array([5, 2, 5, 9, 2, 2, 7], dtype=np.int64)
        got = backend.grouping(vals)
        assert got is not None
        order, unique, counts, offsets = got
        assert np.array_equal(vals[order], np.sort(vals, kind="stable"))
        ref_unique, ref_counts = np.unique(vals, return_counts=True)
        assert np.array_equal(unique, ref_unique)
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(offsets,
                              np.concatenate([[0], np.cumsum(ref_counts)]))
        # Stability: equal keys keep input order (the three 2s).
        assert np.array_equal(order[:3], np.array([1, 4, 5]))

    def test_grouping_declines_on_huge_span(self, backend):
        vals = np.array([0, 1 << 40], dtype=np.int64)
        assert backend.grouping(vals) is None

    def test_scatter_rows_matches_fancy_indexing(self, backend):
        rng = np.random.default_rng(3)
        n, m, rows_out, width_cols = 17, 3, 9, 4
        sampled = rng.integers(0, 50, size=(n, m)).astype(np.int64)
        sample_ids = rng.integers(0, rows_out, size=n).astype(np.int64)
        cols = rng.integers(0, width_cols, size=n).astype(np.int64)
        out = np.full((rows_out, width_cols * m), -1, dtype=np.int64)
        ref = out.copy()
        slots = cols[:, None] * m + np.arange(m)[None, :]
        ref[sample_ids[:, None], slots] = sampled
        assert backend.scatter_rows(out, sampled, sample_ids, cols,
                                    m) is True
        assert np.array_equal(out, ref)

    def test_scatter_rows_declines_bad_dtype(self, backend):
        out = np.zeros((2, 2), dtype=np.float64)
        assert backend.scatter_rows(
            out, np.zeros((1, 1), dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64), 1) is None

    def test_ragged_gather_matches_concat(self, backend):
        values = np.arange(100, dtype=np.int64) * 3
        starts = np.array([4, 50, 10], dtype=np.int64)
        counts = np.array([3, 0, 5], dtype=np.int64)
        offsets = np.concatenate(
            [[0], np.cumsum(counts)[:-1]]).astype(np.int64)
        got = backend.ragged_gather(values, starts, counts, offsets, 8)
        ref = np.concatenate([values[s:s + c]
                              for s, c in zip(starts, counts)])
        assert np.array_equal(got, ref)

    def test_ragged_gather_float64(self, backend):
        values = np.linspace(0.0, 1.0, 20)
        starts = np.array([2, 9], dtype=np.int64)
        counts = np.array([4, 4], dtype=np.int64)
        offsets = np.array([0, 4], dtype=np.int64)
        got = backend.ragged_gather(values, starts, counts, offsets, 8)
        assert np.array_equal(
            got, np.concatenate([values[2:6], values[9:13]]))

    def test_dedupe_rows_matches_numpy(self, backend):
        rows = np.array([[4, 4, 5, 4], [1, 2, 3, 1], [7, 7, 7, 7]],
                        dtype=np.int64)
        got = backend.dedupe_rows(rows)
        assert got is not None
        deduped, dups = got
        from repro.api.types import NULL_VERTEX
        assert dups == 2 + 1 + 3
        ref = rows.copy()
        for i in range(ref.shape[0]):
            seen = set()
            for j in range(ref.shape[1]):
                v = ref[i, j]
                if v in seen:
                    ref[i, j] = NULL_VERTEX
                seen.add(v)
        assert np.array_equal(deduped, ref)
        # Input untouched.
        assert rows[0, 1] == 4

    def test_uniform_neighbors_matches_numpy_draw_order(self, backend):
        from repro.graph.generators import rmat_graph
        g = rmat_graph(64, 256, seed=11)
        transits = np.array([0, 5, -1, 63, 12, 5], dtype=np.int64)
        ref_rng = np.random.default_rng(8)
        got_rng = np.random.default_rng(8)
        got = backend.uniform_neighbors(g, transits, 3, got_rng)
        assert got is not None
        from repro.api.apps import _kernels
        with backend_scope("numpy"):
            ref = _kernels.uniform_neighbors(g, transits, 3, ref_rng)
        assert np.array_equal(got, ref)
        # Both generators advanced identically.
        assert np.array_equal(got_rng.random(4), ref_rng.random(4))

    def test_weighted_neighbors_matches_numpy_draw_order(self, backend):
        from repro.graph.generators import rmat_graph
        g = rmat_graph(64, 256, seed=11).with_random_weights(seed=2)
        transits = np.array([3, 3, 17, -1, 60], dtype=np.int64)
        ref_rng = np.random.default_rng(8)
        got_rng = np.random.default_rng(8)
        got = backend.weighted_neighbors(g, transits, 2, got_rng)
        assert got is not None
        from repro.api.apps import _kernels
        with backend_scope("numpy"):
            ref = _kernels.weighted_neighbors(g, transits, 2, ref_rng)
        assert np.array_equal(got, ref)
        assert np.array_equal(got_rng.random(4), ref_rng.random(4))


class TestCNativeToolchain:
    def test_toolchain_detection_consistent(self):
        from repro.native import cnative
        assert CNativeBackend().available() \
            == cnative.toolchain_available()

    def test_library_loads_when_toolchain_present(self):
        from repro.native import cnative
        if not cnative.toolchain_available():
            pytest.skip("no C toolchain on this host")
        lib = cnative.load_library()
        assert lib is not None
        # Loading again reuses the cached artifact.
        assert cnative.load_library() is not None


class TestEnvSelectionEndToEnd:
    @needs_cnative
    def test_env_var_drives_default_backend(self, monkeypatch):
        from repro.native import backend as mod
        monkeypatch.setenv(BACKEND_ENV, "cnative")
        monkeypatch.setattr(mod, "_ACTIVE", None)
        try:
            assert mod.active_backend().name == "cnative"
        finally:
            mod._ACTIVE = None
