"""Shared-memory arena lifecycle and engine equivalence.

Covers the crash-safety contract (attach after a dead owner, idempotent
unlink, stale-segment reaping), fork semantics (children re-lock with
their own file description; MAP_SHARED makes writes visible both
ways), and the headline invariant: an arena-backed parallel engine run
is byte-identical to the serial pipeline while moving **zero** summary
payload entries over the pool's pickle channel."""

from __future__ import annotations

import os
import struct

import pytest

from repro import faults
from repro.config import AnalysisConfig
from repro.engine import Engine
from repro.engine import arena as arena_mod
from repro.engine.arena import (
    ArenaAttachError,
    ArenaFullError,
    ArenaReadError,
    SummaryArena,
    reap_stale,
)
from repro.ipcp.driver import analyze_source
from repro.obs import metrics
from repro.suite.generator import GeneratorConfig, generate_case

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="arena tests exercise fork semantics"
)


def fingerprint_run(text, engine=None):
    result = analyze_source(text, AnalysisConfig(), engine=engine)
    return (
        result.constants.format_report(),
        dict(result.substitution.per_procedure),
        result.transformed_source(),
    )


class TestLifecycle:
    def test_roundtrip(self, tmp_path):
        arena = SummaryArena.create(
            capacity=64 * 1024, directory=str(tmp_path)
        )
        try:
            index = arena.append("ret", "k1", {"a": [1, -2], "b": None})
            assert index == 0
            assert arena.read(0) == ("ret", "k1", {"a": [1, -2], "b": None})
            assert arena.read_payload(0, expect_key="k1")["a"] == [1, -2]
            assert arena.count == 1
        finally:
            arena.destroy()

    def test_append_many_indices_and_order(self, tmp_path):
        arena = SummaryArena.create(
            capacity=64 * 1024, directory=str(tmp_path)
        )
        try:
            records = [("ret", f"k{i}", {"i": i}) for i in range(5)]
            assert arena.append_many(records) == [0, 1, 2, 3, 4]
            assert arena.read_range(1, 4) == [{"i": 1}, {"i": 2}, {"i": 3}]
        finally:
            arena.destroy()

    def test_attach_cached_same_process_shares_live_object(self, tmp_path):
        arena = SummaryArena.create(
            capacity=4096, directory=str(tmp_path)
        )
        try:
            assert SummaryArena.attach_cached(arena.path) is arena
        finally:
            arena.destroy()

    def test_fresh_attach_sees_later_writes(self, tmp_path):
        arena = SummaryArena.create(
            capacity=64 * 1024, directory=str(tmp_path)
        )
        try:
            reader = SummaryArena.attach(arena.path)
            try:
                assert reader.count == 0
                arena.append("fwd", "k", [1, 2, 3])
                # MAP_SHARED: the already-mapped reader sees the write.
                assert reader.count == 1
                assert reader.read_payload(0) == [1, 2, 3]
            finally:
                reader.close()
        finally:
            arena.destroy()

    def test_full_arena_raises_not_tears(self, tmp_path):
        arena = SummaryArena.create(
            capacity=4096, directory=str(tmp_path)
        )
        try:
            with pytest.raises(ArenaFullError):
                arena.append("ret", "k", "x" * 8192)
            # Nothing was half-written.
            assert arena.count == 0
            arena.append("ret", "k", "fits")
            assert arena.read_payload(1 - 1) == "fits"
        finally:
            arena.destroy()

    def test_codec_version_mismatch_refuses_attach(self, tmp_path):
        arena = SummaryArena.create(
            capacity=4096, directory=str(tmp_path)
        )
        path = arena.path
        arena.close()
        try:
            with open(path, "r+b") as handle:
                handle.seek(6)  # u16 codec version field
                handle.write(struct.pack("<H", 999))
            with pytest.raises(ArenaAttachError, match="foreign"):
                SummaryArena.attach(path)
        finally:
            os.unlink(path)

    def test_corrupted_record_detected_on_read(self, tmp_path):
        arena = SummaryArena.create(
            capacity=4096, directory=str(tmp_path)
        )
        try:
            arena.append("ret", "k", {"value": 12345})
            # Rot one body byte on disk, behind the mapping's back.
            with open(arena.path, "r+b") as handle:
                handle.seek(64 + 30)
                byte = handle.read(1)
                handle.seek(64 + 30)
                handle.write(bytes((byte[0] ^ 0xFF,)))
            fresh = SummaryArena.attach(arena.path)
            try:
                with pytest.raises(ArenaReadError):
                    fresh.read(0)
            finally:
                fresh.close()
        finally:
            arena.destroy()

    def test_read_beyond_committed_rejected(self, tmp_path):
        arena = SummaryArena.create(
            capacity=4096, directory=str(tmp_path)
        )
        try:
            arena.append("ret", "k", 1)
            with pytest.raises(ArenaReadError, match="beyond"):
                arena.read(1)
        finally:
            arena.destroy()

    def test_double_unlink_is_idempotent(self, tmp_path):
        arena = SummaryArena.create(
            capacity=4096, directory=str(tmp_path)
        )
        assert arena.unlink() is True
        assert arena.unlink() is False
        arena.close()
        arena.close()  # close is idempotent too

    def test_unlinked_segment_stays_readable_through_mapping(
        self, tmp_path
    ):
        arena = SummaryArena.create(
            capacity=4096, directory=str(tmp_path)
        )
        arena.append("ret", "k", "still here")
        arena.unlink()
        try:
            assert arena.read_payload(0) == "still here"
            with pytest.raises(ArenaAttachError):
                SummaryArena.attach(arena.path)
        finally:
            arena.close()


class TestForkSemantics:
    def test_child_append_visible_to_parent(self, tmp_path):
        arena = SummaryArena.create(
            capacity=64 * 1024, directory=str(tmp_path)
        )
        try:
            arena.append("ret", "parent", {"who": "parent"})
            pid = os.fork()
            if pid == 0:
                # Child: the inherited object must re-lock with its own
                # file description (flock is per open-file-description).
                try:
                    arena.append("ret", "child", {"who": "child"})
                    code = 0
                except BaseException:
                    code = 1
                os._exit(code)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            assert arena.count == 2
            assert arena.read(1) == ("ret", "child", {"who": "child"})
        finally:
            arena.destroy()

    def test_attach_after_owner_crash(self, tmp_path):
        """A SIGKILLed (well, ``os._exit``-ed) owner leaves a segment
        that later processes can attach, read, and reap."""
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)
                arena = SummaryArena.create(
                    capacity=4096, directory=str(tmp_path)
                )
                arena.append("ret", "legacy", [7, 8, 9])
                os.write(write_fd, arena.path.encode())
                os.close(write_fd)
            finally:
                os._exit(0)  # dies without unlink/close — the "crash"
        os.close(write_fd)
        path = b"".join(iter(lambda: os.read(read_fd, 4096), b"")).decode()
        os.close(read_fd)
        os.waitpid(pid, 0)
        assert os.path.exists(path)

        survivor = SummaryArena.attach(path)
        try:
            assert survivor.read_payload(0, expect_key="legacy") == [7, 8, 9]
        finally:
            survivor.close()

        # The owner pid is dead, so the reaper may collect the leak.
        base = metrics.snapshot()
        reaped = reap_stale(str(tmp_path))
        assert path in reaped
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".lock")
        delta = metrics.delta_since(base)["counters"]
        assert delta.get("arena_reaped", 0) >= 1


class TestReaping:
    def test_reap_skips_live_owner_and_foreign_files(self, tmp_path):
        live = SummaryArena.create(
            capacity=4096, directory=str(tmp_path)
        )
        try:
            dead = tmp_path / "repro-arena-999999999-dead.seg"
            dead.write_bytes(b"leak")
            (tmp_path / "repro-arena-999999999-dead.seg.lock").touch()
            unrelated = tmp_path / "not-an-arena.seg"
            unrelated.write_bytes(b"keep")
            malformed = tmp_path / "repro-arena-nonnumeric.seg"
            malformed.write_bytes(b"keep")

            reaped = reap_stale(str(tmp_path))
            assert reaped == [str(dead)]
            assert not dead.exists()
            assert os.path.exists(live.path), "live owner must survive"
            assert unrelated.exists() and malformed.exists()
        finally:
            live.destroy()

    def test_reap_missing_directory_is_a_noop(self, tmp_path):
        assert reap_stale(str(tmp_path / "nowhere")) == []

    def test_daemon_restart_reaps_leaked_segments(self, tmp_path):
        """A crashed daemon leaks its segments; the next ``repro
        serve`` start sweeps the arena directory before serving."""
        import subprocess
        import sys

        from repro.serve.client import ReproClient, wait_for_server

        arena_dir = tmp_path / "arena"
        arena_dir.mkdir()
        leaked = arena_dir / "repro-arena-999999999-leak.seg"
        leaked.write_bytes(b"leak")
        socket_path = str(tmp_path / "reap.sock")

        env = dict(os.environ, REPRO_ARENA_DIR=str(arena_dir))
        env["PYTHONPATH"] = os.pathsep.join(
            part
            for part in ("src", env.get("PYTHONPATH"))
            if part
        )
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--socket", socket_path, "--no-cache",
            ],
            env=env,
            cwd=os.path.join(os.path.dirname(__file__), "..", ".."),
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            assert wait_for_server(socket_path, timeout=15)
            assert not leaked.exists(), (
                "daemon start must reap dead-owner segments"
            )
            with ReproClient(socket_path, timeout=30) as client:
                client.shutdown()
            stderr = daemon.communicate(timeout=60)[1]
            assert daemon.returncode == 0, stderr
            assert "reaped 1 stale arena segment" in stderr
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()


class TestEngineEquivalence:
    """Arena transport vs pickle transport vs disk cache over 24
    seeded programs — identical bytes, counter-proven transports."""

    GENERATOR = GeneratorConfig(procedures=6, max_statements_per_procedure=8)
    SEEDS = range(24)

    def test_24_seeds_arena_matches_serial_with_zero_pickle_payload(
        self, tmp_path
    ):
        os.environ[arena_mod.ENV_DIR] = str(tmp_path)
        stream_total = 0
        try:
            for seed in self.SEEDS:
                text = generate_case(seed, self.GENERATOR).source
                serial = fingerprint_run(text)
                base = metrics.snapshot()
                with Engine(jobs=2) as engine:
                    parallel = fingerprint_run(text, engine=engine)
                delta = metrics.delta_since(base)["counters"]
                assert parallel == serial, f"seed {seed} diverged"
                # The arena carried every summary: nothing rode pickle.
                assert delta.get("engine_pickle_payload_entries", 0) == 0, (
                    f"seed {seed} leaked payload onto the pickle channel"
                )
                assert delta.get("arena_fallbacks", 0) == 0
                stream_total += delta.get("arena_stream_records", 0)
            # Some seeds have only empty return summaries (nothing to
            # exchange in either transport); across 24 the stream must
            # have carried real traffic.
            assert stream_total > 0, "no seed ever published to the arena"
            # No leaked segments: every run destroyed its arenas.
            leftovers = [
                name
                for name in os.listdir(str(tmp_path))
                if name.endswith(".seg")
            ]
            assert leftovers == []
        finally:
            del os.environ[arena_mod.ENV_DIR]

    def test_pickle_fallback_identical_and_counter_distinguishes(self):
        """The pickle channel, reached through the ``unlink-arena``
        fault point: the first attach fails, the arena is quarantined
        for the run, and the waves re-ship their payload entries over
        the pool's pickle channel."""
        # Seeds whose programs exchange non-empty return summaries (a
        # seed with all-empty summaries ships zero on both transports).
        for seed in (0, 7, 8):
            text = generate_case(seed, self.GENERATOR).source
            serial = fingerprint_run(text)
            faults.install("unlink-arena:nth=1")  # forked workers see it
            base = metrics.snapshot()
            try:
                with Engine(jobs=2) as engine:
                    parallel = fingerprint_run(text, engine=engine)
            finally:
                faults.clear()
            delta = metrics.delta_since(base)["counters"]
            assert parallel == serial, f"seed {seed} diverged"
            assert delta.get("arena_fallbacks", 0) == 1
            assert delta.get("engine_pickle_payload_entries", 0) > 0, (
                "the fallback must move payloads over the pickle channel"
            )

    @pytest.mark.parametrize("cached", [False, True])
    def test_inline_engine_pickles_nothing(self, tmp_path, cached):
        """``Engine(jobs=1)`` runs every wave in-process: no payload
        entry crosses a pickle channel, with or without a cache."""
        cache_dir = str(tmp_path / "cache") if cached else None
        for seed in (0, 7, 8):
            text = generate_case(seed, self.GENERATOR).source
            base = metrics.snapshot()
            with Engine(jobs=1, cache_dir=cache_dir) as engine:
                assert fingerprint_run(text, engine=engine) == (
                    fingerprint_run(text)
                )
            delta = metrics.delta_since(base)["counters"]
            assert delta.get("engine_pickle_payload_entries", 0) == 0

    def test_arena_run_matches_disk_cache_run(self, tmp_path):
        for seed in range(6):
            text = generate_case(seed, self.GENERATOR).source
            with Engine(jobs=2) as engine:
                via_arena = fingerprint_run(text, engine=engine)
            cache_dir = str(tmp_path / f"cache{seed}")
            with Engine(cache_dir=cache_dir) as engine:
                cold = fingerprint_run(text, engine=engine)
            with Engine(cache_dir=cache_dir) as engine:
                warm = fingerprint_run(text, engine=engine)
                assert engine.cache.stats.hits > 0
            assert via_arena == cold == warm, f"seed {seed} diverged"
