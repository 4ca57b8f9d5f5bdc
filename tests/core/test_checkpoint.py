"""Checkpoint/restart of the stage-2 moment computation."""

import numpy as np
import pytest

from repro.core.checkpoint import KpmCheckpoint, checkpointed_eta
from repro.core.moments import compute_eta
from repro.core.scaling import lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.sparse.backend.native import native_available
from repro.util.errors import CheckpointError, FormatError

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernels"
)

BACKENDS = ["numpy", pytest.param("native", marks=needs_native)]


@pytest.fixture(scope="module")
def system():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(5, 5, 3)
    scale = lanczos_scale(h, seed=0)
    blk = make_block_vector(h.n_rows, 3, seed=1)
    ref = compute_eta(h, scale, 32, blk, "aug_spmmv")
    return h, scale, blk, ref


class TestEquivalence:
    def test_no_checkpointing_matches_engine(self, system):
        h, scale, blk, ref = system
        eta = checkpointed_eta(h, scale, 32, blk)
        assert np.array_equal(eta, ref)

    def test_resume_is_bit_exact(self, system, tmp_path):
        h, scale, blk, ref = system
        ck_path = tmp_path / "state.npz"
        # run to completion with periodic checkpoints; the last checkpoint
        # freezes the state a few iterations before the end
        full = checkpointed_eta(
            h, scale, 32, blk, checkpoint_every=5, checkpoint_path=ck_path
        )
        assert np.array_equal(full, ref)
        # resume from the saved state and finish again
        resumed = checkpointed_eta(
            h, scale, 32, blk, resume_from=ck_path
        )
        assert np.array_equal(resumed[:, -2:], full[:, -2:])
        assert np.array_equal(resumed, ref)

    def test_ckpt_suffix_round_trip(self, system, tmp_path):
        """Regression: save('state.ckpt') must be loadable by the same name.

        ``np.savez_compressed`` silently appends ``.npz`` to any other
        suffix; save/load used to normalize differently, so a non-.npz
        checkpoint path saved fine but could never be loaded back.
        """
        h, scale, blk, _ = system
        p = tmp_path / "state.ckpt"
        full = checkpointed_eta(
            h, scale, 16, blk, checkpoint_every=3, checkpoint_path=p
        )
        ck = KpmCheckpoint.load(p)  # the path the user passed
        assert ck.n_moments == 16
        on_disk = ck.save(p)
        assert on_disk.suffix == ".npz"
        resumed = checkpointed_eta(h, scale, 16, blk, resume_from=p)
        assert np.array_equal(resumed[:, : 2 * ck.next_m],
                              full[:, : 2 * ck.next_m])

    def test_roundtrip_object(self, system, tmp_path):
        h, scale, blk, _ = system
        p = tmp_path / "s.npz"
        checkpointed_eta(
            h, scale, 16, blk, checkpoint_every=3, checkpoint_path=p
        )
        ck = KpmCheckpoint.load(p)
        assert ck.n_moments == 16
        assert ck.v.shape == blk.shape
        ck.save(tmp_path / "s2.npz")
        ck2 = KpmCheckpoint.load(tmp_path / "s2.npz")
        assert np.array_equal(ck.v, ck2.v)
        assert ck.next_m == ck2.next_m


class TestResumeMidRun:
    """Interrupt in the middle of the loop; resume must be bit-exact."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resume_bitwise_per_backend(self, system, tmp_path, backend):
        h, scale, blk, _ = system
        p = tmp_path / "mid.npz"
        # checkpoint_every=4 over 15 iterations: the last saved state sits
        # at next_m=13, three iterations short of completion
        full = checkpointed_eta(
            h, scale, 32, blk, checkpoint_every=4, checkpoint_path=p,
            backend=backend,
        )
        ck = KpmCheckpoint.load(p)
        assert 1 < ck.next_m < 16  # genuinely mid-run
        resumed = checkpointed_eta(
            h, scale, 32, blk, resume_from=ck, backend=backend
        )
        # same backend, same state, deterministic recurrence: bitwise
        assert np.array_equal(resumed, full)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_engine_per_backend(self, system, backend):
        h, scale, blk, _ = system
        eta = checkpointed_eta(h, scale, 32, blk, backend=backend)
        ref = compute_eta(h, scale, 32, blk, "aug_spmmv", backend=backend)
        assert np.array_equal(eta, ref)

    @needs_native
    def test_cross_backend_resume(self, system, tmp_path):
        """A checkpoint is backend-agnostic: save numpy, resume native."""
        h, scale, blk, _ = system
        p = tmp_path / "mid.npz"
        full = checkpointed_eta(
            h, scale, 32, blk, checkpoint_every=4, checkpoint_path=p,
            backend="numpy",
        )
        resumed = checkpointed_eta(
            h, scale, 32, blk, resume_from=p, backend="native"
        )
        # prefix up to the interruption point is carried over verbatim;
        # the remainder agrees to reduction-order tolerance
        ck = KpmCheckpoint.load(p)
        assert np.array_equal(resumed[:, : 2 * ck.next_m],
                              full[:, : 2 * ck.next_m])
        assert np.allclose(resumed, full, atol=1e-9)

    @pytest.mark.parametrize("dist_engine", ["sim", "mp"])
    def test_matches_distributed_engines(self, system, dist_engine):
        """Resumed serial moments equal the sim/mp distributed runs."""
        from repro.dist.comm import SimWorld
        from repro.dist.kpm_parallel import distributed_eta
        from repro.dist.mp import MpWorld
        from repro.dist.partition import RowPartition

        h, scale, blk, _ = system
        eta_ck = checkpointed_eta(h, scale, 32, blk)
        part = RowPartition.equal(h.n_rows, 2, align=4)
        world = MpWorld(2) if dist_engine == "mp" else SimWorld(2)
        eta_dist = distributed_eta(h, part, scale, 32, blk, world)
        assert np.allclose(eta_dist, eta_ck, atol=1e-9)


class TestValidation:
    def test_moment_count_mismatch(self, system, tmp_path):
        h, scale, blk, _ = system
        p = tmp_path / "s.npz"
        checkpointed_eta(
            h, scale, 16, blk, checkpoint_every=2, checkpoint_path=p
        )
        with pytest.raises(FormatError, match="M="):
            checkpointed_eta(h, scale, 32, blk, resume_from=p)

    def test_scale_mismatch(self, system, tmp_path):
        from repro.core.scaling import SpectralScale

        h, scale, blk, _ = system
        p = tmp_path / "s.npz"
        checkpointed_eta(
            h, scale, 16, blk, checkpoint_every=2, checkpoint_path=p
        )
        other = SpectralScale.from_bounds(-100, 100)
        with pytest.raises(FormatError, match="spectral map"):
            checkpointed_eta(h, other, 16, blk, resume_from=p)

    def test_checkpoint_needs_path(self, system):
        h, scale, blk, _ = system
        with pytest.raises(ValueError):
            checkpointed_eta(h, scale, 16, blk, checkpoint_every=2)

    def test_odd_moments_rejected(self, system):
        h, scale, blk, _ = system
        with pytest.raises(ValueError):
            checkpointed_eta(h, scale, 15, blk)

    def test_version_guard(self, system, tmp_path):
        h, scale, blk, _ = system
        p = tmp_path / "s.npz"
        checkpointed_eta(
            h, scale, 16, blk, checkpoint_every=2, checkpoint_path=p
        )
        # corrupt the version field
        with np.load(p) as data:
            bad = {k: data[k] for k in data.files}
        bad["version"] = np.array(99)
        np.savez_compressed(p, **bad)
        with pytest.raises(FormatError, match="version"):
            KpmCheckpoint.load(p)


class TestIntegrity:
    """Atomic writes and loud failures on damaged checkpoints."""

    def _save_one(self, system, path):
        h, scale, blk, _ = system
        checkpointed_eta(
            h, scale, 16, blk, checkpoint_every=3, checkpoint_path=path
        )
        return path if path.suffix == ".npz" else path.with_name(
            path.name + ".npz"
        )

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            KpmCheckpoint.load(tmp_path / "nope.npz")

    def test_truncated_file_raises_checkpoint_error(self, system, tmp_path):
        p = self._save_one(system, tmp_path / "s.npz")
        data = p.read_bytes()
        p.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            KpmCheckpoint.load(p)

    def test_garbage_file_raises_checkpoint_error(self, tmp_path):
        p = tmp_path / "junk.npz"
        p.write_bytes(b"this is not a zip archive")
        with pytest.raises(CheckpointError):
            KpmCheckpoint.load(p)

    def test_digest_detects_bit_flip(self, system, tmp_path):
        """A state mutation that keeps the zip intact still fails loudly."""
        p = self._save_one(system, tmp_path / "s.npz")
        ck = KpmCheckpoint.load(p)
        ck.v[0, 0] += 1.0  # silent data corruption
        np.savez_compressed(
            p, version=1, v=ck.v, w=ck.w, eta=ck.eta, next_m=ck.next_m,
            n_moments=ck.n_moments, a=ck.a, b=ck.b,
            digest="0" * 64,  # stale digest from "before" the flip
        )
        with pytest.raises(CheckpointError, match="integrity"):
            KpmCheckpoint.load(p)

    def test_corruption_drill_helper(self, system, tmp_path):
        from repro.resil import corrupt_checkpoint_file

        p = self._save_one(system, tmp_path / "s.npz")
        assert corrupt_checkpoint_file(p, seed=3)
        with pytest.raises(CheckpointError):
            KpmCheckpoint.load(p)
        assert not corrupt_checkpoint_file(tmp_path / "absent.npz")

    def test_atomic_write_leaves_no_temp_files(self, system, tmp_path):
        self._save_one(system, tmp_path / "s.npz")
        leftovers = [f.name for f in tmp_path.iterdir() if "tmp" in f.name]
        assert leftovers == []
        assert (tmp_path / "s.npz").exists()

    def test_save_replaces_previous_atomically(self, system, tmp_path):
        """Re-saving over an existing checkpoint keeps it loadable."""
        p = self._save_one(system, tmp_path / "s.npz")
        ck = KpmCheckpoint.load(p)
        ck.save(p)
        again = KpmCheckpoint.load(p)
        assert np.array_equal(again.v, ck.v)
        assert again.next_m == ck.next_m
