import json
import struct
import sys
import threading
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from swpnet import layers, models
from swpnet.autodiff import Tensor
from swpnet.layers import BatchNorm, Conv2d
from swpnet.models import (
    CheckpointError,
    ModelBuildError,
    ModelConfig,
    attach_swp_head,
    build_model,
    feature_map_extent,
    load_checkpoint,
    param_count,
    save_checkpoint,
    stage_plan,
)
from swpnet.swp import SWPSpec

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def toy_config(**overrides):
    base = dict(depth_variant=18, num_classes=4, width_multiplier=1 / 16,
                input_size=64, head="plain_avgpool_fc")
    base.update(overrides)
    return ModelConfig(**base)


def rand_images(batch, size, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(0, 1, size=(batch, 3, size, size)).astype(np.float32))


class TestStagePlan:
    def test_resnet34_layer_counts(self):
        plan = stage_plan(ModelConfig(depth_variant=34, num_classes=431))
        # two convs per basic block: 6, 8, 12, 6 conv layers across the stages
        assert [2 * n for n, _, _ in plan] == [6, 8, 12, 6]
        assert [c for _, c, _ in plan] == [64, 128, 256, 512]

    def test_width_multiplier_scales_channels(self):
        plan = stage_plan(toy_config(width_multiplier=1 / 8))
        assert [c for _, c, _ in plan] == [8, 16, 32, 64]

    def test_minimum_one_channel(self):
        plan = stage_plan(toy_config(width_multiplier=0.001))
        assert all(c >= 1 for _, c, _ in plan)

    def test_pre_head_map_is_7x7_at_224(self):
        for depth in (18, 34, 50):
            cfg = ModelConfig(depth_variant=depth, num_classes=431)
            assert feature_map_extent(cfg) == 7

    def test_invalid_configs(self):
        with pytest.raises(ModelBuildError):
            ModelConfig(depth_variant=99, num_classes=4)
        with pytest.raises(ModelBuildError):
            ModelConfig(depth_variant=18, num_classes=4, width_multiplier=0.0)
        with pytest.raises(ModelBuildError):
            ModelConfig(depth_variant=18, num_classes=4, head="nonsense")


class TestForwardShapes:
    def test_resnet34_full_width_431_classes(self):
        model = build_model(ModelConfig(depth_variant=34, num_classes=431))
        out = model.forward(rand_images(1, 224))
        assert out.shape == (1, 431)

    def test_resnet50_eighth_width_forward(self):
        model = build_model(ModelConfig(depth_variant=50, num_classes=4, width_multiplier=1 / 8))
        out = model.forward(rand_images(2, 224))
        assert out.shape == (2, 4)

    def test_loc_head_output_shapes(self):
        cfg = toy_config(depth_variant=50, head="loc_head", width_multiplier=1 / 8)
        model = build_model(cfg)
        outs = model.forward(rand_images(3, 64))
        assert [o.shape for o in outs] == [(3, 25), (3, 25), (3, 40), (3, 40)]

    def test_loc_head_zero_image_finite(self):
        model = build_model(toy_config(head="loc_head"))
        outs = model.forward(Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)))
        for o in outs:
            assert np.isfinite(o.data).all()

    def test_loc_head_shapes_independent_of_width(self):
        model = build_model(toy_config(head="loc_head", width_multiplier=1 / 8))
        outs = model.forward(rand_images(1, 64))
        assert [o.shape[1] for o in outs] == [25, 25, 40, 40]

    def test_wrong_input_size_rejected(self):
        model = build_model(toy_config())
        from swpnet.autodiff import ShapeMismatch
        with pytest.raises(ShapeMismatch):
            model.forward(rand_images(1, 96))


class TestSWPHead:
    def test_attach_replaces_plain_head(self):
        model = build_model(toy_config())
        extent = feature_map_extent(model.config)
        attach_swp_head(model, SWPSpec(9, extent, extent), fc_nodes=32)
        assert model.config.head == "swp_head"
        out = model.forward(rand_images(1, 64))
        assert out.shape == (1, 4)
        assert model.head.outputs[-1].in_features == 32

    def test_mask_size_gate(self):
        model = build_model(toy_config())
        extent = feature_map_extent(model.config)
        with pytest.raises(ModelBuildError):
            attach_swp_head(model, SWPSpec(9, extent + 1, extent + 1))

    def test_attach_requires_plain_head(self):
        model = build_model(toy_config(head="loc_head"))
        with pytest.raises(ModelBuildError):
            attach_swp_head(model, SWPSpec(9, 2, 2))

    def test_backbone_preserved_by_attach(self):
        model = build_model(toy_config(), seed=5)
        before = {n: t.data.copy() for n, t in model.parameters() if not n.startswith("head.")}
        extent = feature_map_extent(model.config)
        attach_swp_head(model, SWPSpec(4, extent, extent), fc_nodes=16)
        after = dict(model.parameters())
        for name, data in before.items():
            npt.assert_array_equal(after[name].data, data)

    def test_swp_feature_width(self):
        cfg = ModelConfig(depth_variant=50, num_classes=431, head="swp_head")
        channels = models.block_plan(stage_plan(cfg)[-1][1], 1, bottleneck=True)[-1][2]
        assert channels == 2048
        assert 9 * channels == 18432


class TestResidualIdentity:
    def test_zeroed_branches_are_identity(self):
        for depth in (18, 50):
            cfg = toy_config(depth_variant=depth)
            model = build_model(cfg, seed=3)
            for _, bn in model.layers():
                if isinstance(bn, BatchNorm):
                    bn.running_mean[:] = 0.0
                    bn.running_var[:] = 1.0
            x = rand_images(1, 64, seed=7)
            feats_in = model.stem_pool(
                models.relu(model.stem_bn(model.stem_conv(x), train=False)))
            for block in model.all_blocks():
                if block.shortcut is not None:
                    continue
                for _, conv in block.layers():
                    if isinstance(conv, Conv2d):
                        conv.weight.data[:] = 0.0
            y = feats_in
            for block in model.all_blocks():
                y_next = block.forward(y, train=False)
                if block.shortcut is None:
                    npt.assert_allclose(y_next.data, y.data, atol=1e-6)
                y = y_next


class TestDeterminism:
    def test_same_config_seed_identical_bytes(self):
        a = build_model(toy_config(), seed=11)
        b = build_model(toy_config(), seed=11)
        for (na, ta), (nb, tb) in zip(a.parameters(), b.parameters()):
            assert na == nb
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_different_seed_differs(self):
        a = build_model(toy_config(), seed=1)
        b = build_model(toy_config(), seed=2)
        assert any(ta.data.tobytes() != tb.data.tobytes()
                   for (_, ta), (_, tb) in zip(a.parameters(), b.parameters()))

    def test_parameter_names_unique(self):
        model = build_model(toy_config(depth_variant=50, head="swp_head"))
        names = [n for n, _ in model.parameters()]
        assert len(names) == len(set(names))


class TestParamCount:
    def test_additive_over_registry(self):
        model = build_model(toy_config())
        assert param_count(model) == sum(t.size for _, t in model.parameters())

    def test_excludes_running_stats(self):
        model = build_model(toy_config())
        buffer_scalars = sum(b.size for _, b in model.buffers())
        assert buffer_scalars > 0
        assert param_count(model) == sum(t.size for _, t in model.parameters())


class TestCheckpoint:
    def test_roundtrip_bit_identical_files(self, tmp_path):
        model = build_model(toy_config(), seed=9)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert param_count(loaded) == param_count(model)

    def test_forward_identical_after_roundtrip(self, tmp_path):
        model = build_model(toy_config(depth_variant=50, width_multiplier=1 / 16), seed=4)
        path = tmp_path / "m.ckpt"
        # non-trivial running stats so buffers are exercised too
        model.forward(rand_images(4, 64, seed=1), train=True)
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        x = rand_images(2, 64, seed=2)
        assert model.forward(x).data.tobytes() == loaded.forward(x).data.tobytes()

    def test_swp_loc_head_roundtrip(self, tmp_path):
        cfg = toy_config(head="loc_head")
        extent = feature_map_extent(cfg)
        model = build_model(cfg, swp_spec=SWPSpec(3, extent, extent), fc_nodes=16)
        path = tmp_path / "loc.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        x = rand_images(1, 64, seed=3)
        for a, b in zip(model.forward(x), loaded.forward(x)):
            assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("path", sorted((ROOT / "bench" / "fixtures").glob("*.ckpt"))
                             + sorted(DATA.glob("*.ckpt")), ids=lambda p: p.name)
    def test_load_draws_no_init_values(self, path, monkeypatch, tmp_path):
        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew init values it then overwrites")

        monkeypatch.setattr(layers, "he_normal", no_draw)
        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(load_checkpoint(path), resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_seedless_model_has_zero_weights(self, monkeypatch):
        monkeypatch.setattr(layers, "he_normal", lambda *a, **k: pytest.fail("drew init values"))
        model = build_model(toy_config(head="swp_head"), seed=None, swp_spec=SWPSpec(2, 2, 2), fc_nodes=8)
        assert all(not t.data.any() for name, t in model.parameters() if name.endswith(".weight"))

    def test_corrupted_magic(self, tmp_path):
        model = build_model(toy_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        model = build_model(toy_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CheckpointError, match="truncated|count|missing"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        model = build_model(toy_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        data = bytearray(path.read_bytes())
        data[8] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_missing_config_key_is_named(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(toy_config()), path)
        # rename the key in place so every length field stays valid
        data = path.read_bytes().replace(b'"depth_variant"', b'"depth_varianX"', 1)
        path.write_bytes(data)
        with pytest.raises(CheckpointError, match="'depth_variant'"):
            load_checkpoint(path)

    def test_unreadable_config_echo_is_named(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(toy_config()), path)
        data = bytearray(path.read_bytes())
        data[16] = 0xFF      # first echo byte, after magic, version and length: no longer UTF-8
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="config echo"):
            load_checkpoint(path)

    def test_non_finite_array_is_named(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model = build_model(toy_config())
        save_checkpoint(model, path)
        data = bytearray(path.read_bytes())
        name = b"stages.1.blocks.0.conv1.weight"
        at = data.index(name) + len(name) + 1 + 4 * model.stages[1][0].conv1.weight.data.ndim
        data[at:at + 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=r"non-finite.*'stages\.1\.blocks\.0\.conv1\.weight'"):
            load_checkpoint(path)

    @staticmethod
    def _with_echo(path, edit):
        """Rewrite the checkpoint's config echo through edit(echo dict),
        with its length field to match."""
        data = path.read_bytes()
        start = len(models.CHECKPOINT_MAGIC) + 4
        (length,) = struct.unpack("<I", data[start:start + 4])
        echo = json.loads(data[start + 4:start + 4 + length])
        edit(echo)
        encoded = json.dumps(echo).encode("utf-8")
        path.write_bytes(data[:start] + struct.pack("<I", len(encoded)) + encoded
                         + data[start + 4 + length:])

    @pytest.mark.parametrize("field, value", [
        ("width_multiplier", "a"),
        ("input_size", None),
        ("num_classes", "3"),
        ("depth_variant", [18]),
        ("pre_activation", False),
        ("pre_activation", 1),
    ])
    def test_wrong_config_echo_type_is_named(self, tmp_path, field, value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(toy_config()), path)
        self._with_echo(path, lambda echo: echo.__setitem__(field, value))
        with pytest.raises(CheckpointError, match=f"config echo '{field}' must be"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["num_masks", "mask_h", "mask_w", "fc_nodes"])
    def test_wrong_swp_extras_type_is_named(self, tmp_path, key):
        path = tmp_path / "m.ckpt"
        model = build_model(toy_config(head="swp_head"), swp_spec=SWPSpec(2, 2, 2), fc_nodes=8)
        save_checkpoint(model, path)
        self._with_echo(path, lambda echo: echo["head_extras"]["swp"].__setitem__(key, 2.5))
        with pytest.raises(CheckpointError, match=f"head_extras.swp '{key}' must be int"):
            load_checkpoint(path)

    def test_missing_pre_activation_is_named(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(toy_config()), path)
        self._with_echo(path, lambda echo: echo.pop("pre_activation"))
        with pytest.raises(CheckpointError, match="config echo lacks 'pre_activation'"):
            load_checkpoint(path)

    def test_unbuildable_config_echo_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(toy_config()), path)
        self._with_echo(path, lambda echo: echo.__setitem__("depth_variant", 19))
        with pytest.raises(CheckpointError, match="no buildable model.*depth"):
            load_checkpoint(path)



def _registry_variants():
    extent = feature_map_extent(toy_config())
    bottleneck = {
        f"d{depth}_{name}": make
        for depth in (34, 50)
        for name, make in (
            ("plain", lambda depth=depth: build_model(toy_config(depth_variant=depth), seed=7)),
            ("loc_head_swp", lambda depth=depth: build_model(toy_config(depth_variant=depth, head="loc_head"),
                                                             seed=7, swp_spec=SWPSpec(3, extent, extent),
                                                             fc_nodes=16)),
        )
    }
    return bottleneck | {
        "plain": lambda: build_model(toy_config(), seed=7),
        "swp_head": lambda: build_model(toy_config(head="swp_head"), seed=7,
                                        swp_spec=SWPSpec(4, extent, extent), fc_nodes=16),
        "loc_head": lambda: build_model(toy_config(head="loc_head"), seed=7),
        "loc_head_swp": lambda: build_model(toy_config(head="loc_head"), seed=7,
                                            swp_spec=SWPSpec(3, extent, extent), fc_nodes=16),
        "plain_attach": lambda: attach_swp_head(build_model(toy_config(), seed=7),
                                                SWPSpec(4, extent, extent), fc_nodes=16),
    }


def blas_build_note() -> str:
    """Why golden logits may differ: float32 bytes follow the BLAS kernels."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"logit bytes differ under numpy {np.__version__} with BLAS {blas['name']} "
            f"{blas['version']}; the expected bytes are the ones this repository's reference "
            "host (numpy 2.4.6, scipy-openblas 0.3.31) produces")


class TestRegistryContract:
    """Registry names, shapes and order fix the checkpoint layout; the golden
    lists were written by the releases that had one class per head kind and
    one class per block kind."""

    @pytest.mark.parametrize("variant", sorted(_registry_variants()))
    def test_names_and_shapes_match_golden(self, variant):
        golden = json.loads((DATA / "registry_golden.json").read_text())[variant]
        model = _registry_variants()[variant]()
        assert [[n, list(t.shape)] for n, t in model.parameters()] == golden["parameters"]
        assert [[n, list(b.shape)] for n, b in model.buffers()] == golden["buffers"]

    @pytest.mark.parametrize("name", ["swp_head", "loc_head", "loc_head_swp", "d50_loc_head"])
    def test_v1_checkpoint_loads_with_identical_logits(self, name, tmp_path):
        path = DATA / f"tiny_{name}_v1.ckpt"
        expected = np.load(DATA / f"tiny_{name}_v1_logits.npz")
        model = load_checkpoint(path)
        size = model.config.input_size
        x = np.random.default_rng(11).uniform(0, 1, size=(2, 3, size, size)).astype(np.float32)
        out = model.forward(Tensor(x), train=False)
        outs = out if isinstance(out, list) else [out]
        assert len(outs) == len(expected.files)
        for i, o in enumerate(outs):
            assert o.data.tobytes() == expected[f"out{i}"].tobytes(), blas_build_note()
        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(model, resaved)
        assert resaved.read_bytes() == path.read_bytes()


class TestSharedInference:
    def test_two_threads_match_single_thread(self):
        self.assert_two_threads_match_single_thread(batch=2)

    def test_two_threads_match_single_thread_in_two_lanes(self, monkeypatch):
        # at batch 16 the stem splits into two lanes, so both callers hand
        # their lane 1 to the same lane threads
        monkeypatch.setattr(layers, "LANES", 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            self.assert_two_threads_match_single_thread(batch=16)
        finally:
            sys.setswitchinterval(interval)

    def assert_two_threads_match_single_thread(self, batch):
        layers._window_index.cache_clear()
        extent = feature_map_extent(toy_config())
        model = build_model(toy_config(head="swp_head"), seed=12,
                            swp_spec=SWPSpec(4, extent, extent), fc_nodes=16)
        model.forward(rand_images(4, 64, seed=1), train=True)   # non-trivial running stats
        inputs = [rand_images(batch, 64, seed=20 + i) for i in range(6)]
        expected = [model.forward(x, train=False).data.tobytes() for x in inputs]
        serial_entries = layers._window_index.cache_info().currsize
        # both threads start on a cold gather-index cache and fill it concurrently
        layers._window_index.cache_clear()
        results = [[], []]
        start = threading.Barrier(2)

        def worker(slot):
            start.wait()
            for _ in range(3):
                results[slot] += [model.forward(x, train=False).data.tobytes() for x in inputs]

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert results == [expected * 3, expected * 3]
        assert layers._window_index.cache_info().currsize == serial_entries
