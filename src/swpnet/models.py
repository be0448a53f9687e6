"""Declarative residual-network builders with one planned block type, one
table-driven head, a named parameter registry walked from one module tree,
and a bit-exact binary checkpoint format.

Blocks use pre-activation ordering (batch norm and relu before each conv);
depth 18/34 use basic blocks, depth 50 uses bottlenecks.  A width multiplier
scales every stage's channel count for desk-scale runs while preserving the
stage structure and the final spatial map.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import secrets
import struct
import typing
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DEFAULT_DTYPE, Tensor
from .autodiff import relu  # noqa: F401  (unused here; bound only because bench/spans.py patches models.relu)
from .binning import LOC_OUTPUTS
from .layers import BatchNorm, Conv2d, Dense, Pool2d
from .swp import SWPLayer, SWPSpec

# head kind -> (front, named Dense outputs).  The front is "avgpool", "swp"
# (swp -> bn -> dense), or "either" (swp only when given an SWPSpec); an
# output node count of None means the config's class count.
HEAD_TABLE = {
    "plain_avgpool_fc": ("avgpool", (("fc", None),)),
    "swp_head": ("swp", (("classifier", None),)),
    "loc_head": ("either", tuple((name, spec.n_bins) for name, spec in LOC_OUTPUTS)),
}
HEAD_KINDS = tuple(HEAD_TABLE)

_STAGE_BLOCKS = {18: (2, 2, 2, 2), 34: (3, 4, 6, 3), 50: (3, 4, 6, 3)}
_STAGE_CHANNELS = (64, 128, 256, 512)
_STAGE_STRIDES = (1, 2, 2, 2)


class ModelBuildError(ValueError):
    pass


class CheckpointError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    depth_variant: int
    num_classes: int
    width_multiplier: float = 1.0
    input_size: int = 224
    head: str = "plain_avgpool_fc"

    def __post_init__(self):
        if self.depth_variant not in _STAGE_BLOCKS:
            raise ModelBuildError(f"depth must be one of {sorted(_STAGE_BLOCKS)}, got {self.depth_variant}")
        if not 0 < self.width_multiplier <= 1:
            raise ModelBuildError(f"width multiplier must lie in (0, 1], got {self.width_multiplier}")
        if self.head not in HEAD_KINDS:
            raise ModelBuildError(f"head must be one of {HEAD_KINDS}, got {self.head!r}")
        if self.num_classes < 2 and self.head != "loc_head":
            raise ModelBuildError("classification needs at least 2 classes")
        if self.input_size < 16:
            raise ModelBuildError(f"input size {self.input_size} too small for the stem and four stages")


def _width(channels: int, multiplier: float) -> int:
    return max(1, round(channels * multiplier))


def stage_plan(config: ModelConfig) -> list[tuple[int, int, int]]:
    """(block_count, channels, first-block stride) per stage."""
    counts = _STAGE_BLOCKS[config.depth_variant]
    return [(n, _width(c, config.width_multiplier), s)
            for n, c, s in zip(counts, _STAGE_CHANNELS, _STAGE_STRIDES)]


def feature_map_extent(config: ModelConfig) -> int:
    """Spatial extent of the pre-head feature map (7 for 224 input)."""
    e = (config.input_size + 2 * 3 - 7) // 2 + 1     # stem conv 7x7/2 pad 3
    e = (e - 3) // 2 + 1                             # stem max pool 3x3/2
    for stride in _STAGE_STRIDES:
        e = (e - 1) // stride + 1                    # each stage's first block
    if e < 1:
        raise ModelBuildError(f"input {config.input_size} collapses below 1x1")
    return e


class Module:
    """A node of the model tree.  Each subclass lists its children, layers or
    modules, in registry order with `_parts()`; parameter and buffer lists
    both derive from the one walk in `layers()`."""

    def _parts(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def layers(self, prefix: str = ""):
        """(registry path, leaf layer) pairs in registry order."""
        for name, part in self._parts():
            if isinstance(part, Module):
                yield from part.layers(f"{prefix}{name}.")
            else:
                yield f"{prefix}{name}", part

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(f"{path}.{name}", t) for path, layer in self.layers() for name, t in layer.parameters()]

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        return [(f"{path}.{name}", b) for path, bn in self.layers() if isinstance(bn, BatchNorm)
                for name, b in bn.buffers()]


def block_plan(channels: int, stride: int, bottleneck: bool) -> tuple[tuple[int, int, int], ...]:
    """(kernel, stride, out channels) per conv: two 3x3 convs, or the
    bottleneck's 1x1 reduce (carrying the stride), 3x3 and 1x1 expand by 4."""
    if bottleneck:
        return (1, stride, channels), (3, 1, channels), (1, 1, 4 * channels)
    return (3, stride, channels), (3, 1, channels)


class Block(Module):
    """Pre-activation residual block: bn -> relu (one fused op) -> conv for
    each conv of its plan, plus a shortcut that is a projection 1x1 conv
    only when the shape changes.  The very first block after the stem skips
    its leading bn-relu (the stem already applied one)."""

    def __init__(self, in_ch: int, channels: int, stride: int, skip_preact: bool,
                 rng: np.random.Generator | None, dtype, bottleneck: bool = False):
        self.steps = []     # (bn or None, conv) per conv, as attributes bn1, conv1, ...
        ch = in_ch
        for i, (kernel, conv_stride, out_ch) in enumerate(block_plan(channels, stride, bottleneck), 1):
            bn = None if i == 1 and skip_preact else BatchNorm(ch, dtype=dtype)
            conv = Conv2d(ch, out_ch, kernel, conv_stride, kernel // 2, bias=False, rng=rng, dtype=dtype)
            setattr(self, f"bn{i}", bn)
            setattr(self, f"conv{i}", conv)
            self.steps.append((bn, conv))
            ch = out_ch
        self.shortcut = None
        if stride != 1 or in_ch != ch:
            self.shortcut = Conv2d(in_ch, ch, 1, stride, 0, bias=False, rng=rng, dtype=dtype)
        self.out_channels = ch

    def forward(self, x: Tensor, train: bool) -> Tensor:
        y = x
        for bn, conv in self.steps:
            y = conv(y if bn is None else bn(y, train, relu=True))
        sc = x if self.shortcut is None else self.shortcut(x)
        return ad.add(y, sc)

    def _parts(self):
        parts = []
        for i, (bn, conv) in enumerate(self.steps, 1):
            parts += ([] if bn is None else [(f"bn{i}", bn)]) + [(f"conv{i}", conv)]
        return parts + ([] if self.shortcut is None else [("shortcut", self.shortcut)])


class Head(Module):
    """A front -- global average pool, or swp -> bn -> dense -- then named
    Dense outputs in parallel over the front's vector.  A single output
    returns its tensor; several return a list in table order."""

    def __init__(self, kind: str, channels: int, map_extent: int, num_classes: int,
                 rng: np.random.Generator | None, dtype, swp_spec: SWPSpec | None = None,
                 fc_nodes: int = 1024):
        front, outputs = HEAD_TABLE[kind]
        if front == "swp":
            swp_spec = swp_spec or SWPSpec(9, map_extent, map_extent)
        elif front == "avgpool":
            swp_spec = None
        self.channels = channels
        self.fc_nodes = fc_nodes
        self.pool = self.swp = self.bn = self.hidden = None
        if swp_spec is None:
            self.pool = Pool2d("average", map_extent, stride=1)
            width = channels
        else:
            if (swp_spec.mask_h, swp_spec.mask_w) != (map_extent, map_extent):
                raise ModelBuildError(f"masks {swp_spec.mask_h}x{swp_spec.mask_w} do not match the "
                                      f"{map_extent}x{map_extent} feature map")
            self.swp = SWPLayer(swp_spec, dtype=dtype)
            self.bn = BatchNorm(swp_spec.num_masks * channels, dtype=dtype)
            self.hidden = Dense(swp_spec.num_masks * channels, fc_nodes, rng=rng, dtype=dtype)
            width = fc_nodes
        self.output_names = [name for name, _ in outputs]
        self.outputs = [Dense(width, nodes or num_classes, rng=rng, dtype=dtype)
                        for _, nodes in outputs]

    def forward(self, feats: Tensor, train: bool):
        if self.swp is None:
            shared = ad.reshape(self.pool(feats), (feats.shape[0], self.channels))
        else:
            shared = self.hidden(self.bn(self.swp(feats), train))
        outs = [layer(shared) for layer in self.outputs]
        return outs[0] if len(outs) == 1 else outs

    def _parts(self):
        front = [] if self.swp is None else [("swp", self.swp), ("bn", self.bn), ("fc", self.hidden)]
        return front + list(zip(self.output_names, self.outputs))

    def extras(self):
        if self.swp is None:
            return {}
        s = self.swp.spec
        return {"swp": {"num_masks": s.num_masks, "mask_h": s.mask_h, "mask_w": s.mask_w,
                        "fc_nodes": self.fc_nodes}}


class Model(Module):
    """Stem, four residual stages, final bn-relu, and one head.

    Conv and dense weights are He-initialised from `seed`; seed=None draws
    nothing and leaves them zero, for load_checkpoint to overwrite.
    """

    def __init__(self, config: ModelConfig, seed: int | None = 0, dtype=DEFAULT_DTYPE,
                 swp_spec: SWPSpec | None = None, fc_nodes: int = 1024):
        self.config = config
        self.dtype = dtype
        self.trained_epochs = 0
        rng = None if seed is None else np.random.default_rng(seed)

        stem_ch = _width(64, config.width_multiplier)
        self.stem_conv = Conv2d(3, stem_ch, 7, stride=2, padding=3, bias=False, rng=rng, dtype=dtype)
        self.stem_bn = BatchNorm(stem_ch, dtype=dtype)
        self.stem_pool = Pool2d("max", 3, stride=2)

        bottleneck = config.depth_variant == 50
        self.stages: list[list] = []
        in_ch = stem_ch
        for stage_idx, (count, channels, first_stride) in enumerate(stage_plan(config)):
            blocks = []
            for block_idx in range(count):
                stride = first_stride if block_idx == 0 else 1
                skip = stage_idx == 0 and block_idx == 0
                block = Block(in_ch, channels, stride, skip, rng, dtype, bottleneck)
                in_ch = block.out_channels
                blocks.append(block)
            self.stages.append(blocks)

        self.final_bn = BatchNorm(in_ch, dtype=dtype)
        self.head = Head(config.head, in_ch, feature_map_extent(config), config.num_classes,
                         rng, dtype, swp_spec=swp_spec, fc_nodes=fc_nodes)

    # -- running the network -------------------------------------------------

    def backbone(self, x: Tensor, train: bool = False) -> Tensor:
        if x.data.ndim != 4 or x.shape[1] != 3:
            raise ad.ShapeMismatch(f"expected [batch, 3, H, W] input, got {x.shape}")
        if x.shape[2] != self.config.input_size or x.shape[3] != self.config.input_size:
            raise ad.ShapeMismatch(f"input spatial {x.shape[2]}x{x.shape[3]} != "
                                   f"configured {self.config.input_size}")
        y = self.stem_pool(self.stem_bn(self.stem_conv(x), train, relu=True))
        for blocks in self.stages:
            for block in blocks:
                y = block.forward(y, train)
        return self.final_bn(y, train, relu=True)

    def forward(self, x: Tensor, train: bool = False):
        return self.head.forward(self.backbone(x, train), train)

    def swp_vector(self, x: Tensor) -> Tensor:
        """Raw spatially-weighted pooling output, for heatmap export."""
        if self.head.swp is None:
            raise ModelBuildError("model has no spatially-weighted pooling head")
        return self.head.swp(self.backbone(x, train=False))

    # -- registry -------------------------------------------------------------

    def _parts(self):
        blocks = [(f"stages.{i}.blocks.{j}", block)
                  for i, blocks in enumerate(self.stages) for j, block in enumerate(blocks)]
        return [("stem.conv", self.stem_conv), ("stem.bn", self.stem_bn), *blocks,
                ("final_bn", self.final_bn), ("head", self.head)]

    def all_blocks(self):
        return [block for blocks in self.stages for block in blocks]


def attach_swp_head(model: Model, swp_spec: SWPSpec, fc_nodes: int = 1024) -> Model:
    """Replace a plain average-pool head with swp -> bn -> dense -> classifier,
    keeping every backbone parameter.  The new head draws its weights from
    seed 0, so the same model and spec always give the same head."""
    if model.config.head != "plain_avgpool_fc":
        raise ModelBuildError(f"can only attach to a plain head, model has {model.config.head!r}")
    config = dataclasses.replace(model.config, head="swp_head")
    model.head = Head(config.head, model.head.channels, feature_map_extent(config), config.num_classes,
                      np.random.default_rng(0), model.dtype, swp_spec=swp_spec, fc_nodes=fc_nodes)
    model.config = config
    return model


def param_count(model: Model) -> int:
    """Learnable scalars only; batch-norm running statistics are excluded."""
    return sum(t.size for _, t in model.parameters())


# ---------------------------------------------------------------------------
# checkpoint format: magic, version, config echo, named little-endian
# float32 arrays in registry order (parameters, then buffers)
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"SWPNETC1"
CHECKPOINT_VERSION = 1


def _config_echo(model: Model) -> dict:
    # "pre_activation" names the only block ordering built; v1 files carry it
    return {**dataclasses.asdict(model.config), "pre_activation": True,
            "head_extras": model.head.extras(), "trained_epochs": model.trained_epochs}


def _require(mapping, keys, where: str) -> list:
    """The values of keys, or a CheckpointError naming the missing ones."""
    missing = [k for k in keys if k not in mapping] if isinstance(mapping, dict) else list(keys)
    if missing:
        raise CheckpointError(f"{where} lacks {', '.join(map(repr, missing))}")
    return [mapping[k] for k in keys]


# a field's declared type -> the JSON values the config echo may hold for it
_ECHO_KINDS = {int: (int,), float: (int, float), str: (str,)}


def _typed(value, kind: type, where: str):
    """value, or a CheckpointError naming where when it is not a `kind`
    (a bool is not a number, an int counts as a float)."""
    if isinstance(value, bool) or not isinstance(value, _ECHO_KINDS[kind]):
        raise CheckpointError(f"{where} must be {kind.__name__}, got {value!r}")
    return value


def _write_array(f, name: str, data: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    f.write(struct.pack("<H", len(encoded)))
    f.write(encoded)
    f.write(struct.pack("<B", data.ndim))
    for extent in data.shape:
        f.write(struct.pack("<I", extent))
    f.write(np.ascontiguousarray(data, dtype="<f4"))


def save_checkpoint(model: Model, path) -> None:
    if model.dtype != np.float32:
        raise CheckpointError("checkpoints store float32 models only")
    params = model.parameters()
    buffers = model.buffers()
    echo = json.dumps(_config_echo(model), sort_keys=True, separators=(",", ":")).encode("utf-8")
    # a temporary file beside the target, moved over it once whole, so a
    # failed write leaves the old checkpoint as it was
    target = os.path.realpath(path)
    tmp = f"{target}.{secrets.token_hex(4)}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(struct.pack("<I", len(echo)))
            f.write(echo)
            f.write(struct.pack("<I", len(params)))
            for name, tensor in params:
                _write_array(f, name, tensor.data)
            f.write(struct.pack("<I", len(buffers)))
            for name, data in buffers:
                _write_array(f, name, data)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


class _Reader:
    """Slices of one memoryview of the file's bytes, so reading copies nothing."""

    def __init__(self, data: bytes):
        self.data = memoryview(data)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise CheckpointError("truncated checkpoint file")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self):
        return struct.unpack("<B", self.take(1))[0]

    def u16(self):
        return struct.unpack("<H", self.take(2))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]


def _read_array(r: _Reader) -> tuple[str, np.ndarray]:
    try:
        name = str(r.take(r.u16()), "utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"array name at byte {r.pos} is not UTF-8") from None
    shape = tuple(r.u32() for _ in range(r.u8()))
    data = np.frombuffer(r.take(math.prod(shape) * 4), dtype="<f4")
    try:
        return name, data.reshape(shape)
    except ValueError:
        raise CheckpointError(f"array {name!r} has an unusable shape {shape}") from None


def load_checkpoint(path) -> Model:
    with open(path, "rb") as f:
        r = _Reader(f.read())
    if r.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic bytes: not a swpnet checkpoint")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        echo = json.loads(str(r.take(r.u32()), "utf-8"))
    except ValueError as err:
        raise CheckpointError(f"unreadable config echo: {err}") from None

    kinds = typing.get_type_hints(ModelConfig)
    fields = [f.name for f in dataclasses.fields(ModelConfig)]
    *values, pre_activation = _require(echo, [*fields, "pre_activation"], "config echo")
    if pre_activation is not True:
        raise CheckpointError(f"config echo 'pre_activation' must be true, got {pre_activation!r}")
    config = {f: _typed(v, kinds[f], f"config echo {f!r}") for f, v in zip(fields, values)}
    extras = echo.get("head_extras", {})
    if not isinstance(extras, dict):
        raise CheckpointError(f"config echo 'head_extras' must be an object, got {extras!r}")
    swp_spec, fc_nodes = None, 1024
    try:
        if "swp" in extras:
            keys = ("num_masks", "mask_h", "mask_w", "fc_nodes")
            *spec, fc_nodes = (_typed(v, int, f"config echo head_extras.swp {k!r}") for k, v in
                               zip(keys, _require(extras["swp"], keys, "config echo head_extras.swp")))
            swp_spec = SWPSpec(*spec)
        model = Model(ModelConfig(**config), seed=None, swp_spec=swp_spec, fc_nodes=fc_nodes)
    except (ValueError, ad.AutodiffError) as err:
        raise CheckpointError(f"config echo describes no buildable model: {err}") from None
    model.trained_epochs = _typed(echo.get("trained_epochs", 0), int, "config echo 'trained_epochs'")
    if model.trained_epochs < 0:
        raise CheckpointError(f"config echo 'trained_epochs' must be at least 0, got {model.trained_epochs}")

    stored_params = [_read_array(r) for _ in range(r.u32())]
    stored_buffers = [_read_array(r) for _ in range(r.u32())]
    if r.pos != len(r.data):
        raise CheckpointError("trailing bytes after checkpoint payload")

    def apply(stored, expected):
        if len(stored) != len(expected):
            raise CheckpointError(f"array count mismatch: {len(stored)} stored, {len(expected)} expected")
        by_name = dict(stored)
        for name, target in expected:
            if name not in by_name:
                raise CheckpointError(f"missing array {name!r}")
            data = by_name[name]
            if data.shape != target.shape:
                raise CheckpointError(f"shape mismatch for {name!r}: {data.shape} vs {target.shape}")
            if not np.isfinite(data).all():
                raise CheckpointError(f"non-finite values in array {name!r}")
            target[...] = data

    apply(stored_params, [(name, t.data) for name, t in model.parameters()])
    apply(stored_buffers, model.buffers())
    return model
