"""Corrupted input for the three file readers: `load_checkpoint` may only
raise CheckpointError, `load_manifest` only DataSynthError and
`read_history` only HistoryError.  Examples are
derandomized so a run is repeatable; raise max_examples locally to search
further."""

import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from swpnet import models
from swpnet.datasynth import DatasetManifest, DataSynthError, generate_dataset, load_manifest
from swpnet.models import CheckpointError, Model, ModelConfig, load_checkpoint, save_checkpoint
from swpnet.swp import SWPSpec
from swpnet.training import HistoryError, history_path, read_history

FUZZ = settings(max_examples=50, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """Bytes of a small SWP-head checkpoint (so head_extras are present)."""
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    config = ModelConfig(depth_variant=18, num_classes=3, width_multiplier=1 / 64,
                         input_size=32, head="swp_head")
    save_checkpoint(Model(config, seed=1, swp_spec=SWPSpec(2, 1, 1), fc_nodes=4), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest")
    generate_dataset(2, 2, 48, root, seed=3, scale_range=(0.55, 0.65), clutter=0)
    path = root / "train.txt"
    return path, path.read_bytes()


def _load_checkpoint_bytes(path, data):
    path.write_bytes(bytes(data))
    try:
        assert isinstance(load_checkpoint(path), models.Model)
    except CheckpointError:
        pass


def _echo_end(data: bytes) -> int:
    start = len(models.CHECKPOINT_MAGIC) + 4
    return start + 4 + struct.unpack("<I", data[start:start + 4])[0]


@FUZZ
@given(edits=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 255)),
                      min_size=1, max_size=6),
       cut=st.one_of(st.none(), st.floats(0, 1)))
def test_checkpoint_byte_corruption(tiny_checkpoint, tmp_path, edits, cut):
    data = bytearray(tiny_checkpoint)
    for where, value in edits:
        data[int(where * len(data))] = value
    if cut is not None:
        data = data[:int(cut * len(data))]
    _load_checkpoint_bytes(tmp_path / "fuzz.ckpt", data)


@FUZZ
@given(edits=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 255)),
                      min_size=1, max_size=4))
def test_checkpoint_header_and_echo_corruption(tiny_checkpoint, tmp_path, edits):
    # most of the file is float payload; aim at the magic, version and echo
    end = _echo_end(tiny_checkpoint)
    data = bytearray(tiny_checkpoint)
    for where, value in edits:
        data[int(where * end)] = value
    _load_checkpoint_bytes(tmp_path / "fuzz.ckpt", data)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


@FUZZ
@given(key=st.sampled_from(["depth_variant", "num_classes", "width_multiplier", "input_size",
                            "head", "pre_activation", "head_extras", "trained_epochs",
                            "swp.num_masks", "swp.mask_h", "swp.mask_w", "swp.fc_nodes"]),
       value=JSON_VALUES)
def test_checkpoint_echo_values(tiny_checkpoint, tmp_path, key, value):
    start = len(models.CHECKPOINT_MAGIC) + 4
    end = _echo_end(tiny_checkpoint)
    echo = json.loads(tiny_checkpoint[start + 4:end])
    if key.startswith("swp."):
        echo["head_extras"]["swp"][key[4:]] = value
    else:
        echo[key] = value
    encoded = json.dumps(echo).encode("utf-8")
    data = tiny_checkpoint[:start] + struct.pack("<I", len(encoded)) + encoded + tiny_checkpoint[end:]
    _load_checkpoint_bytes(tmp_path / "fuzz.ckpt", data)


LINE = st.one_of(
    st.binary(max_size=40),
    st.text(max_size=40).map(lambda s: s.encode("utf-8", "surrogatepass")),
    st.lists(st.text(st.characters(blacklist_characters=",\n\r"), max_size=12), min_size=6, max_size=6)
    .map(lambda fields: ",".join(fields).encode("utf-8", "surrogatepass")),
)


@FUZZ
@given(edits=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), LINE), min_size=1, max_size=3),
       drop=st.booleans())
def test_manifest_line_corruption(tiny_manifest, tmp_path, edits, drop):
    path, original = tiny_manifest
    lines = original.split(b"\n")
    for where, line in edits:
        at = int(where * len(lines))
        if drop:
            lines[at] = line
        else:
            lines.insert(at, line)
    fuzzed = path.with_name("fuzz.txt")   # beside the images, so relative paths resolve
    fuzzed.write_bytes(b"\n".join(lines))
    try:
        assert isinstance(load_manifest(fuzzed), DatasetManifest)
    except DataSynthError:
        pass


def test_non_utf8_manifest_is_named(tiny_manifest):
    path, original = tiny_manifest
    fuzzed = path.with_name("latin1.txt")
    fuzzed.write_bytes(original + "café.ppm,0,1,1,1,1\n".encode("latin-1"))
    with pytest.raises(DataSynthError, match="latin1.txt.*UTF-8"):
        load_manifest(fuzzed)


HISTORY = (b"epoch,steps,loss,accuracy,lr\n0,3,0.5,50.0,0.01\n1,6,0.4,62.5,0.001\n"
           b"2,9,0.375,70.0,0.01\n")


# a line of five fields, so the check of each field is reached
HISTORY_LINE = LINE | st.lists(st.text(st.characters(blacklist_characters=",\n"), max_size=6),
                               min_size=5, max_size=5).map(lambda fields: ",".join(fields).encode(
                                   "utf-8", "surrogatepass"))


def _read_history_bytes(ckpt, data):
    history_path(ckpt).write_bytes(data)
    try:
        rows = read_history(ckpt)
    except HistoryError:
        return
    assert all(isinstance(row, str) and row.count(",") == 4 for row in rows)


@FUZZ
@given(edits=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), HISTORY_LINE), min_size=1,
                      max_size=3),
       drop=st.booleans())
def test_history_line_corruption(tmp_path, edits, drop):
    lines = HISTORY.split(b"\n")
    for where, line in edits:
        at = int(where * len(lines))
        if drop:
            lines[at] = line
        else:
            lines.insert(at, line)
    _read_history_bytes(tmp_path / "fuzz.ckpt", b"\n".join(lines))


def _edit(data: bytearray, edits) -> bytearray:
    for where, value in edits:
        data[int(where * len(data))] = value
    return data


@FUZZ
@given(data=st.one_of(st.binary(max_size=200),
                      st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 255)),
                               min_size=1, max_size=6).map(
                          lambda edits: bytes(_edit(bytearray(HISTORY), edits)))))
def test_history_bytes(tmp_path, data):
    _read_history_bytes(tmp_path / "fuzz.ckpt", data)

