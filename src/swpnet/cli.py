"""Command-line entry point for the full workflow: data generation,
training, evaluation, the two-stage pipeline, benchmarking, heatmaps, and
bin histograms.

Exit codes: 0 success, 1 runtime failure (training divergence included),
2 usage error: a malformed command line, or a flag value the library
rejects.  Reports go to stdout; artifacts only to flagged paths.
The SWPNET_SEED environment variable overrides the default of every --seed
flag; an explicit flag wins over the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import autodiff, datasynth, evaluation, models, swp, training


class UsageError(ValueError):
    """A bad command line or flag value (exit 2).  `usage` is the usage
    line of the parser that rejected it, empty when a command did."""

    def __init__(self, message: str, usage: str = ""):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a UsageError, so it exits the
    same way as a flag value the library rejects."""

    def error(self, message):
        raise UsageError(message, self.format_usage())


@contextmanager
def _flag_values():
    """Wraps a command's step from flags to library settings: a ValueError
    raised there is a flag value the library rejects, so a usage error."""
    try:
        yield
    except ValueError as err:
        raise UsageError(str(err)) from None


def _env_seed() -> int:
    raw = os.environ.get("SWPNET_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"SWPNET_SEED must be an integer, got {raw!r}") from None


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type for counts and sizes: an integer of at least 1."""
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    """argparse type for counts that may be zero: an integer of at least 0."""
    return _int_at_least(text, 0)


def batch_sizes(text: str) -> tuple[int, ...]:
    """argparse type for --batches: comma-separated integers of at least 1."""
    return tuple(positive_int(tok) for tok in text.split(","))


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=_env_seed(),
                        help="global rng seed (env SWPNET_SEED overrides this default)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="swpnet",
        description="Residual networks with spatially-weighted pooling and "
                    "binned-box localisation, at desk scale.",
        epilog="exit codes: 0 success, 1 runtime failure, 2 usage error")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("gen-data", formatter_class=fmt,
                       help="render a synthetic glyph dataset with exact boxes")
    p.set_defaults(run=cmd_gen_data)
    p.add_argument("--classes", type=positive_int, default=4, help="number of glyph classes")
    p.add_argument("--per-class", type=positive_int, default=25, help="images per class")
    p.add_argument("--canvas", type=positive_int, default=256, help="square canvas side in pixels")
    p.add_argument("--out-dir", required=True, help="output directory for images and manifest")
    p.add_argument("--margin", type=float, default=0.25, help="similarity margin between classes")
    p.add_argument("--scale-min", type=float, default=0.45, help="min glyph width fraction")
    p.add_argument("--scale-max", type=float, default=0.70, help="max glyph width fraction")
    p.add_argument("--jitter", type=float, default=0.10, help="centre jitter fraction")
    p.add_argument("--clutter", type=non_negative_int, default=3,
                   help="background clutter shapes per image")
    p.add_argument("--split", default="train", help="split tag written to the manifest")
    _add_seed(p)

    p = sub.add_parser("train", formatter_class=fmt,
                       help="train a classifier or localiser and write a checkpoint")
    p.set_defaults(run=cmd_train)
    p.add_argument("--task", choices=("cls", "loc"), default="cls", help="training task")
    p.add_argument("--arch", type=int, choices=(18, 34, 50), default=50, help="depth variant")
    p.add_argument("--width", type=float, default=1.0, help="channel width multiplier")
    p.add_argument("--swp", action="store_true",
                   help="use a spatially-weighted pooling head (warns on --task loc)")
    p.add_argument("--swp-masks", type=positive_int, default=9, help="mask count for the SWP head")
    p.add_argument("--fc-nodes", type=positive_int, default=1024, help="hidden nodes behind the SWP head")
    p.add_argument("--input-size", type=positive_int, default=224, help="network input side in pixels")
    p.add_argument("--manifest", required=True, help="training manifest path")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--resume", default=None,
                   help="checkpoint to continue training from (sets the model and input size)")
    p.add_argument("--epochs", type=positive_int, default=30, help="training epochs")
    p.add_argument("--batch-size", type=positive_int, default=8, help="minibatch size")
    p.add_argument("--lr", type=float, default=0.01, help="learning rate")
    p.add_argument("--momentum", type=float, default=0.9, help="SGD momentum")
    p.add_argument("--weight-decay", type=float, default=1e-4, help="L2 weight decay")
    p.add_argument("--scale-min", type=float, default=0.8, help="augmentation min rescale")
    p.add_argument("--scale-max", type=float, default=1.3, help="augmentation max rescale")
    p.add_argument("--early-stop", type=float, default=None,
                   help="stop once train accuracy reaches this percentage")
    _add_seed(p)

    p = sub.add_parser("eval", formatter_class=fmt,
                       help="evaluate a checkpoint on a manifest (top-k or per-output bins)")
    p.set_defaults(run=cmd_eval)
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--manifest", required=True, help="eval manifest path")
    p.add_argument("--batch-size", type=positive_int, default=32, help="eval batch size")
    p.add_argument("--raw", action="store_true",
                   help="localisation eval on raw resized images instead of centre crops")

    p = sub.add_parser("pipeline", formatter_class=fmt,
                       help="two-stage localise-then-classify evaluation")
    p.set_defaults(run=cmd_pipeline)
    p.add_argument("--loc", default=None, help="localiser checkpoint (required unless --oracle)")
    p.add_argument("--cls", required=True, help="classifier checkpoint")
    p.add_argument("--manifest", required=True, help="eval manifest path")
    p.add_argument("--oracle", action="store_true",
                   help="replace the localiser with ground-truth boxes")
    p.add_argument("--batch-size", type=positive_int, default=32, help="eval batch size")

    p = sub.add_parser("bench", formatter_class=fmt,
                       help="inference throughput over synthetic in-memory batches")
    p.set_defaults(run=cmd_bench)
    p.add_argument("--ckpt", required=True, help="model checkpoint (classifier stage)")
    p.add_argument("--loc-ckpt", default=None, help="optional localiser checkpoint (bench the pipeline)")
    p.add_argument("--batches", type=batch_sizes, default="1,32", help="comma-separated batch sizes")
    p.add_argument("--images", type=positive_int, default=10000, help="images per measurement")
    _add_seed(p)

    p = sub.add_parser("heatmap", formatter_class=fmt,
                       help="export SWP output heatmaps as binary graymaps")
    p.set_defaults(run=cmd_heatmap)
    p.add_argument("--ckpt", required=True, help="checkpoint whose head has an SWP front")
    p.add_argument("--manifest", required=True, help="manifest providing input images")
    p.add_argument("--out-dir", required=True, help="directory for .pgm files")
    p.add_argument("--limit", type=positive_int, default=4, help="number of images to export")
    p.add_argument("--rows", type=positive_int, default=None, help="heatmap grid rows (default: mask count)")
    p.add_argument("--cols", type=positive_int, default=None, help="heatmap grid cols (default: channels)")

    p = sub.add_parser("analyze-bins", formatter_class=fmt,
                       help="bin-occupancy histograms of manifest boxes (CSV per output)")
    p.set_defaults(run=cmd_analyze_bins)
    p.add_argument("--manifest", required=True, help="manifest path")
    p.add_argument("--out-prefix", required=True, help="output prefix for the four CSV files")
    p.add_argument("--preprocess", action="store_true",
                   help="apply train-time rescale+crop before binning")
    p.add_argument("--crop", type=positive_int, default=224, help="crop size when --preprocess is set")
    p.add_argument("--scale-min", type=float, default=0.8, help="min rescale when --preprocess is set")
    p.add_argument("--scale-max", type=float, default=1.3, help="max rescale when --preprocess is set")
    _add_seed(p)

    for p in sub.choices.values():   # a command's usage error shows its own usage line
        p.set_defaults(usage=p.format_usage())
    return parser


# -- command bodies -----------------------------------------------------------
# Each command turns its flags into library settings inside `_flag_values()`
# before it runs, so a value the library rejects exits 2 and writes nothing.


def cmd_gen_data(args) -> int:
    with _flag_values():   # generate_dataset checks its arguments before it writes
        manifest = datasynth.generate_dataset(
            args.classes, args.per_class, args.canvas, args.out_dir, similarity_margin=args.margin,
            seed=args.seed, split=args.split, scale_range=(args.scale_min, args.scale_max),
            center_jitter=args.jitter, clutter=args.clutter)
    print(f"manifest: {datasynth.manifest_path(args.out_dir, args.split)}")
    print(f"classes: {manifest.n_classes}  images: {len(manifest)}")
    return 0


def _train_preprocess(crop_size: int, args):
    """Train-time rescale+crop at crop_size, sharing the eval config's scale."""
    return dataclasses.replace(evaluation.default_eval_config(crop_size),
                               scale_range=(args.scale_min, args.scale_max), seed=args.seed)


def cmd_train(args) -> int:
    if args.swp and args.task == "loc":
        print("warning: an SWP head on the localiser reduced accuracy in earlier runs; "
              "proceeding anyway", file=sys.stderr)

    manifest = datasynth.load_manifest(args.manifest)
    resumed = models.load_checkpoint(args.resume) if args.resume else None
    if resumed and (resumed.config.head == "loc_head") != (args.task == "loc"):
        raise UsageError(f"--resume checkpoint head {resumed.config.head!r} "
                         f"does not fit task {args.task!r}")
    head = "loc_head" if args.task == "loc" else "swp_head" if args.swp else "plain_avgpool_fc"
    with _flag_values():   # after the manifest, which sets the model's class count
        train_config = training.TrainConfig(
            lr=args.lr, momentum=args.momentum, weight_decay=args.weight_decay,
            batch_size=args.batch_size, max_epochs=args.epochs, seed=args.seed,
            early_stop_accuracy=args.early_stop)
        config = resumed.config if resumed else models.ModelConfig(
            depth_variant=args.arch, num_classes=manifest.n_classes, width_multiplier=args.width,
            input_size=args.input_size, head=head)
        extent = models.feature_map_extent(config)
        swp_spec = swp.SWPSpec(args.swp_masks, extent, extent) if args.swp else None
        preprocess = _train_preprocess(config.input_size, args)
    model = resumed or models.build_model(config, seed=args.seed, swp_spec=swp_spec,
                                          fc_nodes=args.fc_nodes)

    train = training.train_localiser if args.task == "loc" else training.train_classifier
    history = train(model, manifest, train_config, preprocess)
    models.save_checkpoint(model, args.out)
    steps = training.history_to_csv(history, str(args.out) + ".history.csv", extend=bool(args.resume))
    last = history[-1]
    print(f"checkpoint: {args.out}")
    print(f"epochs: {last.epoch + 1}  steps: {steps}  "
          f"loss: {last.loss:.4f}  accuracy: {last.accuracy:.2f}%")
    return 0


def cmd_eval(args) -> int:
    model = models.load_checkpoint(args.ckpt)
    manifest = datasynth.load_manifest(args.manifest)
    if model.config.head == "loc_head":
        mode = "none" if args.raw else "center"
        report, stats = evaluation.evaluate_localisation(model, manifest, preprocess=mode,
                                                         batch_size=args.batch_size)
        print(report.summary())
        print(stats.summary())
    else:
        report = evaluation.evaluate_topk(model, manifest, batch_size=args.batch_size)
        print(report.summary())
    return 0


def cmd_pipeline(args) -> int:
    if not args.oracle and args.loc is None:
        raise UsageError("pipeline needs --loc, or --oracle to crop to ground-truth boxes")
    loc_model = None if args.oracle else models.load_checkpoint(args.loc)
    cls_model = models.load_checkpoint(args.cls)
    manifest = datasynth.load_manifest(args.manifest)
    pipeline = evaluation.TwoStagePipeline(loc_model, cls_model)
    report = evaluation.evaluate_topk(pipeline, manifest, batch_size=args.batch_size)
    print(report.summary())
    return 0


def cmd_bench(args) -> int:
    target = models.load_checkpoint(args.ckpt)
    if args.loc_ckpt:
        target = evaluation.TwoStagePipeline(models.load_checkpoint(args.loc_ckpt), target)
    report = evaluation.bench_fps_paired({"target": target}, batch_sizes=args.batches,
                                         n_images=args.images, seed=args.seed)["target"]
    print(report.summary())
    return 0


def cmd_heatmap(args) -> int:
    model = models.load_checkpoint(args.ckpt)
    if model.head.swp is None:
        raise UsageError("--ckpt must carry an SWP head")
    k, channels = model.head.swp.spec.num_masks, model.head.channels
    rows = args.rows or k
    cols = args.cols or (k * channels // rows)
    if rows * cols != k * channels:
        raise UsageError(f"layout {rows}x{cols} cannot hold the {k * channels} SWP values "
                         f"({k} masks x {channels} channels)")
    manifest = datasynth.load_manifest(args.manifest)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = evaluation.default_eval_config(model.config.input_size)
    written = []
    for rec in manifest.records[:args.limit]:
        crop = datasynth.center_crop_transform(datasynth.load_image(rec), cfg)[0]
        vec = model.swp_vector(autodiff.Tensor(datasynth.to_network_input([crop]))).data[0]
        path = out_dir / (Path(rec.path).stem + ".pgm")
        swp.swp_heatmap_export(vec, (rows, cols), path)
        written.append(path)
    for path in written:
        print(f"heatmap: {path}")
    return 0


def cmd_analyze_bins(args) -> int:
    with _flag_values():
        preprocess = _train_preprocess(args.crop, args) if args.preprocess else None
    manifest = datasynth.load_manifest(args.manifest)
    counts = datasynth.bin_histogram(manifest, preprocess=preprocess)
    paths = datasynth.save_histograms(counts, args.out_prefix)
    for (key, counted), path in zip(counts.items(), paths):
        print(f"{key}: {path} (total {int(counted.sum())})")
    return 0


def main(argv=None) -> int:
    usage = ""     # a malformed SWPNET_SEED fails build_parser, before any usage line
    try:
        parser = build_parser()
        usage = parser.format_usage()
        args = parser.parse_args(argv)
        usage = args.usage
        return args.run(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        print(err.usage or usage, file=sys.stderr, end="")
        return 2
    except Exception as err:  # runtime failures map to exit 1
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
