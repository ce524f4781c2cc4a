"""Command line front end.

Subcommands:

* ``synth``   generate a synthetic dataset with known ground truth
* ``stats``   compute and store base-class statistics
* ``eval``    run episodic evaluation and report accuracy
* ``sweep``   evaluate one parameter over several values on paired episodes
* ``project`` dump a 2-D projection of one episode's features

Options can come from a JSON config file (flat, dotted keys such as
``calib.k``) and from flags; a flag always wins over the file.  All outputs
are written atomically.  Errors print ``error: <reason>`` to stderr; invalid
settings exit with status 2, runtime failures with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .classifiers import OptimizerConfig
from .calibration import CalibrationParams
from .errors import FsdcError, SpecError
from .features_io import (SyntheticSpec, atomic_write_text, generate_synthetic,
                          load_dataset, load_split, save_dataset, save_split)
from .harness import (EpisodeSpec, PipelineConfig, SWEEPABLE_PARAMS,
                      collect_episode_features, evaluate, project_2d,
                      sample_episode, sweep)
from .sampling import SamplerConfig
from .stats import build_base_stats, class_similarity, load_stats, save_stats
from .transform import TukeyParams

# dotted config key -> (argparse dest, expected type, default)
_SETTINGS = {
    "episode.n_way": ("n_way", int, 5),
    "episode.k_shot": ("k_shot", int, 1),
    "episode.q_queries": ("q_queries", int, 15),
    "episode.num_episodes": ("num_episodes", int, 2000),
    "episode.seed": ("episode_seed", int, 42),
    "use_tukey": ("use_tukey", bool, True),
    "tukey.lambda": ("lam", float, 0.5),
    "tukey.log_epsilon": ("log_epsilon", float, 1e-6),
    "calib.k": ("k", int, 2),
    "calib.alpha": ("alpha", float, 0.21),
    "calib.use_novel_feature": ("use_novel_feature", bool, True),
    "calib.alpha_diagonal": ("alpha_diagonal", bool, False),
    "use_generation": ("use_generation", bool, True),
    "sampler.total_per_class": ("num_generated", int, 750),
    "sampler.seed": ("sample_seed", int, 0),
    "sampler.jitter": ("jitter", float, 1e-6),
    "optimizer.learning_rate": ("learning_rate", float, 0.1),
    "optimizer.epochs": ("opt_epochs", int, 300),
    "optimizer.l2": ("l2", float, 1e-3),
    "classifier": ("classifier", str, "logistic"),
    "ml_aggregate": ("ml_aggregate", str, "max"),
    "baseline": ("baseline", str, "none"),
    "tukey_base": ("tukey_base", bool, False),
    "workers": ("workers", int, None),
}

_OPTIMIZER_KEYS = ("optimizer.learning_rate", "optimizer.epochs",
                   "optimizer.l2")


def _check_config_value(key: str, value, expected):
    if expected is bool:
        if not isinstance(value, bool):
            raise SpecError(f"config key {key!r} must be true or false")
        return value
    if expected is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(f"config key {key!r} must be an integer")
        return value
    if expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(f"config key {key!r} must be a number")
        return float(value)
    if not isinstance(value, str):
        raise SpecError(f"config key {key!r} must be a string")
    return value


def _load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise SpecError("config file must hold a JSON object")
    out = {}
    for key, value in payload.items():
        if key not in _SETTINGS:
            raise SpecError(f"unknown config key {key!r}")
        out[key] = _check_config_value(key, value, _SETTINGS[key][1])
    return out


def _gather_settings(args) -> tuple[dict, set]:
    """Defaults, then config file, then flags.  Also returns the set of keys
    that were explicitly provided by either source."""
    settings = {key: spec[2] for key, spec in _SETTINGS.items()}
    explicit = set()
    if getattr(args, "config", None):
        for key, value in _load_config(args.config).items():
            settings[key] = value
            explicit.add(key)
    for key, (dest, _, _) in _SETTINGS.items():
        value = getattr(args, dest, None)
        if value is not None:
            settings[key] = value
            explicit.add(key)
    # negative flags override their positive setting
    if getattr(args, "no_tukey", None):
        settings["use_tukey"] = False
        explicit.add("use_tukey")
    if getattr(args, "no_generation", None):
        settings["use_generation"] = False
        explicit.add("use_generation")
    if getattr(args, "no_novel_feature", None):
        settings["calib.use_novel_feature"] = False
        explicit.add("calib.use_novel_feature")
    return settings, explicit


def _parse_baseline(text: str) -> tuple[str, int]:
    if text == "none":
        return "none", 1
    if text.startswith("nearest:"):
        raw = text.split(":", 1)[1]
        try:
            m = int(raw)
        except ValueError:
            raise SpecError(f"bad retrieval count {raw!r} in baseline") from None
        return "nearest_class", m
    raise SpecError(f"unknown baseline {text!r}; use 'none' or 'nearest:<m>'")


def _pipeline_from(settings: dict) -> PipelineConfig:
    kind, m = _parse_baseline(settings["baseline"])
    return PipelineConfig(
        tukey=TukeyParams(lam=settings["tukey.lambda"],
                          log_epsilon=settings["tukey.log_epsilon"]),
        calib=CalibrationParams(
            k=settings["calib.k"], alpha=settings["calib.alpha"],
            use_novel_feature=settings["calib.use_novel_feature"],
            alpha_diagonal=settings["calib.alpha_diagonal"]),
        sampler=SamplerConfig(total_per_class=settings["sampler.total_per_class"],
                              seed=settings["sampler.seed"],
                              jitter=settings["sampler.jitter"]),
        optimizer=OptimizerConfig(
            learning_rate=settings["optimizer.learning_rate"],
            epochs=settings["optimizer.epochs"],
            l2=settings["optimizer.l2"]),
        use_tukey=settings["use_tukey"],
        use_generation=settings["use_generation"],
        classifier=settings["classifier"],
        ml_aggregate=settings["ml_aggregate"],
        baseline=kind,
        baseline_m=m,
    )


def _episode_from(settings: dict) -> EpisodeSpec:
    return EpisodeSpec(n_way=settings["episode.n_way"],
                       k_shot=settings["episode.k_shot"],
                       q_queries=settings["episode.q_queries"],
                       num_episodes=settings["episode.num_episodes"],
                       seed=settings["episode.seed"])


def _resolve_workers(settings: dict) -> int:
    if settings["workers"] is not None:
        count = settings["workers"]
    else:
        env = os.environ.get("FSDC_WORKERS", "").strip()
        if env:
            try:
                count = int(env)
            except ValueError:
                raise SpecError(f"FSDC_WORKERS must be an integer, got {env!r}") \
                    from None
        else:
            count = 1
    if count < 1:
        raise SpecError("workers must be at least 1")
    return count


def _warn_ignored_optimizer(settings: dict, explicit: set) -> None:
    if settings["classifier"] != "max_likelihood":
        return
    ignored = sorted(key for key in _OPTIMIZER_KEYS if key in explicit)
    if ignored:
        print(f"warning: {', '.join(ignored)} ignored with the "
              f"max_likelihood classifier", file=sys.stderr)


def _load_world(args, settings):
    ds = load_dataset(args.dataset, format=args.format)
    split = load_split(args.split)
    if getattr(args, "stats", None):
        table = load_stats(args.stats)
    else:
        tukey = None
        if settings["tukey_base"]:
            tukey = TukeyParams(lam=settings["tukey.lambda"],
                                log_epsilon=settings["tukey.log_epsilon"])
        table = build_base_stats(ds, split, tukey=tukey)
    return ds, split, table


# ------------------------------------------------------------------- commands

def _cmd_synth(args) -> int:
    spec = SyntheticSpec(
        num_classes=args.classes, dim=args.dim,
        samples_per_class=args.per_class, skew_power=args.skew_power,
        group_size=args.group_size, latent_level=args.level,
        latent_sigma=args.sigma, group_separation=args.separation,
        within_group_offset=args.offset, seed=args.seed)
    ds, split, truth = generate_synthetic(spec)
    dataset_path = args.out_prefix + ".fsdc"
    split_path = args.out_prefix + ".split.json"
    truth_path = args.out_prefix + ".truth.json"
    save_dataset(ds, dataset_path)
    save_split(split, split_path)
    atomic_write_text(truth_path,
                      json.dumps(truth.to_payload(), sort_keys=True, indent=2)
                      + "\n")
    print(f"wrote {ds.count} records ({args.classes} classes x "
          f"{args.per_class}, dim {args.dim}) to {dataset_path}")
    print(f"split: {len(split.base_classes)} base / "
          f"{len(split.novel_classes)} novel -> {split_path}")
    print(f"ground truth -> {truth_path}")
    return 0


def _cmd_stats(args) -> int:
    settings, _ = _gather_settings(args)
    _, _, table = _load_world(args, settings)
    save_stats(table, args.out)
    for cid in table.class_ids():
        print(f"class {cid}: {table.entry(cid).count} records")
    print(f"wrote statistics for {len(table)} classes (dim {table.dim}) "
          f"to {args.out}")
    if args.similarity_report:
        lines = ["class_a,class_b,mean_cosine,variance_cosine"]
        ids = table.class_ids()
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                mean_cos, var_cos = class_similarity(table.entry(a),
                                                     table.entry(b))
                lines.append(f"{a},{b},{mean_cos:.6f},{var_cos:.6f}")
        atomic_write_text(args.similarity_report, "\n".join(lines) + "\n")
        print(f"similarity report -> {args.similarity_report}")
    return 0


def _cmd_eval(args) -> int:
    settings, explicit = _gather_settings(args)
    _warn_ignored_optimizer(settings, explicit)
    ds, split, table = _load_world(args, settings)
    report = evaluate(ds, split, table, _episode_from(settings),
                      _pipeline_from(settings),
                      workers=_resolve_workers(settings))
    print(f"accuracy: {100 * report.mean_accuracy:.2f}% "
          f"± {100 * report.ci95:.2f}% "
          f"({len(report.episode_accuracies)} episodes)")
    if args.out:
        atomic_write_text(args.out, report.to_json())
        print(f"report -> {args.out}")
    return 0


def _parse_sweep_values(param: str, text: str):
    pieces = [p.strip() for p in text.split(",") if p.strip()]
    if not pieces:
        raise SpecError("sweep needs at least one value")
    integral = param in ("k", "num_generated", "nearest_m")
    values = []
    for piece in pieces:
        try:
            values.append(int(piece) if integral else float(piece))
        except ValueError:
            raise SpecError(f"bad sweep value {piece!r} for {param}") from None
    return values


def _cmd_sweep(args) -> int:
    settings, explicit = _gather_settings(args)
    _warn_ignored_optimizer(settings, explicit)
    values = _parse_sweep_values(args.param, args.values)
    ds, split, table = _load_world(args, settings)
    results = sweep(ds, split, table, _episode_from(settings),
                    _pipeline_from(settings), args.param, values,
                    workers=_resolve_workers(settings))
    csv_lines = ["value,mean_accuracy,ci95"]
    payload = []
    for value, report in results:
        print(f"{args.param}={value:g}: {100 * report.mean_accuracy:.2f}% "
              f"± {100 * report.ci95:.2f}%")
        csv_lines.append(f"{value:g},{report.mean_accuracy:.6f},"
                         f"{report.ci95:.6f}")
        payload.append({"value": value, "report": report.to_payload()})
    csv_path = args.out_prefix + ".csv"
    json_path = args.out_prefix + ".json"
    atomic_write_text(csv_path, "\n".join(csv_lines) + "\n")
    atomic_write_text(json_path,
                      json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"sweep results -> {csv_path}, {json_path}")
    return 0


def _cmd_project(args) -> int:
    settings, _ = _gather_settings(args)
    ds, split, table = _load_world(args, settings)
    spec = _episode_from(settings)
    if not 0 <= args.episode_index < spec.num_episodes:
        raise SpecError(f"episode index {args.episode_index} outside "
                        f"[0, {spec.num_episodes})")
    ep = sample_episode(ds, split, spec, args.episode_index)
    features, class_ids, roles = collect_episode_features(
        ep, table, _pipeline_from(settings), base_data=ds)
    coords = project_2d(features)
    lines = ["x,y,class_id,role"]
    for (x, y), cid, role in zip(coords, class_ids, roles):
        lines.append(f"{x:.6f},{y:.6f},{cid},{role}")
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    summary = " / ".join(f"{roles.count(role)} {role}"
                         for role in dict.fromkeys(roles))
    print(f"episode {args.episode_index}: classes {list(ep.class_ids)}, "
          f"{summary} rows -> {args.out}")
    return 0


# --------------------------------------------------------------------- parser

def _add_io_flags(parser, stats_input=True):
    parser.add_argument("--dataset", required=True, help="feature dataset path")
    parser.add_argument("--split", required=True, help="split manifest path")
    parser.add_argument("--format", choices=("binary", "csv"),
                        default="binary", help="dataset file format")
    if stats_input:
        parser.add_argument("--stats", help="precomputed statistics table "
                            "(built from the dataset when omitted)")
    parser.add_argument("--config", help="JSON config file with dotted keys")


def _add_episode_flags(parser):
    parser.add_argument("--n-way", dest="n_way", type=int)
    parser.add_argument("--k-shot", dest="k_shot", type=int)
    parser.add_argument("--queries", dest="q_queries", type=int)
    parser.add_argument("--episodes", dest="num_episodes", type=int)
    parser.add_argument("--seed", dest="episode_seed", type=int,
                        help="episode sampling seed")


def _add_pipeline_flags(parser):
    parser.add_argument("--lambda", dest="lam", type=float,
                        help="transform exponent")
    parser.add_argument("--log-epsilon", dest="log_epsilon", type=float)
    parser.add_argument("--no-tukey", dest="no_tukey", action="store_const",
                        const=True, help="skip the power transform")
    parser.add_argument("--tukey-base", dest="tukey_base",
                        action="store_const", const=True,
                        help="apply the transform to base features before "
                             "computing statistics")
    parser.add_argument("--k", dest="k", type=int,
                        help="number of borrowed base classes")
    parser.add_argument("--alpha", dest="alpha", type=float,
                        help="covariance spread constant")
    parser.add_argument("--alpha-diagonal", dest="alpha_diagonal",
                        action="store_const", const=True,
                        help="add alpha to the diagonal only")
    parser.add_argument("--no-novel-feature", dest="no_novel_feature",
                        action="store_const", const=True,
                        help="calibrate means from base classes alone")
    parser.add_argument("--num-generated", dest="num_generated", type=int,
                        help="generated features per class")
    parser.add_argument("--no-generation", dest="no_generation",
                        action="store_const", const=True,
                        help="train on support features only")
    parser.add_argument("--sample-seed", dest="sample_seed", type=int)
    parser.add_argument("--jitter", dest="jitter", type=float)
    parser.add_argument("--classifier", dest="classifier",
                        choices=("logistic", "svm", "max_likelihood"))
    parser.add_argument("--ml-aggregate", dest="ml_aggregate",
                        choices=("max", "mean"))
    parser.add_argument("--baseline", dest="baseline",
                        help="'none' or 'nearest:<m>' to train on retrieved "
                             "base features instead of generated ones")
    parser.add_argument("--lr", dest="learning_rate", type=float)
    parser.add_argument("--opt-epochs", dest="opt_epochs", type=int)
    parser.add_argument("--l2", dest="l2", type=float)
    parser.add_argument("--workers", dest="workers", type=int,
                        help="episode worker processes "
                             "(default: FSDC_WORKERS or 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsdc",
        description="few-shot distribution calibration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("--classes", type=int, required=True)
    synth.add_argument("--dim", type=int, required=True)
    synth.add_argument("--per-class", dest="per_class", type=int, required=True)
    synth.add_argument("--skew-power", dest="skew_power", type=float, default=2.0)
    synth.add_argument("--group-size", dest="group_size", type=int, default=5)
    synth.add_argument("--level", type=float, default=0.87)
    synth.add_argument("--sigma", type=float, default=0.33)
    synth.add_argument("--separation", type=float, default=0.8)
    synth.add_argument("--offset", type=float, default=0.41)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out-prefix", dest="out_prefix", required=True)
    synth.set_defaults(func=_cmd_synth)

    stats = sub.add_parser("stats", help="compute base-class statistics")
    _add_io_flags(stats, stats_input=False)
    stats.add_argument("--out", required=True, help="output statistics path")
    stats.add_argument("--similarity-report", dest="similarity_report",
                       help="also write pairwise class similarities (CSV)")
    stats.add_argument("--tukey-base", dest="tukey_base",
                       action="store_const", const=True)
    stats.add_argument("--lambda", dest="lam", type=float)
    stats.add_argument("--log-epsilon", dest="log_epsilon", type=float)
    stats.set_defaults(func=_cmd_stats)

    ev = sub.add_parser("eval", help="episodic evaluation")
    _add_io_flags(ev)
    _add_episode_flags(ev)
    _add_pipeline_flags(ev)
    ev.add_argument("--out", help="write the full report (JSON)")
    ev.set_defaults(func=_cmd_eval)

    sw = sub.add_parser("sweep", help="evaluate one parameter across values")
    _add_io_flags(sw)
    _add_episode_flags(sw)
    _add_pipeline_flags(sw)
    sw.add_argument("--param", required=True, choices=SWEEPABLE_PARAMS)
    sw.add_argument("--values", required=True,
                    help="comma-separated list, e.g. 0.2,0.5,1.0")
    sw.add_argument("--out-prefix", dest="out_prefix", required=True)
    sw.set_defaults(func=_cmd_sweep)

    proj = sub.add_parser("project", help="2-D projection of one episode")
    _add_io_flags(proj)
    _add_episode_flags(proj)
    _add_pipeline_flags(proj)
    proj.add_argument("--episode-index", dest="episode_index", type=int,
                      default=0)
    proj.add_argument("--out", required=True, help="output CSV path")
    proj.set_defaults(func=_cmd_project)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FsdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
