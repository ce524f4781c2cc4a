"""Command line front end.

Subcommands:

* ``synth``   generate a synthetic dataset and its split manifest
* ``stats``   print base-class record counts and pairwise similarities
* ``eval``    run episodic evaluation and report accuracy
* ``sweep``   evaluate one setting over several values on paired episodes
* ``project`` dump a 2-D projection of one episode's features

Every command that reads a dataset (an FSDC file, the one dataset format,
with its split manifest) builds its base-class statistics from it, from
untransformed features.  Each setting is one flag; a setting whose flag is
not given keeps its default from ``EpisodeSpec`` or ``PipelineConfig``.  A
stage is switched off by its own value: ``--lambda 1`` for the transform,
``--num-generated 0`` for generation; retrieval is on when ``--retrieve`` is
positive.  All outputs are written atomically.  Errors print
``error: <reason>`` to stderr; invalid settings exit with status 2, runtime
failures with 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

from .errors import FsdcError, SpecError
from .features_io import (SyntheticSpec, atomic_write_text, generate_synthetic,
                          load_dataset, load_split, save_dataset, save_split)
from .harness import (EpisodeSpec, PipelineConfig, collect_episode_features,
                      evaluate, project_2d, sample_episode)
from .stats import build_base_stats, class_similarity

# settings key -> (flag, what the flag takes, help).  What the flag takes is
# a type, a tuple of choices, or the value a switch flag stores.  Each key
# names one field of EpisodeSpec ("episode.") or of PipelineConfig and its
# nested dataclasses, which hold every default; ``sweep --param`` takes it.
_SETTINGS = {
    "episode.n_way": ("--n-way", int, None),
    "episode.k_shot": ("--k-shot", int, None),
    "episode.q_queries": ("--queries", int, None),
    "episode.num_episodes": ("--episodes", int, None),
    "episode.seed": ("--seed", int, "episode sampling seed"),
    "tukey.lambda": ("--lambda", float, "transform exponent (1 is off)"),
    "calib.k": ("--k", int, "number of borrowed base classes"),
    "calib.alpha": ("--alpha", float, "covariance spread constant"),
    "calib.use_novel_feature": ("--no-novel-feature", False,
                                "calibrate means from base classes alone"),
    "sampler.total_per_class": ("--num-generated", int,
                                "generated features per class (0 is off)"),
    "sampler.seed": ("--sample-seed", int, None),
    "classifier": ("--classifier", ("logistic", "svm"), None),
    "retrieve": ("--retrieve", int, "base features retrieved per support "
                 "feature instead of generated ones (0 is off)"),
    "optimizer.epochs": ("--opt-epochs", int, None),
    "optimizer.l2": ("--l2", float, None),
}

# the keys ``sweep`` varies: every int or float setting of the pipeline.  The
# episode keys are left out, so every cell runs the same episodes.
_SWEEP_KEYS = tuple(key for key, (_, takes, _) in _SETTINGS.items()
                    if takes in (int, float) and not key.startswith("episode."))


def _gather_settings(args) -> dict:
    """The keys whose flags were given.  The others are absent and keep
    their dataclass default."""
    return {key: getattr(args, key) for key in _SETTINGS
            if getattr(args, key) is not None}


def _configs(settings: dict) -> tuple[EpisodeSpec, PipelineConfig]:
    """``EpisodeSpec()`` and ``PipelineConfig()`` with the settings applied.

    Key ``episode.name`` sets field ``name`` of the episode spec, key
    ``section.name`` field ``name`` of the config's nested dataclass
    ``section`` (``tukey.lambda`` sets ``lam``), and a key without a dot a
    field of the config itself.
    """
    by_section: dict[str, dict] = {}
    for key, value in settings.items():
        section, _, name = key.rpartition(".")
        name = "lam" if name == "lambda" else name
        by_section.setdefault(section, {})[name] = value
    top = by_section.pop("", {})
    spec = replace(EpisodeSpec(), **by_section.pop("episode", {}))
    cfg = PipelineConfig()
    nested = {name: replace(getattr(cfg, name), **by_section.get(name, {}))
              for name in ("tukey", "calib", "sampler", "optimizer")}
    return spec, replace(cfg, **nested, **top)


def _check_workers(args) -> int:
    if args.workers < 1:
        raise SpecError("workers must be at least 1")
    return args.workers


def _load_world(args):
    ds = load_dataset(args.dataset)
    split = load_split(args.split)
    return ds, split, build_base_stats(ds, split)


# ------------------------------------------------------------------- commands

def _cmd_synth(args) -> int:
    # each flag's destination is a SyntheticSpec field; a flag left out
    # keeps the field's default
    spec = SyntheticSpec(**{f.name: getattr(args, f.name)
                            for f in fields(SyntheticSpec)
                            if getattr(args, f.name, None) is not None})
    ds, split, _ = generate_synthetic(spec)
    dataset_path = args.out_prefix + ".fsdc"
    split_path = args.out_prefix + ".split.json"
    save_dataset(ds, dataset_path)
    save_split(split, split_path)
    print(f"wrote {ds.count} records ({spec.num_classes} classes x "
          f"{spec.samples_per_class}, dim {spec.dim}) to {dataset_path}")
    print(f"split: {len(split.base_classes)} base / "
          f"{len(split.novel_classes)} novel -> {split_path}")
    return 0


def _cmd_stats(args) -> int:
    _, _, table = _load_world(args)
    ids = table.id_array.tolist()
    # a report that cannot be written fails the command before it prints
    if args.similarity_report:
        lines = ["class_a,class_b,mean_cosine,variance_cosine"]
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                mean_cos, var_cos = class_similarity(table, a, b)
                lines.append(f"{a},{b},{mean_cos:.6f},{var_cos:.6f}")
        atomic_write_text(args.similarity_report, "\n".join(lines) + "\n")
    for cid, count in zip(ids, table.counts.tolist()):
        print(f"class {cid}: {count} records")
    print(f"{len(table)} base classes, dim {table.dim}")
    if args.similarity_report:
        print(f"similarity report -> {args.similarity_report}")
    return 0


def _cmd_eval(args) -> int:
    spec, cfg = _configs(_gather_settings(args))
    workers = _check_workers(args)
    ds, split, table = _load_world(args)
    report = evaluate(ds, split, table, spec, cfg, workers=workers)
    print(f"accuracy: {100 * report.mean_accuracy:.2f}% "
          f"± {100 * report.ci95:.2f}% "
          f"({len(report.episode_accuracies)} episodes)")
    if args.out:
        atomic_write_text(args.out, report.to_json())
        print(f"report -> {args.out}")
    return 0


def _parse_sweep_values(key: str, text: str):
    """The comma-separated values, each parsed with the key's type."""
    pieces = [p.strip() for p in text.split(",") if p.strip()]
    if not pieces:
        raise SpecError("sweep needs at least one value")
    takes = _SETTINGS[key][1]
    values = []
    for piece in pieces:
        try:
            values.append(takes(piece))
        except ValueError:
            raise SpecError(f"bad sweep value {piece!r} for {key}") from None
    return values


def _cmd_sweep(args) -> int:
    settings = _gather_settings(args)
    spec, _ = _configs(settings)
    # every cell's config is built before the dataset is read, so a bad
    # value exits 2 without the work
    cells = [(value, _configs({**settings, args.param: value})[1])
             for value in _parse_sweep_values(args.param, args.values)]
    workers = _check_workers(args)
    ds, split, table = _load_world(args)
    csv_lines = ["value,mean_accuracy,ci95"]
    payload = []
    for value, cfg in cells:
        report = evaluate(ds, split, table, spec, cfg, workers=workers)
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
    spec, cfg = _configs(_gather_settings(args))
    ds, split, table = _load_world(args)
    if not 0 <= args.episode_index < spec.num_episodes:
        raise SpecError(f"episode index {args.episode_index} outside "
                        f"[0, {spec.num_episodes})")
    ep = sample_episode(ds, split, spec, args.episode_index)
    features, class_ids, roles = collect_episode_features(
        ep, table, cfg, base_data=ds)
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

def _add_io_flags(parser):
    parser.add_argument("--dataset", required=True,
                        help="feature dataset path (FSDC format)")
    parser.add_argument("--split", required=True, help="split manifest path")


def _add_setting_flags(parser):
    """One flag per settings key, with the key as its destination."""
    for key, (flag, takes, help_text) in _SETTINGS.items():
        if isinstance(takes, bool):
            parser.add_argument(flag, dest=key, action="store_const",
                                const=takes, help=help_text)
        elif isinstance(takes, tuple):
            parser.add_argument(flag, dest=key, choices=takes, help=help_text)
        else:
            parser.add_argument(flag, dest=key, type=takes, help=help_text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsdc",
        description="few-shot distribution calibration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("--classes", dest="num_classes", type=int,
                       required=True)
    synth.add_argument("--dim", type=int, required=True)
    synth.add_argument("--per-class", dest="samples_per_class", type=int,
                       required=True)
    synth.add_argument("--skew-power", dest="skew_power", type=float)
    synth.add_argument("--group-size", dest="group_size", type=int)
    synth.add_argument("--seed", type=int)
    synth.add_argument("--out-prefix", dest="out_prefix", required=True)
    synth.set_defaults(func=_cmd_synth)

    stats = sub.add_parser("stats", help="summarize the base classes")
    _add_io_flags(stats)
    stats.add_argument("--similarity-report", dest="similarity_report",
                       help="also write pairwise class similarities (CSV)")
    stats.set_defaults(func=_cmd_stats)

    ev = sub.add_parser("eval", help="episodic evaluation")
    _add_io_flags(ev)
    _add_setting_flags(ev)
    ev.add_argument("--out", help="write the full report (JSON)")
    ev.set_defaults(func=_cmd_eval)

    sw = sub.add_parser("sweep", help="evaluate one setting across values")
    _add_io_flags(sw)
    _add_setting_flags(sw)
    sw.add_argument("--param", required=True, choices=_SWEEP_KEYS,
                    help="the settings key to vary")
    sw.add_argument("--values", required=True,
                    help="comma-separated list, e.g. 0.2,0.5,1.0")
    sw.add_argument("--out-prefix", dest="out_prefix", required=True)
    sw.set_defaults(func=_cmd_sweep)

    # ``project`` runs its one episode in this process
    for runs_episodes in (ev, sw):
        runs_episodes.add_argument(
            "--workers", type=int, default=1,
            help="episode worker processes (default: 1)")

    proj = sub.add_parser("project", help="2-D projection of one episode")
    _add_io_flags(proj)
    _add_setting_flags(proj)
    proj.add_argument("--episode-index", dest="episode_index", type=int,
                      default=0)
    proj.add_argument("--out", required=True, help="output CSV path")
    proj.set_defaults(func=_cmd_project)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FsdcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, SpecError) else 1


if __name__ == "__main__":
    sys.exit(main())
