"""Command-line surface: one subcommand per pipeline stage plus end-to-end.

Every intermediate artifact (corpus, latents, embeddings, splits, models,
decisions, neighbor lists, reports) is an inspectable file, so an audit can be
reproduced or re-scored piece by piece. Exit codes: 0 success, 1 usage error
or rejected value, 2 data or integrity error. All randomness is driven by
explicit --seed flags.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from ._util import naming, read_json, write_json
from .audit import (
    CHOICES,
    LEARNERS,
    AuditConfig,
    AuditReport,
    embed_profiles,
    neighbor_pass,
    predict_decisions,
    render_report,
    run_audit,
    searches,
    split_order,
    train_family,
    training_rows,
)
from .classifiers import TrainConfig, load_model, save_model
from .dataset import (
    RaterConfig,
    attach_stage_labels,
    binarize_labels,
    generate_synthetic_corpus,
    load_corpus,
    load_decisions,
    load_split,
    save_corpus,
    save_decisions,
    save_latents,
    save_split,
    simulate_raters,
    split_corpus,
)
from .embed import EmbeddingMatrix, load_matrix_file, save_embeddings
from .errors import FairauditError
from .fairness import METRIC_NAMES, classification_metrics, consistency
from .simindex import load_neighbors, save_neighbors

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with exit-code-1 usage errors and flag suggestions."""

    def parse_known_args(self, args=None, namespace=None):
        """A parser without subcommands reports its leftovers, hinting at its own flags."""
        parsed, extras = super().parse_known_args(args, namespace)
        if extras and self._subparsers is None:
            flags = [f for f in self._option_string_actions if f not in extras]
            close = [difflib.get_close_matches(t, flags, n=1) for t in extras if t.startswith("--")]
            hints = "".join(f" (did you mean {c[0]!r}?)" for c in close if c)
            self.error(f"unrecognized arguments: {' '.join(extras)}{hints}")
        return parsed, extras

    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _three_floats(text: str) -> tuple[float, float, float]:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers")
    return tuple(parts)


def _bias_shift(entries: list[str]) -> dict[int, float]:
    shifts: dict[int, float] = {}
    for entry in entries:
        try:
            group, value = entry.split("=", 1)
            shifts[int(group)] = float(value)
        except ValueError:
            raise ValueError(f"--bias-shift expects GROUP=SHIFT, got {entry!r}") from None
    return shifts


# How the CLI exposes config fields: a flag per field, named after it (``--reg-lambda``) but
# for the legacy names in FLAG_NAMES; none for NO_FLAG; help in FLAG_HELP, metavar in _METAVARS.
FLAG_NAMES = {"max_epochs": "epochs", "learning_rate": "lr", "target_stage": "target",
              "embeddings_path": "embeddings", "stage_thresholds": "thresholds"}
FLAG_HELP = {
    "d": "dimensions per field",
    "embeddings_path": "source matrix for --embedder ingest",
    "max_tokens": "truncate each field to this many tokens first",
    "normalize": "L2-normalize each field block of ingested vectors (default on)",
    "rerank": "feature-reranked neighbor retrieval (default on)",
    "target_stage": "label stage to learn (default Type)",
    "noise_sigma": "rater judgment noise",
    "stage_thresholds": "stage thresholds, default %(default)s",
}
NO_FLAG = ("field_weights", "sources", "search_space")
_METAVARS = {"ratios": "TR,VA,TE", "stage_thresholds": "SL,AR,OF"}
_FLAG_TYPES = {"int": int, "float": float, "str": str, "tuple": _three_floats}
_TRAIN_FIELDS = [f.name for f in fields(TrainConfig) if f.name not in NO_FLAG + ("seed",)]


def _add_config_flags(p: _Parser, names, cls=AuditConfig) -> None:
    """One flag per field in ``names`` of the config dataclass ``cls`` (see the tables
    above), typed by the field's annotation and defaulting to the field's default."""
    by_name = {f.name: f for f in fields(cls)}
    for name in names:
        f = by_name[name]
        flag = "--" + FLAG_NAMES.get(name, name).replace("_", "-")
        kind = f.type.split(" |")[0].split("[")[0]
        how = ({"action": argparse.BooleanOptionalAction} if kind == "bool"
               else {"type": _FLAG_TYPES[kind], "choices": CHOICES.get(name),
                     "metavar": _METAVARS.get(name)})
        p.add_argument(flag, dest=name, default=f.default, help=FLAG_HELP.get(name), **how)


def _config(cls, args, **fixed):
    """The config dataclass ``cls`` built from the flags ``args`` has for its
    fields, and from ``fixed``."""
    flags = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    return cls(**{**flags, **fixed})


def build_parser() -> _Parser:
    parser = _Parser(prog="fairaudit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser,
                            metavar="{" + ",".join(SUBCOMMANDS) + "}")
    sub.required = True

    p = sub.add_parser("synth",
                       help="generate a synthetic corpus with simulated rater labels")
    p.add_argument("--n", type=int, required=True, help="number of profiles")
    p.add_argument("--vocab-size", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    _add_config_flags(p, ("noise_sigma",), RaterConfig)
    p.add_argument("--bias-shift", action="append", default=[], metavar="GROUP=SHIFT",
                   help="per-group threshold shift, e.g. 1=0.2 (repeatable)")
    _add_config_flags(p, ("stage_thresholds",), RaterConfig)
    p.add_argument("--rater-seed", type=int, default=None,
                   help="rater panel seed (default: --seed + 1)")
    p.add_argument("--no-labels", action="store_true",
                   help="skip rater simulation; emit outcome labels only")
    p.add_argument("--out-corpus", required=True)
    p.add_argument("--out-latents", default=None,
                   help="latent sidecar path (default: <corpus>.latents.jsonl)")

    p = sub.add_parser("embed",
                       help="embed a corpus to the binary matrix format")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, default=0, help="embedder seed")
    _add_config_flags(p, ("embedder", "d", "embeddings_path", "max_tokens", "normalize"))
    p.add_argument("--out", required=True)
    p.add_argument("--neighbors-out", default=None,
                   help="also write a k-NN structure over the embedded corpus")
    _add_config_flags(p, ("k", "metric", "rerank"))

    p = sub.add_parser("split", help="deterministic corpus split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, default=0, help="split seed")
    _add_config_flags(p, ("ratios", "stratify_on"))
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train one classifier family")
    p.add_argument("--family", choices=tuple(LEARNERS), required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", dest="embeddings_path", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--seed", type=int, default=0, help="training or search seed")
    _add_config_flags(p, ("target_stage", "k", "metric", "d", *_TRAIN_FIELDS))
    p.add_argument("--out", required=True)
    p.add_argument("--trials-out", default=None, help="write the search trial log as JSON")

    p = sub.add_parser("predict",
                       help="predict decisions for every row of an embedding file")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", dest="embeddings_path", required=True)
    _add_config_flags(p, ("d",))
    p.add_argument("--out", required=True)

    p = sub.add_parser("consistency",
                       help="consistency score of a decision file over a neighbor structure")
    p.add_argument("--decisions", required=True)
    p.add_argument("--neighbors", required=True)
    p.add_argument("--k", type=int, default=None, help="expected k (checked against the file)")
    p.add_argument("--stage", default=None,
                   help="read this stage's structure of a run directory's neighbors.json, "
                        "over the decisions of its ids")
    p.add_argument("--out", default=None, help="write the full result as JSON")

    p = sub.add_parser("metrics",
                       help="classification metrics of predictions against truth")
    p.add_argument("--predicted", required=True)
    p.add_argument("--truth", required=True)
    _add_config_flags(p, ("averaging",))
    p.add_argument("--out", default=None)

    p = sub.add_parser("audit", help="run the full pipeline")
    p.add_argument("--corpus", required=True)
    _add_config_flags(p, [f.name for f in fields(AuditConfig) if f.name not in NO_FLAG])
    p.add_argument("--out", required=True, help="run directory")

    p = sub.add_parser("report", help="render a stored report")
    p.add_argument("--report", required=True)
    p.add_argument("--format", choices=("json", "csv", "markdown"), default="markdown")
    p.add_argument("--out", default=None)

    return parser


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_synth(args) -> int:
    seed = args.rater_seed if args.rater_seed is not None else args.seed + 1
    config = _config(RaterConfig, args, bias_shift=_bias_shift(args.bias_shift), seed=seed)
    profiles, latents = generate_synthetic_corpus(args.n, args.vocab_size, args.seed)
    if not args.no_labels and profiles:
        profiles = attach_stage_labels(profiles, simulate_raters(profiles, latents, config))
    save_corpus(profiles, args.out_corpus)
    latents_path = args.out_latents or f"{args.out_corpus}.latents.jsonl"
    save_latents(latents, latents_path)
    print(f"wrote {len(profiles)} profiles to {args.out_corpus} (latents: {latents_path})")
    return 0


def _cmd_embed(args) -> int:
    config = _config(AuditConfig, args)  # a rejected value exits 1 before --out is written
    profiles = load_corpus(args.corpus)
    matrix = embed_profiles(profiles, config, args.seed)
    if args.neighbors_out:  # before either file: a k the corpus cannot serve writes neither
        [structure] = neighbor_pass(matrix, config, [matrix.index_order])[0].values()
    save_embeddings(matrix, args.out)
    print(f"wrote {matrix.n}x{matrix.dim} matrix to {args.out}")
    if args.neighbors_out:
        save_neighbors(structure, args.neighbors_out)
        print(f"wrote k={config.k} neighbors to {args.neighbors_out}")
    return 0


def _cmd_split(args) -> int:
    config = _config(AuditConfig, args)
    profiles = load_corpus(args.corpus)
    split = split_corpus(profiles, config.ratios, config.seed, config.stratify_on)
    save_split(split, args.out)
    print(
        f"wrote split {len(split.train)}/{len(split.validation)}/{len(split.test)} to {args.out}"
    )
    return 0


def _cmd_train(args) -> int:
    if args.trials_out and not searches(args.family, args.search_trials):
        at = f" at --search-trials {args.search_trials}" if LEARNERS[args.family].space else ""
        raise ValueError(f"--trials-out: family {args.family!r} is not searched{at}")
    config = _config(AuditConfig, args, embedder="ingest", normalize=False)
    profiles = load_corpus(args.corpus)
    split = load_split(args.splits)
    with naming(args.splits):  # a split id that the corpus lacks
        profiles = split_order(profiles, split, ("train", "validation"))  # no test row is read
    matrix = embed_profiles(profiles, config, config.seed)
    truth = binarize_labels(profiles, config.target_stage)
    model, trials = train_family(args.family, *training_rows(matrix, truth, split), config)
    save_model(model, args.out)
    print(f"wrote {args.family} model to {args.out}")
    if args.trials_out:
        write_json(args.trials_out, trials)
        print(f"wrote trial log to {args.trials_out}")
    return 0


def _cmd_predict(args) -> int:
    config = _config(AuditConfig, args, embedder="ingest")
    model = load_model(args.model)
    ids, data = load_matrix_file(config.embeddings_path)
    field_order = tuple(f"f{i}" for i in range(data.shape[1] // config.d))
    with naming(config.embeddings_path):
        matrix = EmbeddingMatrix(data, config.d, field_order, tuple(ids))
    vector = predict_decisions(model, matrix)
    save_decisions(vector, args.out)
    print(f"wrote {len(ids)} decisions to {args.out}")
    return 0


def _cmd_consistency(args) -> int:
    decisions = load_decisions(args.decisions)
    neighbors = load_neighbors(args.neighbors, args.stage)
    if args.stage is not None:
        with naming(args.decisions):  # a stage id that the decisions lack
            decisions = decisions.take(neighbors.index_order)
    result = consistency(decisions, neighbors, args.k)
    print(f"{result.score:.4f}")
    if args.out:
        write_json(args.out, result.to_dict())
    return 0


def _cmd_metrics(args) -> int:
    predicted = load_decisions(args.predicted)
    truth = load_decisions(args.truth)
    metrics = classification_metrics(predicted, truth, args.averaging)
    print(" ".join(f"{name}={getattr(metrics, name):.4f}" for name in METRIC_NAMES))
    if args.out:
        write_json(args.out, metrics.to_dict())
    return 0


def _cmd_audit(args) -> int:
    config = _config(AuditConfig, args)
    report = run_audit(args.corpus, config, out_dir=args.out)
    print(render_report(report, "markdown"), end="")
    print(f"run directory: {args.out}")
    return 0


def _cmd_report(args) -> int:
    with naming(args.report):
        report = AuditReport.from_dict(read_json(args.report))
    text = render_report(report, args.format)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.format} report to {args.out}")
    else:
        print(text, end="")
    return 0


_HANDLERS = {
    "synth": _cmd_synth,
    "embed": _cmd_embed,
    "split": _cmd_split,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "consistency": _cmd_consistency,
    "metrics": _cmd_metrics,
    "audit": _cmd_audit,
    "report": _cmd_report,
}
SUBCOMMANDS = tuple(_HANDLERS)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help / --version
        return int(exc.code or 0)
    except (FairauditError, OSError) as exc:  # bad or missing data
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # plain argument misuse, as errors.py defines it
        print(f"fairaudit {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
