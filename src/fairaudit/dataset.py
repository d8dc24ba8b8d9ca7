"""Profile data model, corpus I/O, label binarization, splits, and synthetic data.

A corpus is an ordered list of :class:`Profile` records. Each profile carries
five text fields in a fixed canonical order (the ``Combined`` field is the
newline-joined concatenation of the other four when not supplied), a map of
decision-stage labels, and a final outcome string.

File formats
------------
* JSONL: one object per line with keys ``id``, ``gcea``, ``gceo``, ``piq``,
  ``leadership``, ``combined`` (optional), ``labels`` (object with optional
  ``sl``/``ar``/``of``; unknown keys are preserved verbatim), ``type``. UTF-8.
* CSV: columns ``id,gcea,gceo,piq,leadership,combined,sl,ar,of,type`` with
  RFC-4180 quoting for embedded newlines. Empty cells mean "absent". Only the
  three stage labels have columns; other label keys are kept by JSONL only.
* Latent sidecar: JSONL of ``{id, q, group, field_q}``.
* Split assignment: JSON ``{seed, ratios, train, validation, test}``.
* Decision vector: JSON ``{source, index_order, values}``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from ._util import (
    check_unique,
    naming,
    parsing,
    positions,
    read_json,
    read_jsonl,
    typed,
    typed_list,
    write_json,
    write_jsonl,
)
from .errors import (
    AlignmentError,
    IntegrityError,
    MissingLabelError,
    MissingLatentError,
    ParseError,
    SizeError,
)

FIELD_ORDER = ("GCEA", "GCEO", "PIQ", "Leadership", "Combined")
JUDGED_FIELDS = FIELD_ORDER[:4]
STAGES = ("SL", "AR", "OF")
OUTCOME_STAGE = "Type"

POSITIVE_LABEL = {"SL": "Shortlisted", "AR": "Recommended", "OF": "Offered", "Type": "Offered"}
NEGATIVE_LABEL = {
    "SL": "Not Shortlisted",
    "AR": "Not Recommended",
    "OF": "Not Offered",
    "Type": "Not Offered",
}

# The corpus columns in CSV order, which are also the JSONL record keys: "id", the
# text fields in FIELD_ORDER order, the stage labels in STAGES order (under "labels"
# in JSONL), then "type".
_COLUMNS = ("id", "gcea", "gceo", "piq", "leadership", "combined", "sl", "ar", "of", "type")
_TEXT_KEYS = _COLUMNS[1 : 1 + len(FIELD_ORDER)]
_LABEL_KEYS = _COLUMNS[1 + len(FIELD_ORDER) : -1]


def derive_combined(fields: dict[str, str]) -> str:
    return "\n".join(fields.get(name, "") for name in JUDGED_FIELDS)


@dataclass(frozen=True)
class Profile:
    """One applicant record: text fields plus decision labels."""

    id: str
    fields: dict[str, str]
    labels: dict[str, str] = field(default_factory=dict)
    outcome: str | None = None

    def __post_init__(self):
        if not self.id:
            raise IntegrityError("profile id must be nonempty")
        filled = {name: self.fields.get(name, "") for name in FIELD_ORDER}
        if not filled["Combined"]:
            filled["Combined"] = derive_combined(filled)
        object.__setattr__(self, "fields", filled)


@dataclass(frozen=True, eq=False)
class DecisionVector:
    """Binary decisions from one source, aligned to an explicit id order."""

    source: str
    values: np.ndarray
    index_order: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.int64)
        if values.ndim != 1 or len(values) != len(self.index_order):
            raise AlignmentError(
                f"{self.source}: values shape {values.shape} does not match "
                f"{len(self.index_order)} ids"
            )
        if values.size and not np.isin(values, (0, 1)).all():
            raise IntegrityError(f"{self.source}: decision values must be 0 or 1")
        check_unique(self.index_order, f"{self.source} decisions")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "index_order", tuple(self.index_order))

    def __len__(self) -> int:
        return len(self.index_order)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "index_order": list(self.index_order),
            "values": [int(v) for v in self.values],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "DecisionVector":
        with parsing("decisions"):
            values = np.array(typed_list(obj, "values", int), dtype=np.int64)
            return cls(typed(obj, "source", str), values, tuple(typed_list(obj, "index_order", str)))

    def take(self, ids) -> "DecisionVector":
        """The decisions of ``ids``, in that order."""
        return DecisionVector(self.source, self.values[positions(self.index_order, ids)], tuple(ids))


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint train/validation/test id partitions plus their provenance."""

    train: tuple[str, ...]
    validation: tuple[str, ...]
    test: tuple[str, ...]
    seed: int
    ratios: tuple[float, float, float]

    def __post_init__(self):
        check_unique(self.train + self.validation + self.test, "split")

    def subsets(self) -> dict[str, tuple[str, ...]]:
        return {"train": self.train, "validation": self.validation, "test": self.test}

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ratios": list(self.ratios),
            "train": list(self.train),
            "validation": list(self.validation),
            "test": list(self.test),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "SplitAssignment":
        with parsing("splits"):
            parts = [tuple(typed_list(obj, key, str)) for key in ("train", "validation", "test")]
            ratios = tuple(float(r) for r in typed_list(obj, "ratios", (int, float)))
            return cls(*parts, typed(obj, "seed", int), ratios)


@dataclass(frozen=True)
class LatentRecord:
    """Hidden generative state for one synthetic profile."""

    q: float
    group: int
    field_q: dict[str, float]


@dataclass(frozen=True)
class RaterConfig:
    """Parameters of the simulated rater panels.

    ``bias_shift`` maps a latent group to a threshold shift applied to every
    stage for members of that group: a positive shift makes raters stricter
    with that group, lowering its positive rate.
    """

    quality_weights: dict[str, float] = field(
        default_factory=lambda: {name: 1.0 for name in JUDGED_FIELDS}
    )
    noise_sigma: float = 0.25
    bias_shift: dict[int, float] = field(default_factory=dict)
    stage_thresholds: tuple[float, float, float] = (0.4, 0.5, 0.6)
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.noise_sigma < math.inf:  # NaN fails both comparisons
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        sl, ar, of = self.stage_thresholds
        if not (sl <= ar <= of):
            raise ValueError("stage thresholds must be nondecreasing (SL <= AR <= OF)")
        weights = [self.quality_weights.get(name, 0.0) for name in JUDGED_FIELDS]
        if any(w < 0 for w in weights) or not any(w > 0 for w in weights):
            raise ValueError("quality_weights must be nonnegative and not all zero")


# ---------------------------------------------------------------------------
# corpus I/O


def _profile_from_record(obj: dict, line: int) -> Profile:
    if not isinstance(obj, dict):
        raise ParseError("record is not an object", line)
    pid = obj.get("id")
    if not isinstance(pid, str) or not pid:
        raise ParseError("missing or empty 'id'", line)
    fields = {}
    for name, key in zip(FIELD_ORDER, _TEXT_KEYS):
        value = obj.get(key)
        if value is None or (name == "Combined" and not value):  # a falsy combined is absent
            value = ""
        if not isinstance(value, str):
            raise ParseError(f"field {key!r} must be a string", line)
        fields[name] = value
    if not any(fields.values()):
        raise ParseError(f"record {pid!r} carries no text fields", line)
    labels = {} if obj.get("labels") is None else obj["labels"]
    if not isinstance(labels, dict):
        raise ParseError("'labels' must be an object", line)
    for key, value in labels.items():
        if not isinstance(value, str):
            raise ParseError(f"label {key!r} must be a string", line)
    outcome = obj.get("type")
    if outcome is not None and not isinstance(outcome, str):
        raise ParseError("'type' must be a string", line)
    stages = dict(zip(_LABEL_KEYS, STAGES))
    return Profile(pid, fields, {stages.get(k, k): v for k, v in labels.items()}, outcome)


def _corpus_format(path, format: str | None) -> str:
    """``format``, by default "csv" for a ``.csv`` path and "jsonl" otherwise."""
    if format is None:
        format = "csv" if str(path).endswith(".csv") else "jsonl"
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown corpus format {format!r}")
    return format


def _csv_rows(reader):
    """Each nonblank row of a ``csv.reader`` with the file line it starts on (a
    quoted cell may span lines)."""
    while True:
        line = reader.line_num + 1
        row = next(reader, None)
        if row is None:
            return
        if row:
            yield line, row


def load_corpus(path, format: str | None = None) -> list[Profile]:
    """Load profiles from JSONL or CSV, in file order.

    The format is inferred from the extension unless given explicitly. A CSV
    row reads as the JSONL record of its nonempty cells.
    """
    with naming(path):
        if _corpus_format(path, format) == "jsonl":
            profiles = [_profile_from_record(obj, line_no) for line_no, obj in read_jsonl(path)]
        else:
            profiles = []
            with open(path, "r", encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None or "id" not in header:
                    raise ParseError("CSV must have a header row including 'id'", 1)
                for line, row in _csv_rows(reader):
                    record = {key: value for key, value in zip(header, row)
                              if value and key in _COLUMNS}
                    record["labels"] = {key: record.pop(key) for key in _LABEL_KEYS
                                        if key in record}
                    profiles.append(_profile_from_record(record, line))
        check_unique([p.id for p in profiles], "corpus")
    return profiles


def _profile_to_record(p: Profile) -> dict:
    keys = dict(zip(STAGES, _LABEL_KEYS))
    labels, saved_from = {}, {}
    for name, value in p.labels.items():
        key = keys.get(name, name)
        if key in labels:  # a stage label and an unknown one, e.g. "SL" and "sl"
            raise IntegrityError(
                f"profile {p.id!r}: labels {saved_from[key]!r} and {name!r} would both "
                f"be saved as {key!r}"
            )
        labels[key], saved_from[key] = value, name
    record = {key: p.fields[name] for name, key in zip(FIELD_ORDER, _TEXT_KEYS)}
    record.update(id=p.id, labels=labels)
    if p.outcome is not None:
        record["type"] = p.outcome
    return record


def save_corpus(profiles: list[Profile], path, format: str | None = None) -> None:
    """Write profiles in canonical form; ``load_corpus`` round-trips it. CSV keeps
    only the three stage labels. A profile with two labels saved under one key
    ("SL" and "sl") raises IntegrityError before the file is opened."""
    records = [_profile_to_record(p) for p in profiles]
    if _corpus_format(path, format) == "jsonl":
        write_jsonl(path, records)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for p, cells in zip(profiles, records):
            cells.update((key, p.labels.get(stage, "")) for stage, key in zip(STAGES, _LABEL_KEYS))
            writer.writerow([cells.get(key, "") for key in _COLUMNS])


# ---------------------------------------------------------------------------
# labels


def check_stage(stage: str) -> None:
    """Reject a stage that has no positive label."""
    if stage not in POSITIVE_LABEL:
        raise ValueError(f"unknown stage {stage!r}; expected one of {sorted(POSITIVE_LABEL)}")


def binarize_labels(profiles: list[Profile], stage: str, strict: bool = False) -> DecisionVector:
    """Map one stage's categorical labels to a 0/1 vector in profile order.

    The stage's positive token ("Shortlisted", "Recommended", or "Offered")
    maps to 1 and anything else to 0. With ``strict=True`` a label that is
    neither the positive token nor the canonical negative raises instead.
    ``stage="Type"`` reads the outcome field.
    """
    check_stage(stage)
    raw: list[str | None] = []
    for p in profiles:
        raw.append(p.outcome if stage == OUTCOME_STAGE else p.labels.get(stage))
    missing = [p.id for p, value in zip(profiles, raw) if value is None]
    if missing:
        raise MissingLabelError(stage, missing)
    positive = POSITIVE_LABEL[stage]
    if strict:
        allowed = {positive, NEGATIVE_LABEL[stage]}
        bad = [p.id for p, value in zip(profiles, raw) if value not in allowed]
        if bad:
            raise IntegrityError(
                f"stage {stage!r}: unrecognized labels in strict mode for ids {bad[:10]}"
            )
    values = np.array([1 if value == positive else 0 for value in raw], dtype=np.int64)
    prefix = "truth" if stage == OUTCOME_STAGE else "human"
    return DecisionVector(f"{prefix}:{stage}", values, tuple(p.id for p in profiles))


def attach_stage_labels(
    profiles: list[Profile], decisions: dict[str, DecisionVector]
) -> list[Profile]:
    """Return new profiles with stage labels set from decision vectors."""
    by_id = {p.id: p for p in profiles}
    values: dict[str, dict[str, str]] = {pid: {} for pid in by_id}
    for stage, vector in decisions.items():
        check_stage(stage)
        for pid, v in zip(vector.index_order, vector.values):
            values[pid][stage] = POSITIVE_LABEL[stage] if v else NEGATIVE_LABEL[stage]
    out = []
    for p in profiles:
        labels = dict(p.labels)
        labels.update(values[p.id])
        out.append(Profile(p.id, dict(p.fields), labels, p.outcome))
    return out


# ---------------------------------------------------------------------------
# splits


def _largest_remainder(total: int, quotas: list[float]) -> list[int]:
    base = [math.floor(quota) for quota in quotas]
    remainder = total - sum(base)
    fractions = sorted(
        range(len(quotas)), key=lambda i: (-(quotas[i] - base[i]), i)
    )
    for i in fractions[:remainder]:
        base[i] += 1
    return base


def check_ratios(ratios) -> None:
    """Reject split ratios that are not three nonnegative fractions summing to 1."""
    if len(ratios) != 3 or not all(r >= 0 for r in ratios):  # NaN is not >= 0
        raise ValueError("ratios must be three nonnegative fractions")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)!r}")


def split_corpus(
    profiles: list[Profile],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
    stratify_on: str | None = None,
) -> SplitAssignment:
    """Deterministic seeded partition into train/validation/test.

    Sizes follow the floor rule: ``|train| = floor(r0*N)``,
    ``|validation| = floor(r1*N)``, remainder to test. With ``stratify_on``
    set, positives of that stage are apportioned by largest remainder so each
    split's positive rate stays within ``1/|split|`` of the corpus rate.
    """
    check_ratios(ratios)
    n = len(profiles)
    if n < 3:
        raise SizeError(f"need at least 3 profiles to split, got {n}")
    check_unique([p.id for p in profiles], "corpus")
    n_train = math.floor(ratios[0] * n)
    n_val = math.floor(ratios[1] * n)
    n_test = n - n_train - n_val
    sizes = (n_train, n_val, n_test)
    if min(sizes) < 1:
        raise SizeError(
            f"corpus of {n} cannot give every split at least one member under ratios {ratios}"
        )
    ids = [p.id for p in profiles]
    rng = np.random.default_rng(seed)
    if stratify_on is None:
        perm = rng.permutation(n)
        shuffled = [ids[i] for i in perm]
        parts = (
            shuffled[:n_train],
            shuffled[n_train : n_train + n_val],
            shuffled[n_train + n_val :],
        )
    else:
        stage_values = binarize_labels(profiles, stratify_on).values
        pos = [i for i in range(n) if stage_values[i] == 1]
        neg = [i for i in range(n) if stage_values[i] == 0]
        pos = [pos[i] for i in rng.permutation(len(pos))]
        neg = [neg[i] for i in rng.permutation(len(neg))]
        pos_counts = _largest_remainder(len(pos), [s * len(pos) / n for s in sizes])
        parts = []
        pos_at = neg_at = 0
        for size, n_pos in zip(sizes, pos_counts):
            n_neg = size - n_pos
            chunk = pos[pos_at : pos_at + n_pos] + neg[neg_at : neg_at + n_neg]
            pos_at += n_pos
            neg_at += n_neg
            parts.append([ids[i] for i in sorted(chunk)])
    return SplitAssignment(tuple(parts[0]), tuple(parts[1]), tuple(parts[2]), seed, tuple(ratios))


def save_split(split: SplitAssignment, path) -> None:
    write_json(path, split.to_dict())


def load_split(path) -> SplitAssignment:
    with naming(path):
        return SplitAssignment.from_dict(read_json(path))


# ---------------------------------------------------------------------------
# synthetic corpus

_FIELD_NOISE = 0.08
_TOKENS_MIN, _TOKENS_MAX = 30, 60


def generate_synthetic_corpus(
    n: int, vocab_size: int = 400, seed: int = 0
) -> tuple[list[Profile], dict[str, LatentRecord]]:
    """Generate a seeded corpus whose token statistics track a latent quality.

    Recipe, fully determined by ``(n, vocab_size, seed)``:

    * each profile draws a base quality ``Uniform(0,1)`` and a group bit;
    * each judged field gets a field quality ``clip(base + N(0, 0.08), 0, 1)``
      and the profile quality ``q`` is the equal-weight average of the four;
    * field text is 30..60 tokens, each drawn from the upper half of the
      vocabulary with probability equal to the field quality, else the lower
      half, so positive-token frequency is an observable proxy for ``q``;
    * the outcome is "Offered" iff ``q >= 0.5``.

    The group bit never influences the text. Latents are returned separately
    (and persisted via :func:`save_latents`) so no learner can read them.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if vocab_size < 10:
        raise ValueError("vocab_size must be >= 10")
    rng = np.random.default_rng(seed)
    half = vocab_size // 2
    words = [f"w{i:04d}" for i in range(2 * half)]  # lower half, then upper half
    width = max(5, len(str(max(n - 1, 0))))
    ones = np.ones(len(JUDGED_FIELDS))
    profiles: list[Profile] = []
    latents: dict[str, LatentRecord] = {}
    for i in range(n):
        pid = f"P{i:0{width}d}"
        base = rng.uniform()
        group = int(rng.integers(0, 2))
        field_q = np.clip(base + rng.normal(0.0, _FIELD_NOISE, len(JUDGED_FIELDS)), 0.0, 1.0)
        q = float(np.average(field_q, weights=ones))
        fields = {}
        for name, fq in zip(JUDGED_FIELDS, field_q):
            length = int(rng.integers(_TOKENS_MIN, _TOKENS_MAX + 1))
            from_upper = rng.random(length) < fq
            offsets = rng.integers(0, half, length)
            fields[name] = " ".join([words[i] for i in (offsets + half * from_upper).tolist()])
        outcome = POSITIVE_LABEL["Type"] if q >= 0.5 else NEGATIVE_LABEL["Type"]
        profiles.append(Profile(pid, fields, {}, outcome))
        latents[pid] = LatentRecord(
            q, group, {name: float(fq) for name, fq in zip(JUDGED_FIELDS, field_q)}
        )
    return profiles, latents


def save_latents(latents: dict[str, LatentRecord], path) -> None:
    write_jsonl(
        path,
        (
            {"id": pid, "q": rec.q, "group": rec.group, "field_q": rec.field_q}
            for pid, rec in latents.items()
        ),
    )


def load_latents(path) -> dict[str, LatentRecord]:
    records = []
    with naming(path):
        for line_no, obj in read_jsonl(path):
            with parsing("latents", line_no):
                records.append((typed(obj, "id", str), LatentRecord(
                    float(typed(obj, "q", (int, float))), typed(obj, "group", int),
                    _field_q(obj),
                )))
        check_unique([pid for pid, _ in records], "latents")
    return dict(records)


def _field_q(obj: dict) -> dict[str, float]:
    """``obj["field_q"]``, rejected unless it holds a number for each judged field."""
    field_q = typed(obj, "field_q", dict)
    lacking = [name for name in JUDGED_FIELDS if isinstance(field_q.get(name), bool)
               or not isinstance(field_q.get(name), (int, float))]
    if lacking:
        raise TypeError(f"'field_q' holds no number for {lacking}")
    return dict(field_q)


# ---------------------------------------------------------------------------
# rater simulation


def simulate_raters(
    profiles: list[Profile],
    latents: dict[str, LatentRecord],
    config: RaterConfig,
) -> dict[str, DecisionVector]:
    """Simulate biased, noisy human panels for the SL/AR/OF funnel.

    Each stage draws its own judgment noise per profile (panels differ across
    stages). A profile passes a stage when its noisy weighted field quality
    clears that stage's threshold plus the profile's group bias shift, and
    decisions cascade: failing an earlier stage forces failure at all later
    ones.
    """
    missing = [p.id for p in profiles if p.id not in latents]
    if missing:
        raise MissingLatentError(
            f"latent records missing for ids: {', '.join(missing[:10])}"
        )
    weights = np.array([config.quality_weights.get(name, 0.0) for name in JUDGED_FIELDS])
    rng = np.random.default_rng(config.seed)
    n = len(profiles)
    noise = rng.normal(0.0, config.noise_sigma, (n, len(STAGES)))
    records = [latents[p.id] for p in profiles]
    field_q = np.array([[rec.field_q[name] for name in JUDGED_FIELDS] for rec in records])
    base = np.average(field_q.reshape(n, len(JUDGED_FIELDS)), axis=1, weights=weights)
    shift = np.array([config.bias_shift.get(rec.group, 0.0) for rec in records], dtype=np.float64)
    passing = base[:, None] + noise >= shift[:, None] + np.array(config.stage_thresholds)
    decisions = np.logical_and.accumulate(passing, axis=1).astype(np.int64)
    ids = tuple(p.id for p in profiles)
    return {
        stage: DecisionVector(f"human:{stage}", decisions[:, s], ids)
        for s, stage in enumerate(STAGES)
    }


def save_decisions(vector: DecisionVector, path) -> None:
    write_json(path, vector.to_dict())


def load_decisions(path) -> DecisionVector:
    with naming(path):
        return DecisionVector.from_dict(read_json(path))
