"""Interaction logs, protocol filtering and leave-one-out splits.

Ingestion accepts headerless TSV (user, item, timestamp, optional metadata
text) or JSON-lines ({"user", "item", "ts", "text"}: string or integer
user and item, integer ts, string or null text; tabs and line breaks in
the text read as spaces, so `write_tsv` round-trips the log).  Events are
deduplicated on the (user, item, timestamp) triple and canonically sorted
by (user, timestamp, item), so the result does not depend on file order.

Filtering removes users and items with fewer than min_interactions events,
iterating to a fixed point because each removal can push other counts
below the threshold.  The split is leave-one-out: the last item of each
sequence is the test target, the second-to-last the validation target.
Summary statistics are taken on the filtered sequences before truncation.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from freqrec.errors import DatasetTooSparseError, InputError

FORMATS = ("tsv", "jsonlines")
_TO_SPACE = str.maketrans("\t\r\n", "   ")


@dataclass
class InteractionLog:
    """Deduplicated, canonically sorted (user, item, timestamp, text) events."""

    events: list

    def __post_init__(self):
        self.events = _canonicalize(self.events)

    @property
    def n_events(self):
        return len(self.events)


def _canonicalize(events):
    seen = set()
    out = []
    for user, item, ts, text in sorted(events, key=lambda e: (e[0], e[2], e[1])):
        key = (user, item, ts)
        if key in seen:
            continue
        seen.add(key)
        out.append((user, item, ts, text))
    return out


def ingest(path, format="tsv"):
    """Parse an interaction file into an InteractionLog."""
    if format not in FORMATS:
        raise InputError(f"unknown format {format!r}, expected one of {FORMATS}")
    events = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if format == "tsv":
                parts = line.split("\t")
                if len(parts) < 3:
                    raise InputError(
                        f"{path}:{lineno}: expected at least 3 tab-separated columns "
                        f"(user, item, timestamp), got {len(parts)}")
                user, item = parts[0], parts[1]
                try:
                    ts = int(parts[2])
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: bad timestamp {parts[2]!r}") from exc
                text = parts[3] if len(parts) > 3 else ""
            else:
                try:
                    obj = json.loads(line)
                    user, item, ts = obj["user"], obj["item"], obj["ts"]
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise InputError(f"{path}:{lineno}: expected a JSON record with user, "
                                     f"item and ts ({exc})") from exc
                if not (type(user) in (str, int) and type(item) in (str, int)
                        and type(ts) is int):
                    raise InputError(f"{path}:{lineno}: user and item must be strings or "
                                     f"integers and ts an integer, got {[user, item, ts]}")
                user, item = str(user), str(item)
                if any(c in user + item for c in "\t\r\n"):
                    raise InputError(f"{path}:{lineno}: tab or line break in {[user, item]}")
                text = obj.get("text")
                if text is not None and not isinstance(text, str):
                    raise InputError(f"{path}:{lineno}: text must be a JSON string or null, "
                                     f"got {text!r}")
                text = (text or "").translate(_TO_SPACE)
            if ts < 0:
                raise InputError(f"{path}:{lineno}: negative timestamp {ts}")
            if not user or not item:
                raise InputError(f"{path}:{lineno}: empty user or item token")
            events.append((user, item, ts, text))
    if not events:
        raise InputError(f"{path}: no interaction events found")
    return InteractionLog(events)


def write_tsv(log, path):
    with open(path, "w", encoding="utf-8") as fh:
        for user, item, ts, text in log.events:
            if text:
                fh.write(f"{user}\t{item}\t{ts}\t{text}\n")
            else:
                fh.write(f"{user}\t{item}\t{ts}\n")


@dataclass
class SplitDataset:
    user_tokens: list
    item_tokens: list
    sequences: list            # full filtered item-index sequences, pre-truncation
    item_text: list
    max_seq_len: int
    min_interactions: int
    filter_trace: list = field(default_factory=list)

    @property
    def n_users(self):
        return len(self.sequences)

    @property
    def n_items(self):
        return len(self.item_tokens)

    @property
    def n_interactions(self):
        return int(sum(len(s) for s in self.sequences))

    @property
    def average_length(self):
        return self.n_interactions / self.n_users if self.n_users else 0.0

    def _window(self, user):
        return self.sequences[user][-self.max_seq_len:]

    def train_items(self, user):
        return self._window(user)[:-2]

    def valid_target(self, user):
        return int(self._window(user)[-2])

    def test_target(self, user):
        return int(self._window(user)[-1])

    def eval_input(self, user, phase):
        """Model input when predicting the phase target: everything before
        the validation item, or before the test item."""
        w = self._window(user)
        if phase == "valid":
            return w[:-2]
        if phase == "test":
            return w[:-1]
        raise InputError(f"unknown phase {phase!r}")

    def train_views(self):
        return {u: self.train_items(u) for u in range(self.n_users)}

    def windows(self):
        """Per-user truncated full sequences (train + valid + test items)."""
        return [self._window(u) for u in range(self.n_users)]

    def interacted(self, user):
        return set(int(i) for i in self.sequences[user])

    def summary(self):
        return {
            "n_users": self.n_users,
            "n_items": self.n_items,
            "n_interactions": self.n_interactions,
            "average_length": round(self.average_length, 2),
            "min_interactions": self.min_interactions,
            "max_seq_len": self.max_seq_len,
        }


def build_split(log, min_interactions=5, max_seq_len=50):
    """Filter to the fixed point, index tokens, and cut leave-one-out views."""
    if min_interactions < 3:
        raise InputError("min_interactions below 3 leaves no training items per user")
    if max_seq_len < 3:
        raise InputError("max_seq_len must be at least 3")
    events = list(log.events)
    trace = []
    iteration = 0
    while True:
        iteration += 1
        user_counts = {}
        item_counts = {}
        for user, item, _, _ in events:
            user_counts[user] = user_counts.get(user, 0) + 1
            item_counts[item] = item_counts.get(item, 0) + 1
        bad_users = {u for u, c in user_counts.items() if c < min_interactions}
        bad_items = {i for i, c in item_counts.items() if c < min_interactions}
        trace.append({"iteration": iteration,
                      "events": len(events),
                      "users_removed": len(bad_users),
                      "items_removed": len(bad_items)})
        if not bad_users and not bad_items:
            break
        events = [e for e in events if e[0] not in bad_users and e[1] not in bad_items]
        if not events:
            raise DatasetTooSparseError(
                f"filtering at min_interactions={min_interactions} removed every event",
                trace=trace)

    user_tokens = sorted({e[0] for e in events})
    item_tokens = sorted({e[1] for e in events})
    user_index = {t: i for i, t in enumerate(user_tokens)}
    item_index = {t: i for i, t in enumerate(item_tokens)}

    item_text = [""] * len(item_tokens)
    per_user = [[] for _ in user_tokens]
    for user, item, ts, text in events:   # events stay canonically sorted
        idx = item_index[item]
        per_user[user_index[user]].append(idx)
        if text and not item_text[idx]:
            item_text[idx] = text
    sequences = [np.asarray(s, dtype=np.int64) for s in per_user]
    return SplitDataset(user_tokens=user_tokens, item_tokens=item_tokens,
                        sequences=sequences, item_text=item_text,
                        max_seq_len=max_seq_len, min_interactions=min_interactions,
                        filter_trace=trace)


SYNTH_MIN_LENGTH = 6   # shortest synthesized sequence


@dataclass(frozen=True)
class SynthConfig:
    users: int = 200
    items: int = 100
    mean_length: int = 20
    rho: float = 0.5
    seed: int = 0
    with_text: bool = True


def synthesize(config):
    """Locality-controlled interaction generator.

    Each user walks the item axis: with probability rho the next event
    repeats the current item, otherwise it jumps to a different item j with
    probability proportional to rho^|i-j|.  High rho therefore yields
    near-constant sequences, and temporally adjacent events land on
    catalog-close, high-affinity items.  Returns the log together with the
    ground-truth affinity matrix rho^|i-j| (zero diagonal).
    """
    if not (0.0 < config.rho < 1.0):
        raise InputError(f"locality rho must lie in (0, 1), got {config.rho}")
    if config.users < 1 or config.items < 2 or config.mean_length < 1:
        raise InputError("users, items and mean_length must be positive (items >= 2)")
    rng = np.random.default_rng(config.seed)
    n = config.items
    idx = np.arange(n)
    affinity = config.rho ** np.abs(idx[:, None] - idx[None, :])
    np.fill_diagonal(affinity, 0.0)
    jump_cdf = np.cumsum(affinity, axis=1)
    jump_cdf /= jump_cdf[:, -1:]

    width = max(4, len(str(n - 1)), len(str(config.users - 1)))
    events = []
    for u in range(config.users):
        length = max(SYNTH_MIN_LENGTH, int(rng.poisson(config.mean_length)))
        cur = int(rng.integers(0, n))
        for t in range(length):
            token = f"i{cur:0{width}d}"
            text = f"band{cur // 8} item{cur}" if config.with_text else ""
            events.append((f"u{u:0{width}d}", token, t, text))
            if rng.random() < config.rho:
                continue
            cur = int(np.searchsorted(jump_cdf[cur], rng.random()))
    return InteractionLog(events), affinity
