"""Layer-wise local spectral analysis and the filtering theorem probe.

For each user sequence the targets v_2..v_T define a local graph cut from
the global co-occurrence matrix; the hidden rows that predict those
targets are projected onto the local Laplacian eigenbasis, and per-
frequency energies are binned into rank-quantile bands and summed across
users.  The headline diagnostic is how the low-band energy share moves
with depth, with temporal filtering on and off: one pass profiles both
modes, which share everything up to layer 1's filter.

The theorem probe quantifies the core filtering claim: temporally
low-pass filtering a signal on a graph whose weights favor temporally
close nodes lowers the Laplacian quadratic form and the Rayleigh
quotient.  On ring graphs the temporal and graph frequency orders
coincide exactly, so the Rayleigh quotient can never increase; on
locality graphs the statement is statistical and is gated by a
pre-registered pilot threshold.

Nothing here writes a file: the CLI writes the profiles (CSV and JSON)
and the theorem report (JSON) through its own writers.
"""

import logging
from dataclasses import asdict, dataclass

import numpy as np

from freqrec.errors import InputError
from freqrec.graph import local_subgraph, normalized_laplacian
from freqrec.model.network import all_item_tokens, forward, length_chunks
from freqrec.spectral import band_energy, basis_from_matrix, gft, smoothness
from freqrec.tfm import tfm_apply

# Pre-registered acceptance bound for the locality-family Rayleigh-quotient
# violation rate: a pre-build pilot (15,000 dense-oracle trials across
# rho in {0.3, 0.5, 0.8} and five seeds) observed zero violations; 0.005
# is the rule-of-three 95% upper bound rounded up.
THEOREM1_PILOT_THRESHOLD = 0.005

log = logging.getLogger(__name__)


@dataclass
class SpectralProfile:
    raw: np.ndarray          # (n_layers + 1, n_bands) summed energies
    n_bands: int
    user_count: int
    skipped_short: int = 0
    skipped_degenerate: int = 0
    # Per profiled user, kept out of the written reports: energies
    # (users, n_layers + 1, n_bands), whose sum over users is raw, and the
    # users' positions in the analyzed sequences, ascending.
    user_energies: np.ndarray = None
    users: np.ndarray = None

    def shares(self):
        totals = self.raw.sum(axis=1, keepdims=True)
        safe = np.where(totals > 0, totals, 1.0)
        return self.raw / safe


def profile_from_trace(trace_matrices, basis, n_bands):
    """Band energies per layer, (n_layers + 1, n_bands), for one user's
    hidden stack (rows already cut to the target positions).  With a basis
    stacked over B users each state is (B, n, d) and the energies are per
    user, (B, n_layers + 1, n_bands)."""
    energies = band_energy(basis, gft(basis, np.stack(trace_matrices)), n_bands)
    return np.moveaxis(energies, 0, -2)


def trace_spectral_profile(model, sequences, graph, n_bands=4, tfm_modes=None):
    """Aggregate layer-by-band energies across users.

    Sequences whose local graph has no edges are skipped as degenerate, and
    those of fewer than max(3, n_bands + 1) items, whose local graph has
    fewer nodes than bands, as short, all before their forward pass.  The
    rest go one chunk of equal-length sequences at a time through one
    forward, which gathers from one token table for the whole catalog, and
    one stacked spectral pass: local graphs, eigendecompositions and band
    energies over (B, n, n).  Per-user energies are kept, and summed in
    input order.  With tfm_modes (filter switches, see `backbone_forward`)
    it returns one profile per mode from that one pass, which does all the
    work before layer 1's filter once for all modes."""
    modes = [model.backbone.tfm_enabled] if tfm_modes is None else list(tfm_modes)
    seqs = [np.asarray(seq, dtype=np.intp) for seq in sequences]
    long_enough = [i for i, seq in enumerate(seqs) if seq.size >= 3]
    chunks = [[long_enough[j] for j in chunk]
              for chunk in length_chunks([seqs[i].size for i in long_enough])]
    log.info("analyze (tfm %s): %d sequences in %d length buckets, %d chunks",
             ", ".join("on" if on else "off" for on in modes), len(long_enough),
             len({seqs[i].size for i in long_enough}), len(chunks))
    table = all_item_tokens(model)

    def one_chunk(chunk):
        block = np.stack([seqs[i] for i in chunk])
        adjacency = local_subgraph(graph, block[:, 1:])
        kept = adjacency.any(axis=(-2, -1))        # degenerate graphs have no edge
        if block.shape[1] <= n_bands or not kept.any():
            return np.asarray(chunk)[kept], None       # short, or all degenerate
        basis = basis_from_matrix(normalized_laplacian(adjacency[kept]))
        traces = [trace for _, trace in
                  forward(model, block[kept], capture=True, table=table, tfm_modes=modes)]
        # the modes share layer 0, the tokens: one stacked transform of it
        # and of every mode's layers 1..L
        states = traces[0][:1] + [h for trace in traces for h in trace[1:]]
        e = profile_from_trace([h[:, :-1] for h in states], basis, n_bands)
        return np.asarray(chunk)[kept], np.stack([np.concatenate([e[:, :1], layers], axis=1)
                                                  for layers in np.split(e[:, 1:], len(modes), 1)])

    results = list(map(one_chunk, chunks))
    done = [(users, e) for users, e in results if e is not None]
    if not done:
        raise InputError("no sequence was long enough to analyze")
    users = np.concatenate([u for u, _ in done])
    order = np.argsort(users, kind="stable")
    short = len(seqs) - len(long_enough) + sum(u.size for u, e in results if e is None)
    energies = np.concatenate([e for _, e in done], axis=1)[:, order]    # (modes, users, ...)
    profiles = [SpectralProfile(raw=per_user.sum(axis=0), n_bands=n_bands,
                                user_count=len(users), skipped_short=short,
                                skipped_degenerate=len(seqs) - short - len(users),
                                user_energies=per_user, users=users[order])
                for per_user in energies]
    return profiles[0] if tfm_modes is None else profiles


def attenuation_metric(profile):
    """One {"band", "ratio", "slope"} entry per band: the final-layer share
    over the input share (None when the input share is 0) and the
    least-squares slope of the share against the layer index."""
    if profile.raw.shape[0] < 2:
        raise InputError("attenuation needs at least 2 layers")
    shares = profile.shares()
    layers = np.arange(shares.shape[0], dtype=float)
    summary = []
    for b in range(profile.n_bands):
        first, last = shares[0, b], shares[-1, b]
        x = layers - layers.mean()
        y = shares[:, b] - shares[:, b].mean()
        summary.append({"band": b, "ratio": float(last / first) if first > 0 else None,
                        "slope": float(np.sum(x * y) / np.sum(x * x))})
    return summary


@dataclass
class Theorem1Report:
    family: str
    rho: float               # None for the ring family, which has no rho
    trials: int
    t_range: tuple
    seed: int
    cutoff: float
    order: int
    n_columns: int
    violations_rayleigh: int
    violations_quadratic: int
    mean_smoothness_before: float
    mean_smoothness_after: float
    mean_rayleigh_before: float
    mean_rayleigh_after: float
    threshold: float = THEOREM1_PILOT_THRESHOLD

    @property
    def rayleigh_violation_rate(self):
        return self.violations_rayleigh / self.trials if self.trials else 0.0

    def within_threshold(self):
        return self.rayleigh_violation_rate <= self.threshold

    def to_dict(self):
        return dict(asdict(self),
                    rayleigh_violation_rate=self.rayleigh_violation_rate)


def _family_adjacency(family, t_len, rho):
    if family == "ring":
        w = np.zeros((t_len, t_len))
        for i in range(t_len):
            w[i, (i + 1) % t_len] = w[(i + 1) % t_len, i] = 1.0
        return w
    if family == "locality":
        idx = np.arange(t_len)
        w = rho ** np.abs(idx[:, None] - idx[None, :])
        np.fill_diagonal(w, 0.0)
        return w
    raise InputError(f"unknown graph family {family!r} (expected 'ring' or 'locality')")


def theorem1_probe(spec, family, rho=0.5, t_range=(8, 64), trials=1000, seed=0,
                   n_columns=8, threshold=THEOREM1_PILOT_THRESHOLD):
    """Before/after smoothness statistics of temporal filtering on random
    signals over a graph family.  spec=None runs the identity filter.

    Violations count a trial whose quantity increased beyond a 1e-10
    relative slack; smoothness is taken against the symmetric normalized
    Laplacian (the dense definition, not the spectral shortcut)."""
    if family == "locality" and not (0.0 < rho < 1.0):
        raise InputError(f"locality family needs rho in (0, 1), got {rho}")
    lo, hi = t_range
    if lo < 3 or hi < lo:
        raise InputError(f"bad t_range {t_range}")

    def one_trial(trial_seed):
        rng = np.random.default_rng(trial_seed)
        t_len = int(rng.integers(lo, hi + 1))
        lap = normalized_laplacian(_family_adjacency(family, t_len, rho))
        h = rng.standard_normal((t_len, n_columns))
        out = tfm_apply(h, spec) if spec is not None else h.copy()
        q0 = smoothness(lap, h)
        q1 = smoothness(lap, out)
        r0 = q0 / float(np.sum(h * h))
        r1 = q1 / max(float(np.sum(out * out)), 1e-300)
        viol_q = q1 > q0 + 1e-10 * max(1.0, abs(q0))
        viol_r = r1 > r0 + 1e-10 * max(1.0, abs(r0))
        return q0, q1, r0, r1, viol_q, viol_r

    base = np.random.default_rng(seed).integers(0, 2**63 - 1, size=trials)
    rows = [one_trial(int(s)) for s in base]
    q0s, q1s, r0s, r1s, vqs, vrs = zip(*rows)
    return Theorem1Report(
        family=family, rho=(rho if family == "locality" else None),
        trials=trials, t_range=(lo, hi), seed=seed,
        cutoff=(spec.cutoff if spec is not None else 1.0),
        order=(spec.order if spec is not None else 0),
        n_columns=n_columns,
        violations_rayleigh=int(sum(vrs)), violations_quadratic=int(sum(vqs)),
        mean_smoothness_before=float(np.mean(q0s)),
        mean_smoothness_after=float(np.mean(q1s)),
        mean_rayleigh_before=float(np.mean(r0s)),
        mean_rayleigh_after=float(np.mean(r1s)),
        threshold=threshold)
