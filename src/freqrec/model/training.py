"""Fusion-MLP training with a decoupled-weight-decay adaptive optimizer.

The loss is a sampled softmax over each training position: the position's
next item is the positive, scored against n_negatives uniform catalog
draws shared across the positions of one sequence.  Each optimizer batch
fuses its distinct items' tokens once (`batch_loss`), and each group of
equal-length sequences in it is one tape node over that token block,
whose one VJP is a hand-written backward through the frozen backbone.  The
groups' token gradients sum into one block, and one fusion-MLP VJP gives
the four gradients of the step.  Only the fusion MLP receives updates; the
backbone is held frozen by construction (its weights never reach the
tape), which the parameter-hash test pins down.  Early stopping watches
validation NDCG@10 (the log's `valid_ndcg10`) on the one draw the caller
hands in, whatever `eval.k` says: that key sets the ranking of `evaluate`
and of `sweep`'s test rows.  `freqrec.checkpoint` saves the trained MLP
with the config its model was built from.
"""

import logging
import time
from dataclasses import dataclass

import numpy as np

from freqrec.errors import InputError
from freqrec.evalharness import evaluate
from freqrec.model.network import backbone_forward, length_chunks, model_tokens
from freqrec.numcore import autodiff as ad
from freqrec.numcore.linalg import add_rows_at

log = logging.getLogger(__name__)


class AdamW:
    """Adaptive moments with decoupled weight decay:

        m <- b1 m + (1-b1) g          v <- b2 v + (1-b2) g^2
        p <- p - lr (m_hat / (sqrt(v_hat) + eps) + wd * p)

    with the usual 1/(1-b^t) bias corrections.  Updates happen in place on
    the parameter arrays."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr, weight_decay):
        self.params = list(params)
        self.lr = float(lr)
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, grads):
        if len(grads) != len(self.params):
            raise InputError("gradient list does not match parameter list")
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + self.eps) + self.weight_decay * p
            p -= self.lr * update


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4            # protocol grid: {1e-5, 5e-5, 1e-4, 5e-4}
    batch_size: int = 32
    epochs: int = 10
    patience: int = 3
    n_negatives: int = 100
    seed: int = 0
    weight_decay: float = 0.01


def sequence_loss(backbone, sequences, negatives, tokens):
    """Sampled-softmax loss of a (B, T) block of equal-length training
    sequences with (B, n_negatives) negatives, all row indices into
    `tokens`, a tape parameter over a token block: the sum over sequences
    of the mean loss over each one's next-item positions.  A sequence's
    negatives are shared across its positions.  The loss is one tape node
    whose only parent is that block; its one VJP is the hand-written
    backward: log-softmax, scores, the backbone's adjoint and one scatter
    into the block's rows."""
    seqs = np.asarray(sequences, dtype=np.intp)
    negatives = np.asarray(negatives, dtype=np.intp)
    n_seqs, t_len = seqs.shape
    if t_len < 2:
        raise InputError("need at least 2 items to form a prediction position")
    if negatives.ndim != 2 or negatives.shape[0] != n_seqs:
        raise InputError(f"negatives {negatives.shape} do not match {n_seqs} sequences")
    block = tokens.value
    hidden, _, backbone_vjp = backbone_forward(backbone, block[seqs], grad=True)
    h_pred = hidden[:, :t_len - 1]
    pos_tokens, neg_tokens = block[seqs[:, 1:]], block[negatives]
    n_pred = n_seqs * (t_len - 1)
    pos_scores = (h_pred * pos_tokens).reshape(n_pred, -1).sum(axis=1)
    neg_scores = h_pred @ np.swapaxes(neg_tokens, -1, -2)
    logits = np.concatenate([pos_scores.reshape(n_seqs, t_len - 1, 1), neg_scores],
                            axis=-1).reshape(n_pred, -1)
    z = logits - logits.max(axis=-1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    # every sequence has t_len - 1 positions, so the sum of per-sequence
    # means is n_seqs times the mean over all positions
    loss = -(log_probs[:, 0].mean() * n_seqs)

    def backward(g):
        # d loss / d logits: the positive column's weight minus softmax
        weight = -float(n_seqs) / n_pred * float(g)
        g_logits = np.exp(log_probs) * -weight
        g_logits[:, 0] += weight
        g_logits = g_logits.reshape(n_seqs, t_len - 1, -1)
        g_pos, g_neg = g_logits[..., :1], g_logits[..., 1:]
        g_hidden = np.zeros_like(hidden)
        g_hidden[:, :t_len - 1] = g_pos * pos_tokens + g_neg @ neg_tokens
        g_block = np.zeros_like(block)
        add_rows_at(g_block, np.concatenate([seqs, seqs[:, 1:], negatives], axis=1),
                    np.concatenate([backbone_vjp(g_hidden), g_pos * h_pred,
                                    np.swapaxes(g_neg, -1, -2) @ h_pred], axis=1))
        return [g_block]

    return ad.node(loss, (tokens,), backward, name="sequence_loss")


def batch_loss(model, sequences, negatives):
    """The loss of one optimizer batch (sequences of any lengths of at
    least 2, (B, n_negatives) negatives) and the MLP's four gradients of
    it.  One `model_tokens` pass covers the batch's distinct items; each
    exact-length group (`length_chunks`) is one `sequence_loss` node over
    that block, taken through `tape_gradient` at once and summed into one
    token-gradient block (`_add_group_gradient`), so one group's node,
    gradient and backbone intermediates are alive at a time.  One MLP VJP
    maps the summed block to the four gradients.  Returns
    (the groups' losses, the gradients), stopping with gradients None at
    the first group whose loss is not finite."""
    lengths = [len(seq) for seq in sequences]
    unique, inverse = np.unique(np.concatenate([*sequences, negatives.ravel()]),
                                return_inverse=True)
    *local, local_negs = np.split(inverse, np.cumsum(lengths))
    local_negs = local_negs.reshape(negatives.shape)
    block, tokens_vjp = model_tokens(model, item_ids=unique, grad=True)
    tokens = ad.parameter(block, name="tokens")
    g_block, losses = np.zeros_like(block), []
    for group in length_chunks(lengths):
        losses.append(_add_group_gradient(g_block, model.backbone,
                                          np.stack([local[i] for i in group]),
                                          local_negs[group], tokens))
        if not np.isfinite(losses[-1]):
            return losses, None
    return losses, tokens_vjp(g_block)


def _add_group_gradient(g_block, backbone, sequences, negatives, tokens):
    """One length group's loss; when it is finite, its token gradient is
    added into `g_block` in place.  The group's tape node, gradient and
    backbone intermediates are locals here, so they are freed on return,
    before the next group's forward runs."""
    loss = sequence_loss(backbone, sequences, negatives, tokens)
    value = float(loss.value)
    if np.isfinite(value):
        (g,), _ = ad.tape_gradient(loss, [tokens])
        g_block += g
    return value


@dataclass
class TrainResult:
    entries: list
    best_epoch: int
    best_valid_ndcg: float
    aborted: bool = False


def train(model, split, valid, config=TrainConfig()):
    """Train the fusion MLP in place; other components never change.

    Each epoch shuffles users and applies one optimizer step per batch:
    the mean of its sequences' gradients (`batch_loss`).  Its negatives are
    one (n_users, n_negatives) block drawn right after the shuffle: row i
    belongs to the i-th user in shuffled order, skipped users included.
    Validation NDCG@10 on `valid`, the caller's draw of that phase, drives
    early stopping, and the best-epoch MLP weights are restored at the end.  A
    non-finite loss in any length group aborts the run before that
    batch's step, with the best weights kept."""
    if valid.phase != "valid":
        raise InputError(f"training validates on a 'valid' draw, got {valid.phase!r}")
    params = model.mlp.param_arrays()
    opt = AdamW(params, lr=config.lr, weight_decay=config.weight_decay)
    rng = np.random.default_rng(config.seed)
    best = [np.array(p, copy=True) for p in params]
    best_metric = -np.inf
    best_epoch = 0
    entries = []
    stale = 0
    aborted = False

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(split.n_users)
        negatives = rng.integers(0, split.n_items, size=(order.size, config.n_negatives))
        epoch_loss = 0.0
        n_sequences = 0
        n_groups = 0
        for start in range(0, order.size, config.batch_size):
            batch = slice(start, start + config.batch_size)
            seqs = [split.train_items(int(user)) for user in order[batch]]
            usable = [seq.size >= 2 for seq in seqs]
            seqs = [seq for seq, ok in zip(seqs, usable) if ok]
            if not seqs:
                log.warning("epoch %d: skipped a batch with no usable sequences", epoch)
                continue
            losses, grads = batch_loss(model, seqs, negatives[batch][usable])
            if grads is None:
                aborted = True
                break
            opt.step([g / len(seqs) for g in grads])
            epoch_loss += sum(losses)
            n_sequences += len(seqs)
            n_groups += len(losses)
        if aborted:
            break
        mean_loss = epoch_loss / max(n_sequences, 1)
        report = evaluate(model, split, valid)
        entries.append({"epoch": epoch, "loss": mean_loss,
                        "valid_ndcg10": report.ndcg, "valid_recall10": report.recall,
                        "lr": config.lr})
        log.info("train epoch %d: loss %.5f, valid NDCG@10 %.4f, %d sequences used in %d "
                 "length groups, %d skipped, %.2f s", epoch, mean_loss, report.ndcg, n_sequences,
                 n_groups, split.n_users - n_sequences, time.perf_counter() - started)
        if report.ndcg > best_metric:
            best_metric = report.ndcg
            best_epoch = epoch
            best = [np.array(p, copy=True) for p in params]
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break

    for p, b in zip(params, best):
        p[...] = b
    return TrainResult(entries=entries, best_epoch=best_epoch,
                       best_valid_ndcg=(best_metric if np.isfinite(best_metric) else 0.0),
                       aborted=aborted)
