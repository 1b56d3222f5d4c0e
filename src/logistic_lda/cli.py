"""Command-line entry point.

Subcommands: gen (synthetic corpus), train, infer, eval, topics, gibbs.
Exit codes: 0 success, else the `exit_code` of the error type (errors.py):
1 usage error, 2 data or validation error, 3 training divergence.  An
OSError or MemoryError exits 2.

Flags can come from a plain-text config file (`--config FILE`, lines of
key=value, # comments); explicit flags override it.
"""

import argparse
import ctypes
import json
import os
import sys

import numpy as np

from .data_io import (
    Checkpoint,
    Corpus,
    PayloadSpec,
    corpus_from_groups,  # noqa: F401  (a traced name; perfbench/spans.py wraps it here)
    load_checkpoint,
    load_corpus,
    load_truth,
    save_checkpoint,
    save_corpus,
    save_truth,
    write_predictions,
)
from .encoders import init_params
from .errors import ContractError, LogisticLDAError, TrainingDivergedError, UsageError
from .evaluation import evaluation_report, top_items_per_topic
from .lda_baseline import (
    disjoint_topic_matrix,
    generate_corpus,  # noqa: F401  (a traced name; perfbench/spans.py wraps it here)
    gibbs_run,
    sample_corpus,
)
from .math_kernels import SeededRng, check_int, check_real
from .mean_field import (
    HyperParams,
    flatten_groups,  # noqa: F401  (a traced name; perfbench/spans.py wraps it here)
)
from .regularizer import default_gamma
from .training import MODES, OPTIMIZERS, TrainConfig, predict_corpus, train

# flags that take no value; config-file lines like clamp=false map to the
# generated --no-* form
_BOOL_KEYS = {"labeled", "clamp", "converged", "track-elbo", "quiet"}
_BOOL_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                "0": False, "false": False, "no": False, "off": False}


def _find_config(argv):
    """(path, i, j) where argv[i:j] is the --config flag with its path, or
    (None, 0, 0) when argv has none."""
    for i, a in enumerate(argv):
        if a == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a file path")
            return argv[i + 1], i, i + 2
        if a.startswith("--config="):
            return a.split("=", 1)[1], i, i + 1
    return None, 0, 0


def _inject_config(argv):
    path, i, j = _find_config(argv)
    if path is None:
        return argv
    if i == 0:
        raise UsageError("--config must follow a subcommand")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason})") from None
    expanded = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("_", "-")
        if key in _BOOL_KEYS:
            on = _BOOL_VALUES.get(value.lower())
            if on is None:
                raise UsageError(f"{path}:{lineno}: {key} takes 1/0, true/false, "
                                 f"yes/no or on/off, got {value!r}")
            expanded.append(f"--{key}" if on else f"--no-{key}")
        else:
            expanded.extend([f"--{key}", value])
    # insert after the subcommand so explicit flags, which come later, win
    return argv[:1] + expanded + argv[1:i] + argv[j:]


def _gamma_arg(text):
    if text == "auto":
        return text
    return float(text)


def _hidden_arg(text):
    try:
        return [int(h) for h in text.split(",") if h.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integer widths, got {text!r}") from None


def _add_model_flags(p):
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--converged", action=argparse.BooleanOptionalAction, default=True,
                   help="run inference to convergence instead of n-iter sweeps")


def _build_parser():
    p = argparse.ArgumentParser(prog="logistic-lda",
                                description="discriminative topic modeling over grouped items")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="sample a synthetic corpus with ground truth")
    g.add_argument("--k", type=int, required=True, help="number of topics")
    g.add_argument("--v", type=int, required=True, help="vocabulary size")
    g.add_argument("--docs", type=int, required=True, help="number of groups")
    g.add_argument("--len", type=int, required=True, dest="doc_len", help="items per group")
    g.add_argument("--alpha", type=float, default=0.1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--beta", choices=("disjoint", "random"), default="disjoint",
                   help="per-topic token distributions")
    g.add_argument("--beta-concentration", type=float, default=0.1,
                   help="Dirichlet concentration for --beta random")
    g.add_argument("--labeled", action=argparse.BooleanOptionalAction, default=False,
                   help="attach argmax of the true proportions as group labels")
    g.add_argument("-o", "--out", required=True)
    g.add_argument("--truth", default=None,
                   help="sidecar path (default: OUT.truth)")
    g.set_defaults(func=_cmd_gen)

    t = sub.add_parser("train", help="fit the encoder on a corpus")
    t.add_argument("--corpus", required=True)
    t.add_argument("-o", "--out", required=True, help="checkpoint path")
    t.add_argument("--mode", choices=MODES, default=TrainConfig.mode)
    t.add_argument("--encoder", choices=("table", "mlp"), default=None,
                   help="default: table for token corpora, mlp for dense")
    t.add_argument("--hidden", type=_hidden_arg, default="128",
                   help="comma-separated mlp hidden widths, empty for none")
    t.add_argument("--init-scale", type=float, default=0.1)
    t.add_argument("--alpha", type=float, default=0.1,
                   help="symmetric Dirichlet prior weight per topic")
    t.add_argument("--lam", type=float, default=HyperParams.lam, help="label coupling strength")
    t.add_argument("--gamma", type=_gamma_arg, default=HyperParams.gamma,
                   help="topic-usage regularizer weight, or 'auto' for 4x the item count")
    t.add_argument("--n-iter", type=int, default=HyperParams.n_iter,
                   help="unrolled update iterations")
    t.add_argument("--rho", type=float, default=HyperParams.rho,
                   help="decay of the running topic-usage average")
    t.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    t.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    t.add_argument("--lr", type=float, default=TrainConfig.lr)
    t.add_argument("--lr-decay", type=float, default=TrainConfig.lr_decay)
    t.add_argument("--optimizer", choices=OPTIMIZERS, default=TrainConfig.optimizer)
    t.add_argument("--momentum", type=float, default=TrainConfig.momentum)
    t.add_argument("--seed", type=int, default=TrainConfig.seed)
    t.add_argument("--clamp", action=argparse.BooleanOptionalAction,
                   default=TrainConfig.clamp_labels,
                   help="pin label beliefs of labeled groups during the E-step")
    t.add_argument("--e-step-sweeps", type=int, default=TrainConfig.e_step_sweeps)
    t.add_argument("--track-elbo", action=argparse.BooleanOptionalAction,
                   default=TrainConfig.track_elbo)
    t.add_argument("--eval-corpus", default=None)
    t.add_argument("--metrics", default=TrainConfig.metrics_path,
                   help="write one JSON record per epoch here")
    t.add_argument("--quiet", action=argparse.BooleanOptionalAction,
                   default=not TrainConfig.verbose)
    t.set_defaults(func=_cmd_train)

    i = sub.add_parser("infer", help="write per-group and per-item beliefs")
    i.add_argument("--corpus", required=True)
    _add_model_flags(i)
    i.add_argument("-o", "--out", required=True, help="predictions path")
    i.set_defaults(func=_cmd_infer)

    e = sub.add_parser("eval", help="score a model against labels and ground truth")
    e.add_argument("--corpus", required=True)
    _add_model_flags(e)
    e.add_argument("--truth", default=None, help="ground-truth sidecar for item metrics")
    e.set_defaults(func=_cmd_eval)

    o = sub.add_parser("topics", help="show the items each topic claims most strongly")
    o.add_argument("--corpus", required=True)
    _add_model_flags(o)
    o.add_argument("-n", type=int, default=10)
    o.set_defaults(func=_cmd_topics)

    b = sub.add_parser("gibbs", help="collapsed Gibbs baseline on a token corpus")
    b.add_argument("--corpus", required=True)
    b.add_argument("--alpha", type=float, default=0.1)
    b.add_argument("--eta", type=float, default=0.1)
    b.add_argument("--burn-in", type=int, default=500)
    b.add_argument("--samples", type=int, default=500)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--label-weight", type=float, default=0.0,
                   help="pseudo-count added to each labeled group's topic")
    b.add_argument("--truth", default=None)
    b.set_defaults(func=_cmd_gibbs)
    return p


def _check_paths(args, *outputs):
    """Refuse, before any input is read, a path that is empty (for an
    optional input such as --truth, "" is not "not given") and an output
    that names a directory or lies in one that does not exist (OSError,
    exit 2), and an output that names the same file (by realpath) as
    another path of the command, --config included (UsageError, exit 1).
    Inputs may coincide: --eval-corpus may be --corpus."""
    dests = ("out", "truth", "metrics", "corpus", "eval_corpus", "model", "config")
    named = {d: getattr(args, d) for d in dests if getattr(args, d, None) is not None}
    flag = {d: "-o" if d == "out" else "--" + d.replace("_", "-") for d in named}
    for dest, path in named.items():  # -o first: gen's --truth may derive from it
        if not path:
            raise FileNotFoundError(f"{flag[dest]}: the path is empty")
        if dest not in outputs:
            continue
        if os.path.isdir(path):
            raise IsADirectoryError(f"{flag[dest]} {path}: is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"{flag[dest]} {path}: its directory does not exist")
    for out in (o for o in outputs if o in named):
        for dest, path in named.items():
            if dest != out and os.path.realpath(path) == os.path.realpath(named[out]):
                raise UsageError(f"{flag[out]} {named[out]} and {flag[dest]} {path} "
                                 "name the same file")


def _cmd_gen(args):
    if args.truth is None:
        args.truth = f"{args.out}.truth"
    _check_paths(args, "truth", "out")
    check_real(args.alpha, "--alpha", "(0, inf)")
    rng = SeededRng(args.seed)
    if args.beta == "disjoint":
        beta = disjoint_topic_matrix(args.k, args.v)
    else:
        check_real(args.beta_concentration, "--beta-concentration", "(0, inf)")
        check_int(args.k, "--k", 1)
        check_int(args.v, "--v", 1)
        beta = rng.gen.dirichlet(np.full(args.v, args.beta_concentration), size=args.k)
    flat, truth = sample_corpus(
        args.k, args.v, args.docs, args.doc_len,
        np.full(args.k, args.alpha), beta, rng, labeled=args.labeled,
    )
    corpus = Corpus(num_topics=args.k, payload=PayloadSpec("token", args.v), flat=flat)
    save_corpus(args.out, corpus)
    save_truth(args.truth, corpus, truth)
    print(json.dumps({"corpus": args.out, "truth": args.truth,
                      "groups": flat.num_groups, "items": flat.num_items}))


def _make_hyper(args, K, num_items):
    gamma = default_gamma(num_items) if args.gamma == "auto" else args.gamma
    return HyperParams(alpha=np.full(K, args.alpha), lam=args.lam, gamma=gamma,
                       n_iter=args.n_iter, rho=args.rho)


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers


def _keep_freed_memory():
    """Let the epoch loop reuse the memory it frees: glibc serves blocks
    below 32 MiB from its heap, not from fresh mmaps, and gives the heap
    back only past 64 MiB free.  That is where glibc's own thresholds end
    up once a process has freed one large block; fixing them saves the
    page faults of every batch and epoch allocating its arrays anew.
    Returns False, and changes nothing, where the C library has no
    mallopt or cannot be opened by the name None (Windows)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    set_mmap = mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    set_trim = mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    return bool(set_mmap and set_trim)


def _cmd_train(args):
    _check_paths(args, "out", "metrics")
    _keep_freed_memory()
    check_real(args.alpha, "--alpha", "(0, inf)")
    corpus = load_corpus(args.corpus)
    K = corpus.num_topics
    hyper = _make_hyper(args, K, corpus.flat.num_items)
    rng = SeededRng(args.seed)
    encoder = args.encoder or ("table" if corpus.payload.kind == "token" else "mlp")
    if encoder == "table":
        if corpus.payload.kind != "token":
            raise ContractError("table encoder needs a token corpus")
        theta = init_params("table", (K, corpus.payload.size), args.init_scale, rng)
    else:
        if corpus.payload.kind != "dense":
            raise ContractError("mlp encoder needs a dense corpus")
        theta = init_params("mlp", (corpus.payload.size, *args.hidden, K), args.init_scale, rng)
    # the epoch records' ELBO and held-out score are computed only when the
    # records are written somewhere: the summary line reads neither
    records_read = args.metrics is not None or not args.quiet
    config = TrainConfig(
        mode=args.mode, epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
        lr_decay=args.lr_decay, optimizer=args.optimizer, momentum=args.momentum,
        seed=args.seed, clamp_labels=args.clamp, e_step_sweeps=args.e_step_sweeps,
        track_elbo=args.track_elbo and records_read, metrics_path=args.metrics,
        verbose=not args.quiet,
    )
    held = None if args.eval_corpus is None else load_corpus(args.eval_corpus)
    if held and (held.num_topics, held.payload) != (K, corpus.payload):
        raise ContractError(f"eval corpus has K={held.num_topics} and {held.payload}, "
                            f"the training corpus K={K} and {corpus.payload}")
    theta, report = train(corpus.flat, theta, hyper, config,
                          eval_flat=held.flat if held and records_read else None)
    cp = Checkpoint(
        hyper=hyper, params=theta, reg_state=report.reg_state,
        provenance={"seed": args.seed, "epochs": args.epochs, "mode": args.mode,
                    "corpus": os.path.basename(args.corpus)},
    )
    save_checkpoint(args.out, cp)
    print(json.dumps({"checkpoint": args.out, "mode": args.mode,
                      "final_loss": report.final_loss}))


def _load_pair(args):
    corpus = load_corpus(args.corpus)
    cp = load_checkpoint(args.model)
    if cp.hyper.num_topics != corpus.num_topics:
        raise ContractError(
            f"model has {cp.hyper.num_topics} topics, corpus header says {corpus.num_topics}"
        )
    return corpus, cp


def _cmd_infer(args):
    _check_paths(args, "out")
    corpus, cp = _load_pair(args)
    flat = corpus.flat
    labels, PL, P = predict_corpus(flat, cp.params, cp.hyper, converged=args.converged)
    write_predictions(args.out, flat.ids, labels, PL, P, flat.offsets)
    print(json.dumps({"predictions": args.out, "groups": int(labels.shape[0])}))


def _load_truth(path, flat):
    """The truth sidecar's (item topics, group labels), checked against the
    corpus; None when no path is given."""
    if path is None:
        return None
    ids, _, z, labels = load_truth(path)
    if ids != flat.ids or z.shape[0] != flat.num_items:
        raise ContractError("truth sidecar does not match the corpus")
    return z, labels


def _print_report(flat, truth, pred_groups, pred_items, K):
    """Score predictions against the corpus labels and, when given, the
    loaded truth (item topics, and group labels where the corpus has
    none); print the report as one JSON line."""
    true_groups = flat.labels if np.all(flat.labels >= 0) else None
    true_items = None
    if truth is not None:
        true_items, truth_labels = truth
        if true_groups is None:
            true_groups = truth_labels
    report = evaluation_report(pred_groups=pred_groups, true_groups=true_groups,
                               pred_items=pred_items, true_items=true_items, K=K)
    print(json.dumps(report.to_dict(), sort_keys=True))


def _cmd_eval(args):
    _check_paths(args)
    corpus, cp = _load_pair(args)
    flat = corpus.flat
    truth = _load_truth(args.truth, flat)  # before inference: a bad sidecar wastes none
    pred_groups, _, P = predict_corpus(flat, cp.params, cp.hyper, converged=args.converged)
    _print_report(flat, truth, pred_groups, P.argmax(axis=1), corpus.num_topics)


def _cmd_topics(args):
    _check_paths(args)
    corpus, cp = _load_pair(args)
    tops = top_items_per_topic(corpus, cp.params, cp.hyper, args.n, converged=args.converged)
    for k, entries in enumerate(tops):
        seen, texts = set(), []
        for _, _, text in entries:  # first occurrence of each rendering wins
            if text not in seen:
                seen.add(text)
                texts.append(text)
        print(f"topic {k}: " + " ".join(texts))


def _cmd_gibbs(args):
    _check_paths(args)
    check_real(args.alpha, "--alpha", "(0, inf)")
    corpus = load_corpus(args.corpus)
    if corpus.payload.kind != "token":
        raise ContractError("the Gibbs baseline needs a token corpus")
    flat = corpus.flat
    truth = _load_truth(args.truth, flat)  # before the sweeps: a bad sidecar wastes none
    K = corpus.num_topics
    rng = SeededRng(args.seed)
    state, item_post, beta_hat, pi_hat = gibbs_run(
        flat, K, np.full(K, args.alpha), args.eta, rng,
        burn_in=args.burn_in, n_samples=args.samples,
        label_weight=args.label_weight, V=corpus.payload.size,
    )
    _print_report(flat, truth, pi_hat.argmax(axis=1), item_post.argmax(axis=1), K)


def run_cli(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(_inject_config(argv))
        args.config = _find_config(argv)[0]
        args.func(args)
        return 0
    except SystemExit as exc:  # argparse's refusal, or its --help
        return 0 if (exc.code or 0) == 0 else 1
    except (LogisticLDAError, OSError, MemoryError) as exc:
        kind = "training diverged" if isinstance(exc, TrainingDivergedError) else "error"
        print(f"{kind}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return getattr(exc, "exit_code", LogisticLDAError.exit_code)


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
