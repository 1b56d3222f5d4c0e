"""Command-line entry point.

Subcommands: gen (synthetic corpus), train, infer, eval, topics, gibbs.
Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 training divergence.

Flags can come from a plain-text config file (`--config FILE`, lines of
key=value, # comments); explicit flags override it.  The environment
variable LOGISTIC_LDA_LOG sets the log level (DEBUG/INFO/WARNING/ERROR).
"""

import argparse
import ctypes
import json
import logging
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
from .errors import (
    CheckpointError,
    ContractError,
    CorpusFormatError,
    DomainError,
    TrainingDivergedError,
    UnsupportedOperationError,
)
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
from .training import TrainConfig, predict_corpus, train

log = logging.getLogger("logistic_lda")

# flags that take no value; config-file lines like clamp=false map to the
# generated --no-* form
_BOOL_KEYS = {"labeled", "clamp", "converged", "track-elbo", "quiet"}
_BOOL_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                "0": False, "false": False, "no": False, "off": False}


def _inject_config(argv):
    if "--config" not in argv and not any(a.startswith("--config=") for a in argv):
        return argv
    argv = list(argv)
    for i, a in enumerate(argv):
        if a == "--config":
            if i + 1 >= len(argv):
                raise ContractError("--config needs a file path")
            path, span = argv[i + 1], 2
            break
        if a.startswith("--config="):
            path, span = a.split("=", 1)[1], 1
            break
    if i == 0:
        raise ContractError("--config must follow a subcommand")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ContractError(f"{path}: not UTF-8 text ({exc.reason})") from None
    expanded = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("_", "-")
        if key in _BOOL_KEYS:
            on = _BOOL_VALUES.get(value.lower())
            if on is None:
                raise ContractError(f"{path}:{lineno}: {key} takes 1/0, true/false, "
                                    f"yes/no or on/off, got {value!r}")
            expanded.append(f"--{key}" if on else f"--no-{key}")
        else:
            expanded.extend([f"--{key}", value])
    # insert after the subcommand so explicit flags, which come later, win
    return argv[:1] + expanded + argv[1:i] + argv[i + span :]


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


def _add_hyper_flags(p):
    p.add_argument("--alpha", type=float, default=0.1,
                   help="symmetric Dirichlet prior weight per topic")
    p.add_argument("--lam", type=float, default=1.0, help="label coupling strength")
    p.add_argument("--gamma", type=_gamma_arg, default=0.0,
                   help="topic-usage regularizer weight, or 'auto' for 4x the item count")
    p.add_argument("--n-iter", type=int, default=5, help="unrolled update iterations")
    p.add_argument("--rho", type=float, default=0.99,
                   help="decay of the running topic-usage average")


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
    t.add_argument("--mode", choices=("variational", "discriminative"), default="variational")
    t.add_argument("--encoder", choices=("table", "mlp"), default=None,
                   help="default: table for token corpora, mlp for dense")
    t.add_argument("--hidden", type=_hidden_arg, default="128",
                   help="comma-separated mlp hidden widths, empty for none")
    t.add_argument("--init-scale", type=float, default=0.1)
    _add_hyper_flags(t)
    t.add_argument("--epochs", type=int, default=20)
    t.add_argument("--batch-size", type=int, default=32)
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--lr-decay", type=float, default=1.0)
    t.add_argument("--optimizer", choices=("sgd", "momentum", "adam"), default="adam")
    t.add_argument("--momentum", type=float, default=0.9)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--clamp", action=argparse.BooleanOptionalAction, default=True,
                   help="pin label beliefs of labeled groups during the E-step")
    t.add_argument("--e-step-sweeps", type=int, default=1)
    t.add_argument("--track-elbo", action=argparse.BooleanOptionalAction, default=True)
    t.add_argument("--eval-corpus", default=None)
    t.add_argument("--metrics", default=None, help="write one JSON record per epoch here")
    t.add_argument("--quiet", action=argparse.BooleanOptionalAction, default=False)
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


def _cmd_gen(args):
    truth_path = args.truth or f"{args.out}.truth"
    if os.path.realpath(truth_path) == os.path.realpath(args.out):
        print(f"error: --truth {truth_path} and -o {args.out} name the same file",
              file=sys.stderr)
        return 1
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
    save_truth(truth_path, corpus, truth)
    log.info("wrote %s and %s", args.out, truth_path)
    print(json.dumps({"corpus": args.out, "truth": truth_path,
                      "groups": flat.num_groups, "items": flat.num_items}))
    return 0


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
    config = TrainConfig(
        mode=args.mode, epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
        lr_decay=args.lr_decay, optimizer=args.optimizer, momentum=args.momentum,
        seed=args.seed, clamp_labels=args.clamp, e_step_sweeps=args.e_step_sweeps,
        track_elbo=args.track_elbo, metrics_path=args.metrics, verbose=not args.quiet,
    )
    held = load_corpus(args.eval_corpus) if args.eval_corpus else None
    if held and (held.num_topics, held.payload) != (K, corpus.payload):
        raise ContractError(f"eval corpus has K={held.num_topics} and {held.payload}, "
                            f"the training corpus K={K} and {corpus.payload}")
    theta, report = train(corpus.flat, theta, hyper, config, eval_flat=held and held.flat)
    cp = Checkpoint(
        hyper=hyper, params=theta, reg_state=report.reg_state,
        provenance={"seed": args.seed, "epochs": args.epochs, "mode": args.mode,
                    "corpus": os.path.basename(args.corpus)},
    )
    save_checkpoint(args.out, cp)
    print(json.dumps({"checkpoint": args.out, "mode": args.mode,
                      "final_loss": report.final_loss}))
    return 0


def _load_pair(args):
    corpus = load_corpus(args.corpus)
    cp = load_checkpoint(args.model)
    if cp.hyper.num_topics != corpus.num_topics:
        raise ContractError(
            f"model has {cp.hyper.num_topics} topics, corpus header says {corpus.num_topics}"
        )
    return corpus, cp


def _cmd_infer(args):
    corpus, cp = _load_pair(args)
    flat = corpus.flat
    labels, PL, P = predict_corpus(flat, cp.params, cp.hyper, converged=args.converged)
    write_predictions(args.out, flat.ids, labels, PL, P, flat.offsets)
    print(json.dumps({"predictions": args.out, "groups": int(labels.shape[0])}))
    return 0


def _print_report(flat, truth_path, pred_groups, pred_items, K):
    """Score predictions against the corpus labels and, when given, the
    truth sidecar (item topics, and group labels where the corpus has
    none); print the report as one JSON line."""
    true_groups = flat.labels if np.all(flat.labels >= 0) else None
    true_items = None
    if truth_path:
        ids, _, z, truth_labels = load_truth(truth_path)
        if ids != flat.ids or z.shape[0] != flat.num_items:
            raise ContractError("truth sidecar does not match the corpus")
        true_items = z
        if true_groups is None:
            true_groups = truth_labels
    report = evaluation_report(pred_groups=pred_groups, true_groups=true_groups,
                               pred_items=pred_items, true_items=true_items, K=K)
    print(json.dumps(report.to_dict(), sort_keys=True))


def _cmd_eval(args):
    corpus, cp = _load_pair(args)
    flat = corpus.flat
    pred_groups, _, P = predict_corpus(flat, cp.params, cp.hyper, converged=args.converged)
    _print_report(flat, args.truth, pred_groups, P.argmax(axis=1), corpus.num_topics)
    return 0


def _cmd_topics(args):
    corpus, cp = _load_pair(args)
    tops = top_items_per_topic(corpus, cp.params, cp.hyper, args.n, converged=args.converged)
    for k, entries in enumerate(tops):
        seen, texts = set(), []
        for _, _, text in entries:  # first occurrence of each rendering wins
            if text not in seen:
                seen.add(text)
                texts.append(text)
        print(f"topic {k}: " + " ".join(texts))
    return 0


def _cmd_gibbs(args):
    check_real(args.alpha, "--alpha", "(0, inf)")
    corpus = load_corpus(args.corpus)
    if corpus.payload.kind != "token":
        raise ContractError("the Gibbs baseline needs a token corpus")
    flat = corpus.flat
    K = corpus.num_topics
    rng = SeededRng(args.seed)
    state, item_post, beta_hat, pi_hat = gibbs_run(
        flat, K, np.full(K, args.alpha), args.eta, rng,
        burn_in=args.burn_in, n_samples=args.samples,
        label_weight=args.label_weight, V=corpus.payload.size,
    )
    _print_report(flat, args.truth, pi_hat.argmax(axis=1), item_post.argmax(axis=1), K)
    return 0


def run_cli(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    level = os.environ.get("LOGISTIC_LDA_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        argv = _inject_config(argv)
    except (ContractError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if (exc.code or 0) == 0 else 1
    try:
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except (CorpusFormatError, CheckpointError, ContractError, DomainError,
            UnsupportedOperationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
