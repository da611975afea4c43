"""Seeded fuzz of every input read from text or from a file, of every
per-sample label and mask argument, and of every feature matrix.

Each mutated input is either rejected with a ValueError (a ConfigError for a
config value or line) naming its key, file or line, or read as an independent
reference reads it: regular expressions for the ASCII number grammar and the
config file's line grammar the README documents, and a byte-for-byte re-save
for the binary checkpoint files. A label or mask argument or a feature matrix
of a drawn dtype and shape is rejected with a ValueError naming the argument
exactly when the documented rule rejects it, and is otherwise read as its
bool, int64 or float64 copy. Each family draws from one fixed random.Random,
only the label, mask and feature families train (single epochs of a few
samples), and each family runs in about a second.
"""

import json
import random
import re
from typing import get_args, get_type_hints

import numpy as np

from helpers import write_csv
from prestopping import cli, data, engine, memorization, metrics, nn, refurbish, rng

# what an edit inserts: the characters of the ASCII grammar and its separators,
# and what Python's int and float would read as well: '_' between digits,
# other scripts' digits (fullwidth, Arabic-Indic, mathematical bold) and spaces
ALPHABET = "0123456789+-.eE,naif \t\n\x1c_\uff11\uff10\u0663\u0660\U0001d7cf\u00a0\u2003"

SPACE = r"[ \t\n\r\v\f]*"  # the ASCII whitespace int and float allow around a number
INT = re.compile(rf"{SPACE}[+-]?[0-9]+{SPACE}")
FLOAT = re.compile(rf"{SPACE}[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?"
                   rf"|inf|infinity|nan){SPACE}", re.ASCII | re.IGNORECASE)
GRAMMAR = {int: INT, float: FLOAT}


def mutants(rand, text, count, alphabet=ALPHABET):
    """count copies of text, each after one to three random edits."""
    for _ in range(count):
        chars = list(text)
        for _ in range(rand.randint(1, 3)):
            i = rand.randrange(len(chars) + 1)
            edit = rand.randrange(4) if chars else 0
            if edit == 0:
                chars.insert(i, rand.choice(alphabet))
            elif edit == 1:
                del chars[min(i, len(chars) - 1)]
            elif edit == 2:
                chars[min(i, len(chars) - 1)] = rand.choice(alphabet)
            else:
                j = rand.randrange(len(chars) + 1)
                chars[i:i] = chars[min(i, j):max(i, j)]
        yield "".join(chars)


def reference_number(text, kind):
    """kind's value of text by the ASCII grammar, or None where it is no number."""
    return kind(text) if GRAMMAR[kind].fullmatch(text) else None


# ----- config values -----

def reference_value(tp, text):
    """What a config value annotated tp reads as, or None where it reads as nothing."""
    args = get_args(tp)
    if type(None) in args:  # Optional[X] parses as X
        tp = args[0]
    if tp is str:
        return text
    if tp in GRAMMAR:
        return reference_number(text, tp)
    kind = get_args(tp)[0]  # tuple[kind, ...]: comma-separated, a blank value is ()
    if re.fullmatch(SPACE, text):
        return ()
    cells = [reference_number(cell, kind) for cell in text.split(",")]
    return None if None in cells else tuple(cells)


def names_key(key, message):
    """message names key; a split that leaves no training samples starts with
    validation_size, and names key among the partition sizes it adds up or the
    keys that counted the total it is compared with."""
    return message.startswith(f"{key}:") or (
        key in ("n_classes", "per_class", "test_size")
        and message.startswith("validation_size: ") and "leave no training samples" in message
        and f"{key} " in message)


def test_every_config_value_is_rejected_by_key_or_read_as_the_reference_reads_it():
    rand = random.Random(1)
    default = cli.ExperimentConfig()
    base = {key: ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
            for key in cli.CONVERTERS if (v := getattr(default, key)) is not None}
    base.update(noise="pair", tau="0.3", data_csv="no-such.csv")
    accepted = 0
    for key, tp in get_type_hints(cli.ExperimentConfig).items():
        # from the default, and from the empty value a list-valued key allows
        for text in [*mutants(rand, base[key], 150), *mutants(rand, "", 30)]:
            want = reference_value(tp, text)
            overrides = {k: v for k, v in base.items() if k != "data_csv"}
            try:
                got = getattr(cli.build_config(None, {**overrides, key: text}), key)
            except cli.ConfigError as exc:
                assert names_key(key, str(exc)), (key, text, str(exc))
                continue
            accepted += 1
            assert want is not None and got == want, (key, text, got, want)
            assert type(got) is type(want), (key, text)
            if isinstance(want, tuple):
                assert [type(x) for x in got] == [type(x) for x in want], (key, text)
    assert accepted > 100  # the mutants do not all miss the grammar


# ----- config files -----

CONFIG_SPACE = "[ \t\r\v\f]*"  # the ASCII whitespace a config line, key or value loses
BARE = re.compile(r"(?:\S(?:.*\S)?)?")  # no whitespace of any script at either end
CONFIG_KEYS = set(get_type_hints(cli.ExperimentConfig))


def reference_config(text, path):
    """The {key: value} the README's line grammar reads from text, or the start of
    the message of the first line it rejects: 'config: <path>: line <n>: ' for a
    line that fits no rule, '<key>: ' for a key line it cannot keep."""
    values, sections = {}, set()
    for lineno, line in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        body = re.fullmatch(rf"{CONFIG_SPACE}(.*?){CONFIG_SPACE}", line)[1]
        if not body or body[0] in "#;":
            continue
        header = re.fullmatch(r"\[([^][]+)\]", body)
        entry = re.fullmatch(rf"([^=:]*?){CONFIG_SPACE}[=:]{CONFIG_SPACE}(.*)", body)
        if header and header[1] not in sections:
            sections.add(header[1])
            continue
        if body[0] == "[" or entry is None or not sections or re.fullmatch(r"\s*", entry[1]):
            return f"config: {path}: line {lineno}: "
        key, value = entry.groups()
        if not (BARE.fullmatch(key) and BARE.fullmatch(value)) \
                or key not in CONFIG_KEYS or key in values:
            return f"{key.strip()}: "
        values[key] = value
    return values


def test_every_config_line_edit_is_rejected_by_key_or_line_or_read_as_the_reference_reads_it(
        tmp_path):
    rand = random.Random(5)
    with open("configs/default.cfg", encoding="utf-8") as fh:
        shipped = fh.read()
    path = tmp_path / "exp.cfg"
    accepted = rejected = 0
    for text in mutants(rand, shipped, 1000, ALPHABET + "[]=:#;%\n"):
        path.write_text(text, encoding="utf-8")
        want = reference_config(text, path)
        try:
            got = cli.load_config_file(path)
        except cli.ConfigError as exc:
            rejected += 1
            assert isinstance(want, str) and str(exc).startswith(want), (text, str(exc), want)
            continue
        accepted += 1
        assert got == want, text
    assert accepted > 100 and rejected > 100, (accepted, rejected)


# ----- CSV datasets -----

def reference_csv(raw: bytes):
    """(features, noisy, true, n_classes) by the README's CSV rules, or None."""
    layout, rows = None, []
    for line in re.split(r"\r\n|\r|\n", raw.decode("utf-8", "surrogateescape")):
        if not line.isascii():
            return None
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if layout is None:
            if len(cells) < 2:
                return None
            if not all(FLOAT.fullmatch(c) for c in cells):
                names = [c.strip() for c in cells]
                n_labels = 2 if names[-1] == "true_label" else 1
                d = len(names) - n_labels
                if d < 1 or names != [f"feature_{j}" for j in range(d)] + [
                        "noisy_label", "true_label"][:n_labels]:
                    return None
                layout = (len(cells), n_labels)
                continue
            two = len(cells) >= 3 and all(INT.fullmatch(c) for c in cells[-2:])
            layout = (len(cells), 2 if two else 1)
        width, n_labels = layout
        features, labels = cells[:-n_labels], cells[-n_labels:]
        if len(cells) != width or not all(FLOAT.fullmatch(c) for c in features) \
                or not all(INT.fullmatch(c) for c in labels):
            return None
        rows.append(([float(c) for c in features], [int(c) for c in labels]))
    if not rows:
        return None
    features = np.array([f for f, _ in rows])
    noisy, true = (np.array([labels[i] for _, labels in rows]) for i in (0, -1))
    if not np.isfinite(features).all() or min(noisy.min(), true.min()) < 0 \
            or max(noisy.max(), true.max()) >= 2 ** 63:  # a label is an int64
        return None
    return features, noisy, true, max(int(max(noisy.max(), true.max())) + 1, 2)


def test_every_csv_body_is_rejected_by_line_or_read_as_the_reference_reads_it(tmp_path):
    rand = random.Random(2)
    ds = data.inject_noise(data.synth_gaussian(3, 2, 2, 0.4, seed=1),
                           data.build_pair_matrix(3, 0.5), seed=2)
    path = tmp_path / "body.csv"
    write_csv(ds, path)
    plain = path.read_text()
    bodies = [plain, "feature_0,feature_1,noisy_label,true_label\n" + plain,
              "".join(line.rsplit(",", 1)[0] + "\n" for line in plain.splitlines())]
    accepted = 0
    for body in bodies:
        for text in mutants(rand, body, 800, ALPHABET + "\r"):
            raw = bytearray(text.encode())
            if rand.random() < 0.1:  # a byte that is not UTF-8
                raw.insert(rand.randrange(len(raw) + 1), rand.randrange(0x80, 0x100))
            path.write_bytes(raw)
            want = reference_csv(bytes(raw))
            try:
                got = data.load_csv(path)
            except ValueError as exc:
                message = str(exc)
                assert message.startswith(f"{path}: line ") \
                    or message == f"{path}: no data rows", (text, message)
                assert want is None, (text, message)
                continue
            accepted += 1
            assert want is not None, text
            features, noisy, true, k = want
            assert np.array_equal(got.features, features), text
            assert np.array_equal(got.noisy_labels, noisy), text
            assert np.array_equal(got.true_labels, true), text
            assert got.n_classes == k, text
    assert accepted > 100


# ----- binary checkpoints -----

def byte_mutants(rand, raw: bytes, count):
    """count copies of raw, each after one to three byte edits."""
    for _ in range(count):
        out = bytearray(raw)
        for _ in range(rand.randint(1, 3)):
            i = rand.randrange(len(out) + 1)
            edit = rand.randrange(4) if out else 0
            if edit == 0:
                out.insert(i, rand.randrange(256))
            elif edit == 1:
                del out[min(i, len(out) - 1)]
            elif edit == 2:
                out[min(i, len(out) - 1)] = rand.randrange(256)
            else:
                del out[i:]
        yield bytes(out)


def check_binary(rand, path, raw, load, save):
    """Each mutant of raw is rejected naming path, or loads and saves back to itself."""
    accepted = 0
    for mutant in byte_mutants(rand, raw, 1500):
        path.write_bytes(mutant)
        try:
            loaded = load(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), (mutant, str(exc))
            continue
        accepted += 1
        save(loaded, path)
        assert path.read_bytes() == mutant
    assert accepted > 0


def test_every_checkpoint_byte_edit_is_rejected_by_path_or_saved_back_whole(tmp_path):
    rand = random.Random(3)
    state = nn.init_state(nn.NetworkSpec((3, 4, 2)), rng.stream(0, "init"))
    net = tmp_path / "net.pstp"
    nn.save_network(state, net)
    check_binary(rand, net, net.read_bytes(), nn.load_network, nn.save_network)

    history = memorization.PredictionHistory(6, 3, 4)
    for step in range(4):
        history.record_batch(np.arange(step, 6), np.arange(step, 6) % 4)
    hist = tmp_path / "hist.psth"
    history.save(hist)
    check_binary(rand, hist, hist.read_bytes(),
                 lambda p: memorization.PredictionHistory.load(p, 4), lambda h, p: h.save(p))


# ----- the summary.json that summarize reads -----

JSON_NUMBER = re.compile(r"[ \t\n\r]*(-?(?:0|[1-9][0-9]*))(\.[0-9]+)?(e[+-]?[0-9]+)?[ \t\n\r]*",
                         re.ASCII | re.IGNORECASE)


def reference_json_value(tp, text):
    """The value a summary field annotated tp reads as from text, or None."""
    match = JSON_NUMBER.fullmatch(text)
    if match is None:
        return None
    if not (match.group(2) or match.group(3)):
        return int(text)
    value = float(text)
    return value if np.isfinite(value) and float in (tp, *get_args(tp)) else None


def test_every_summary_number_is_rejected_by_path_or_read_as_the_reference_reads_it(
        tmp_path, capsys):
    rand = random.Random(4)
    run = metrics.RunSummary("prestopping", "validation", "pair", 0.3, 10, 0, 0.125, 12, 1.5)
    path = tmp_path / "prestopping" / "pair_0.3" / "seed0" / "summary.json"
    path.parent.mkdir(parents=True)
    good = json.dumps({"runs": metrics.summarize([run])["runs"]}, indent=2, sort_keys=True)
    accepted = 0
    for field, tp in get_type_hints(metrics.RunSummary).items():
        value = getattr(run, field)
        if isinstance(value, str):
            continue
        head, tail = good.split(f'"{field}": {json.dumps(value)}')
        for text in mutants(rand, json.dumps(value), 60):
            path.write_text(f'{head}"{field}": {text}{tail}', encoding="utf-8")
            (tmp_path / "summary.json").unlink(missing_ok=True)
            want = reference_json_value(tp, text)
            capsys.readouterr()
            if cli.cmd_summarize(tmp_path) == 1:
                assert capsys.readouterr().err.startswith(f"cannot read {path}: "), text
                assert want is None, (field, text)
                continue
            accepted += 1
            got = metrics.read_summary_json(tmp_path / "summary.json")["runs"][0][field]
            assert want is not None and got == want and type(got) is type(want), (field, text)
    assert accepted > 20


# ----- per-sample label and mask arguments, and feature matrices -----

WIDTH = 4  # the input width of the fuzzed network
VECTOR = ((np.bool_, np.int64, np.uint8, np.float64),
          lambda n: ((n,), (n - 1,), (n + 1,), (n, 1), (0,)))
# per kind of argument: the dtypes it is drawn with, and its shapes for n samples
DRAWS = {"labels": VECTOR, "mask": VECTOR,
         "features": ((np.float64, np.float32, np.int64, np.bool_),
                      lambda n: ((n, WIDTH), (n, WIDTH - 1), (n, WIDTH + 1), (n,),
                                 (n, WIDTH, 1)))}


def rule_accepts(kind, dtype, shape, size) -> bool:
    """The README's rules: a non-empty label vector has an integer dtype and one
    axis, a non-empty mask is bool with one axis, and with a length given either
    holds exactly that many entries, so an empty one passes only for length 0. A
    feature matrix of any of these dtypes has two axes, and size columns where
    size, the network's input width, is given."""
    if kind == "features":
        return len(shape) == 2 and size in (None, shape[1])
    allowed = (np.bool_,) if kind == "mask" else (np.int64, np.uint8)
    if 0 not in shape and (dtype not in allowed or len(shape) != 1):
        return False
    return size is None or shape == (size,)


def per_sample_arguments(n):
    """(name, kind, size, call) of each per-sample label or mask argument and each
    feature matrix: call(value) runs its function on n samples with value as that
    argument and returns what the function gives back. size is a label or mask
    argument's length, or a feature matrix's width, and None where any passes.
    Where the argument fixes the number of samples (a feature matrix, mp_mr's
    noisy_labels), call builds the other arguments to the length of value."""
    k = 3
    x = rng.stream(n, "fuzz x").normal(size=(n, WIDTH))
    y = np.arange(n) % k
    true = np.roll(y, 1)
    memorized = y != 1
    view = data.DataView(x, y, k)
    spec = nn.NetworkSpec((WIDTH, 5, k))
    config = nn.OptimizerConfig(batch_size=2, total_epochs=1)
    hist = memorization.PredictionHistory(n, 2, k)
    hist.record_batch(np.arange(n), y)
    hist.record_batch(np.arange(n // 2), true[:n // 2])  # half the histories stay pure
    none = np.zeros(n, dtype=bool)
    unrefurbished = refurbish.RefurbishedSet(np.full(n, -1), np.full(n, np.nan), none)
    refurbished = refurbish.refurbish_candidates(hist, refurbish.RefurbishConfig(0.5, none))

    def epoch(labels=None, member=None, view=view):
        state = nn.init_state(spec, rng.stream(0, "init"))
        fresh = memorization.PredictionHistory(view.n, 2, k)
        updated = engine.train_epoch(view, state, fresh, config, 1, 0, labels, member)
        return updated, state.params, fresh.label_counts()

    def candidates(trusted):
        rcfg = refurbish.RefurbishConfig(0.5, none)
        rcfg.trusted_mask = trusted  # past the check the config makes when it is built
        out = refurbish.refurbish_candidates(hist, rcfg)
        return out.labels, out.entropy, out.mask

    def rows(v):
        """Labels for each row of the feature matrix v."""
        return np.arange(len(v)) % k

    state = nn.init_state(spec, rng.stream(1, "init"))
    return [
        ("labels", "labels", n, lambda v: epoch(labels=v)),
        ("member", "mask", n, lambda v: epoch(member=v)),
        ("sample_mask", "mask", n,
         lambda v: nn.loss_grad_probs(x, y, state, sample_mask=v, denom=2)),
        ("labels", "labels", n, lambda v: nn.loss_grad_probs(x, v, state)),
        ("labels", "labels", n, lambda v: nn.evaluate_error(x, v, state)),
        ("labels", "labels", n, lambda v: nn.per_sample_losses(x, v, state)),
        ("noisy_labels", "labels", n, hist.memorized_mask),
        ("memorized", "mask", n, lambda v: memorization.mp_mr(v, y, true)),
        ("noisy_labels", "labels", None,
         lambda v: memorization.mp_mr(np.arange(len(v)) % 2 == 0, v, np.arange(len(v)) % k)),
        ("true_labels", "labels", n, lambda v: memorization.mp_mr(memorized, y, v)),
        ("trusted_mask", "mask", None,
         lambda v: refurbish.RefurbishConfig(0.5, v).trusted_mask),
        ("trusted_mask", "mask", n, candidates),
        ("trusted_mask", "mask", n, lambda v: refurbish.epoch_targets(unrefurbished, v, y)),
        ("noisy_labels", "labels", n, lambda v: refurbish.epoch_targets(refurbished, none, v)),
        ("labels", "labels", n, lambda v: data.DataView(x, v, k).labels),
        ("noisy_labels", "labels", n, lambda v: data.NoisyDataset(x, v, y, k).noisy_labels),
        ("true_labels", "labels", n, lambda v: data.NoisyDataset(x, y, v, k).true_labels),
        ("features", "features", None, lambda v: data.DataView(v, rows(v), k).features),
        ("features", "features", None,
         lambda v: data.NoisyDataset(v, rows(v), rows(v), k).features),
        ("features", "features", None,
         lambda v: nn.Batch(np.arange(len(v)), v, rows(v)).features),
        ("features", "features", WIDTH, lambda v: nn.forward(v, state)),
        ("features", "features", WIDTH, lambda v: nn.predict_labels(v, state)),
        ("features", "features", WIDTH, lambda v: nn.evaluate_error(v, rows(v), state)),
        ("features", "features", WIDTH, lambda v: nn.per_sample_losses(v, rows(v), state)),
        ("features", "features", WIDTH, lambda v: nn.loss_grad_probs(v, rows(v), state)),
        ("features", "features", WIDTH,
         lambda v: epoch(view=data.DataView(v, rows(v), k))),
    ]


def same(a, b) -> bool:
    """a and b hold equal values of equal dtypes, nan matching nan."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same, a, b))
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")


def misread(kinds, seed) -> list:
    """The cells of each per-sample argument of the given kinds, drawn from one
    random.Random(seed), that raise other than a ValueError starting with the
    argument's name exactly when its rule rejects the input, or that return
    other than what the input's canonical copy (bool, int64 or float64) returns."""
    rand = random.Random(seed)
    wrong = []
    for _ in range(40):
        n = rand.randint(2, 9)
        for index, (name, kind, size, call) in enumerate(per_sample_arguments(n)):
            if kind not in kinds:
                continue
            dtypes, shapes = DRAWS[kind]
            for dtype in dtypes:
                for shape in shapes(n):
                    count = int(np.prod(shape))
                    if kind == "features":
                        given = np.array([rand.uniform(-2, 2) for _ in range(count)])
                        given = given.reshape(shape).astype(dtype)
                        canonical = given.astype(np.float64)
                    else:
                        values = np.array([rand.randrange(2 if kind == "mask" else 3)
                                           for _ in range(count)]).reshape(shape)
                        given = values.astype(dtype)
                        canonical = values.astype(bool if kind == "mask" else np.int64)
                    cell = (index, name, dtype.__name__, shape)
                    try:
                        got = call(given)
                    except Exception as exc:  # anything but the rule's ValueError is wrong
                        if rule_accepts(kind, dtype, shape, size) or not (
                                isinstance(exc, ValueError) and str(exc).startswith(f"{name} ")):
                            wrong.append((*cell, f"{type(exc).__name__}: {exc}"))
                        continue
                    if not rule_accepts(kind, dtype, shape, size):
                        wrong.append((*cell, "accepted"))
                    elif not same(got, call(canonical)):
                        wrong.append((*cell, "read otherwise than its canonical copy"))
    return wrong


def test_every_label_and_mask_argument_is_rejected_by_name_or_read_as_its_canonical_copy():
    assert misread({"labels", "mask"}, 6) == []


def test_every_feature_matrix_is_rejected_by_name_or_read_as_its_float64_copy():
    assert misread({"features"}, 7) == []
