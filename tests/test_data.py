import csv
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduxpll import data
from reduxpll.cli import main
from reduxpll.errors import ConfigError, DataError, ParseError


def test_generator_shapes_and_invariants():
    ds = data.gen_gaussian_mixture(5, 2, 200, 2.5, seed=0)
    assert (ds.n, ds.q, ds.c) == (200, 2, 5)
    assert np.abs(np.asarray(ds.posterior).sum(axis=1) - 1.0).max() < 1e-12
    # pre-corruption candidates are the bare true labels
    assert np.all(ds.candidates.sum(axis=1) == 1)
    assert np.all(ds.candidates[np.arange(ds.n), ds.true_labels])


def test_generator_is_deterministic():
    a = data.gen_gaussian_mixture(4, 3, 100, 2.0, seed=11)
    b = data.gen_gaussian_mixture(4, 3, 100, 2.0, seed=11)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.true_labels, b.true_labels)


def test_huge_separation_gives_one_hot_posteriors():
    ds = data.gen_gaussian_mixture(5, 2, 1000, 50.0, seed=1)
    assert np.asarray(ds.posterior).max(axis=1).min() > 1.0 - 1e-6


def test_posterior_symmetric_at_midpoint_of_two_components():
    mixture = data.GaussianMixture(
        means=np.array([[0.0, 0.0], [4.0, 0.0], [100.0, 100.0]]),
        scales=np.ones(3),
    )
    eta = mixture.posterior(np.array([2.0, 0.0]))
    assert abs(eta[0] - eta[1]) < 1e-9


def test_mean_posterior_matches_uniform_class_prior():
    ds = data.gen_gaussian_mixture(5, 2, 10_000, 2.5, seed=2)
    mean_eta = np.asarray(ds.posterior).mean(axis=0)
    assert np.abs(mean_eta - 0.2).max() < 0.02


def test_generator_rejects_tiny_n():
    with pytest.raises(ConfigError):
        data.gen_gaussian_mixture(5, 2, 3, 2.5, seed=0)


@pytest.mark.parametrize("separation", ["1e308", "1e160", "inf", "nan"])
def test_separation_that_overflows_the_posterior_is_a_config_error(tmp_path, capsys, separation):
    # the suite turns numpy's RuntimeWarnings into errors, so an overflow warns nowhere
    with pytest.raises(ConfigError, match="separation"):
        data.gen_gaussian_mixture(5, 2, 100, float(separation), seed=0)
    argv = ["generate", "--n", "100", "--separation", separation, "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: separation ")


# -- corruption -----------------------------------------------------------------

def _uncorrupted(n=400, seed=0, separation=2.5):
    return data.gen_gaussian_mixture(5, 2, n, separation, seed=seed)


def test_corruption_keeps_true_label_and_legal_sizes():
    ds = data.corrupt_instance_dependent(_uncorrupted(), 0.5, seed=3)
    data.validate_dataset(ds, require_posterior=True)
    assert np.all(ds.candidates[np.arange(ds.n), ds.true_labels])
    sizes = ds.candidates.sum(axis=1)
    assert sizes.min() >= 2 and sizes.max() <= ds.c - 1


def test_corruption_with_full_ambiguity_always_includes_top_incorrect_label():
    ds = data.corrupt_instance_dependent(_uncorrupted(), 1.0, seed=4)
    post = np.asarray(ds.posterior)
    for i in range(ds.n):
        eta = post[i].copy()
        eta[ds.true_labels[i]] = -np.inf
        top_wrong = int(np.argmax(eta))
        size = ds.candidates[i].sum()
        if size < ds.c - 1 or ds.candidates[i, top_wrong]:
            assert ds.candidates[i, top_wrong]


def test_corruption_near_onehot_posterior_forces_pair_sets():
    # peaked posteriors leave flips improbable, so the repair path dominates
    ds = data.gen_gaussian_mixture(5, 2, 1000, 25.0, seed=5)
    out = data.corrupt_instance_dependent(ds, 0.1, seed=5)
    assert (out.candidates.sum(axis=1) == 2).mean() >= 0.95


def test_mean_candidate_count_grows_with_ambiguity():
    base = _uncorrupted(n=1000, separation=1.8)
    means = [
        data.corrupt_instance_dependent(base, amb, seed=6).candidates.sum(axis=1).mean()
        for amb in (0.1, 0.3, 0.5)
    ]
    assert means[0] < means[1] < means[2]


def test_corruption_is_pure_in_seed():
    base = _uncorrupted()
    a = data.corrupt_instance_dependent(base, 0.5, seed=7)
    b = data.corrupt_instance_dependent(base, 0.5, seed=7)
    assert np.array_equal(a.candidates, b.candidates)
    c = data.corrupt_instance_dependent(base, 0.5, seed=8)
    assert not np.array_equal(a.candidates, c.candidates)


def test_corruption_requires_posterior_and_valid_ambiguity():
    base = _uncorrupted()
    stripped = data.PllDataset(base.features, base.candidates, base.true_labels, None)
    with pytest.raises(ConfigError):
        data.corrupt_instance_dependent(stripped, 0.5, seed=0)
    with pytest.raises(ConfigError):
        data.corrupt_instance_dependent(base, 0.0, seed=0)
    with pytest.raises(ConfigError, match="non-negative"):
        data.corrupt_instance_dependent(base, 0.5, seed=-1)


def _corrupt_reference(ds, ambiguity, seed):
    """The per-row corruption loop: one generator per instance."""
    n, c = ds.n, ds.c
    post = np.asarray(ds.posterior)
    labels = np.asarray(ds.true_labels)
    candidates = np.zeros((n, c), dtype=bool)
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        y = labels[i]
        eta = post[i]
        incorrect = np.arange(c) != y
        top = eta[incorrect].max()
        if top > 0.0:
            flip_p = ambiguity * eta / top
        else:
            flip_p = np.zeros(c)
        flips = (rng.random(c) < flip_p) & incorrect
        if not flips.any():
            j = int(np.argmax(np.where(incorrect, eta, -np.inf)))
            flips[j] = True
        elif flips.sum() == c - 1:
            j = int(np.argmin(np.where(flips, eta, np.inf)))
            flips[j] = False
        candidates[i] = flips
        candidates[i, y] = True
    return candidates


def _corruption_edge_cases():
    """Ring rows, near-one-hot rows, a one-hot row (top == 0) and a flat row."""
    ring = _uncorrupted(n=300, seed=1)
    peaked = data.gen_gaussian_mixture(5, 2, 100, 25.0, seed=2)
    one_hot = np.array([[0.0, 0.0, 1.0, 0.0, 0.0]])
    flat = np.full((1, 5), 0.2)
    return data.PllDataset(
        features=np.zeros((402, 2)),
        candidates=np.zeros((402, 5), dtype=bool),
        true_labels=np.concatenate([ring.true_labels, peaked.true_labels, [2, 3]]),
        posterior=np.concatenate([ring.posterior, peaked.posterior, one_hot, flat]),
    )


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 5])
@pytest.mark.parametrize("ambiguity", [0.1, 0.5, 1.0])
def test_corruption_equals_the_per_row_reference(seed, ambiguity):
    ds = _corruption_edge_cases()
    out = data.corrupt_instance_dependent(ds, ambiguity, seed)
    assert np.array_equal(out.candidates, _corrupt_reference(ds, ambiguity, seed))
    # the one-hot row got its lowest wrong label forced in
    assert out.candidates[400].tolist() == [True, False, True, False, False]
    if ambiguity == 1.0:
        # every wrong label of the flat row joined, so the first one was dropped
        assert out.candidates[401].tolist() == [False, True, True, True, True]


def _one_generator_row(seed, i, c):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))).random(c)


@pytest.mark.parametrize("seed", [0, 7, 123456789, 2**40 + 5, 2**130 + 17])
def test_row_uniforms_equal_one_generator_per_row(seed):
    n, c = 1500, 6
    for start in (0, data._ROW_BLOCK, 3_000_000_000):
        got = data._row_uniforms(seed, n, c, start)
        assert got.shape == (n, c)
        for i in (0, 1023, 1024, n - 1):
            assert np.array_equal(got[i], _one_generator_row(seed, start + i, c))
        if start:
            # the block that ends at the seam ends with instance start - 1
            before = data._row_uniforms(seed, 2, c, start - 2)
            assert np.array_equal(before[1], _one_generator_row(seed, start - 1, c))


def _generated(seed, path):
    """Mixture, corruption and CSV bytes of the benchmark layout at n = 5000."""
    ds = data.gen_gaussian_mixture(5, 2, 5000, 2.5, seed)
    corrupted = data.corrupt_instance_dependent(ds, 0.5, seed)
    data.save_csv(corrupted, path)
    return ds, corrupted, path.read_bytes()


_BLOCK_SEEDS = [0, 3, 2**40 + 5]


@pytest.fixture(scope="module")
def whole_array_generation(tmp_path_factory):
    # one block holds every row, as the whole-array passes did
    out = tmp_path_factory.mktemp("whole")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_ROW_BLOCK", 10**9)
        return {seed: _generated(seed, out / f"{seed}.csv") for seed in _BLOCK_SEEDS}


def _arrays(ds):
    return [ds.features, ds.candidates, ds.true_labels, ds.posterior]


@pytest.mark.parametrize("seed", _BLOCK_SEEDS)
@pytest.mark.parametrize("block", [1, 7, 4096])
def test_generated_bytes_do_not_depend_on_the_row_block(
    monkeypatch, tmp_path, whole_array_generation, seed, block
):
    monkeypatch.setattr(data, "_ROW_BLOCK", block)
    got = _generated(seed, tmp_path / "ds.csv")
    want = whole_array_generation[seed]
    for got_ds, want_ds in zip(got[:2], want[:2]):
        for a, b in zip(_arrays(got_ds), _arrays(want_ds)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got[2] == want[2]


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_validator_rows_do_not_depend_on_the_row_block(monkeypatch, block):
    ds = data.corrupt_instance_dependent(_uncorrupted(n=5000), 0.5, seed=4)
    bad = [3, 6, 7, 4095, 4096, 4999]
    ds.posterior[bad] += 0.1
    monkeypatch.setattr(data, "_ROW_BLOCK", block)
    with pytest.raises(DataError) as err:
        data.validate_dataset(ds)
    assert err.value.rows == bad


# -- validator --------------------------------------------------------------------

def _tiny_dataset():
    return data.PllDataset(
        features=np.zeros((3, 2)),
        candidates=np.array(
            [[True, True, False], [True, False, True], [False, True, True]]
        ),
        true_labels=np.array([0, 0, 1]),
        posterior=np.full((3, 3), 1 / 3),
    )


def test_validator_accepts_legal_dataset():
    data.validate_dataset(_tiny_dataset())


def test_validator_rejects_empty_and_full_sets():
    ds = _tiny_dataset()
    ds.candidates[1] = False
    with pytest.raises(DataError) as err:
        data.validate_dataset(ds)
    assert 1 in err.value.rows

    ds = _tiny_dataset()
    ds.candidates[2] = True
    with pytest.raises(DataError):
        data.validate_dataset(ds)


def test_validator_rejects_missing_true_label():
    ds = _tiny_dataset()
    ds.true_labels[0] = 2
    with pytest.raises(DataError) as err:
        data.validate_dataset(ds)
    assert 0 in err.value.rows


def test_validator_rejects_bare_singleton_unless_supervised():
    ds = _tiny_dataset()
    ds.candidates[0] = [True, False, False]
    with pytest.raises(DataError):
        data.validate_dataset(ds)
    data.validate_dataset(ds, allow_supervised=True)


def test_validator_rejects_nonfinite_features_and_bad_posterior():
    ds = _tiny_dataset()
    ds.features[2, 0] = np.inf
    with pytest.raises(DataError):
        data.validate_dataset(ds)

    ds = _tiny_dataset()
    ds.posterior[0] = [0.9, 0.9, 0.9]
    with pytest.raises(DataError):
        data.validate_dataset(ds)


@pytest.mark.parametrize(
    "row", [[np.nan] * 3, [np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0]], ids=["nan-row", "one-nan", "inf"]
)
def test_validator_rejects_nonfinite_posteriors(row):
    ds = _tiny_dataset()
    ds.posterior[1] = row
    with pytest.raises(DataError, match=r"non-finite posteriors in rows \[1\]"):
        data.validate_dataset(ds)


def test_training_on_a_csv_with_nan_posteriors_is_a_data_error(tmp_path, capsys):
    ds = data.corrupt_instance_dependent(_uncorrupted(n=200), 0.5, seed=4)
    ds.posterior[7] = np.nan
    path = tmp_path / "nan.csv"
    data.save_csv(ds, path)
    argv = ["train", "--dataset", str(path), "--method", "proden", "--epochs", "1"]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {path}:9: non-finite posteriors\n"


# -- csv round trip ----------------------------------------------------------------

def test_csv_round_trip_is_exact(tmp_path):
    ds = data.corrupt_instance_dependent(_uncorrupted(n=50), 0.5, seed=9)
    path = tmp_path / "ds.csv"
    data.save_csv(ds, path)
    loaded = data.load_csv(path)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.candidates, ds.candidates)
    assert np.array_equal(loaded.true_labels, ds.true_labels)
    assert np.array_equal(loaded.posterior, ds.posterior)
    # a second save reproduces the file byte for byte
    path2 = tmp_path / "ds2.csv"
    data.save_csv(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def _save_csv_reference(ds, path):
    """The per-row writer: csv.writer on one formatted row at a time."""
    header = [f"x{j}" for j in range(ds.q)] + ["candidates"]
    if ds.true_labels is not None:
        header.append("label")
    if ds.posterior is not None:
        header += [f"eta{j}" for j in range(ds.c)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.features[i]]
            row.append(",".join(str(j) for j in np.nonzero(ds.candidates[i])[0]))
            if ds.true_labels is not None:
                row.append(str(int(ds.true_labels[i])))
            if ds.posterior is not None:
                row += [repr(float(v)) for v in ds.posterior[i]]
            writer.writerow(row)


_NOT_A = {float: "could not convert string to float", int: "invalid literal for int() with base 10"}


def _plain(kind, text):
    """float(text) or int(text), where text, stripped, is ASCII and holds no '_'."""
    if not text.strip().isascii() or "_" in text:
        raise ValueError(f"{_NOT_A[kind]}: {text!r}")
    return kind(text)


def _line_fields(line):
    """csv.reader's fields of one physical line; a quote must close before the line ends."""
    (row,) = csv.reader([line if line.endswith(("\n", "\r")) else line + "\n"])
    if row and row[-1].endswith(("\n", "\r")):
        raise ValueError("a quoted field does not close on its line")
    return row


def _load_csv_reference(path, c=None):
    """The per-line reader: csv.reader on one physical line at a time, then
    float() and int() on each number under the ASCII, no-'_' rule."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = list(fh)
    if not lines:
        raise ParseError(f"{path}: empty file")
    try:
        header = _line_fields(lines[0])
    except ValueError as exc:
        raise ParseError(f"{path}:1: {exc}") from exc
    if "candidates" not in header:
        raise ParseError(f"{path}:1: no 'candidates' column in header {header}")
    feat = [i for i, name in enumerate(header) if name.startswith("x")]
    eta = [i for i, name in enumerate(header) if name.startswith("eta")]
    cand = header.index("candidates")
    label = header.index("label") if "label" in header else None
    rows = {"features": [], "candidates": [], "labels": [], "posterior": []}
    for lineno, line in enumerate(lines[1:], 2):
        try:
            row = _line_fields(line)
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            rows["features"].append([_plain(float, row[j]) for j in feat])
            rows["candidates"].append([_plain(int, t) for t in row[cand].split(",") if t != ""])
            if label is not None:
                rows["labels"].append(_plain(int, row[label]))
                if not -(2**63) <= rows["labels"][-1] < 2**63:
                    raise ValueError(f"label {rows['labels'][-1]} is out of the int64 range")
            rows["posterior"].append([_plain(float, row[j]) for j in eta])
            if "\0" in line:
                raise ValueError("a NUL character")
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    n = len(rows["features"])
    if eta:
        n_labels = len(eta)
    elif c is not None:
        n_labels = c
    else:
        n_labels = 1 + max((max(lst) for lst in rows["candidates"] if lst), default=0)
    candidates = np.zeros((n, n_labels), dtype=bool)
    for i, lst in enumerate(rows["candidates"]):
        bad = [j for j in lst if not 0 <= j < n_labels]
        if bad:
            raise ParseError(f"{path}:{i + 2}: candidate index {bad[0]} out of range")
        candidates[i, lst] = True
    ds = data.PllDataset(
        features=np.array(rows["features"], dtype=np.float64).reshape(n, len(feat)),
        candidates=candidates,
        true_labels=None if label is None else np.array(rows["labels"], dtype=np.int64),
        posterior=np.array(rows["posterior"], dtype=np.float64).reshape(n, len(eta)) if eta else None,
    )
    try:
        data.validate_dataset(ds)
    except DataError as exc:  # named by the line of its first row, without the row list
        reason = str(exc).partition(" in rows ")[0]
        raise DataError(f"{path}:{exc.rows[0] + 2}: {reason}") from exc
    return ds


def _assert_fields_are_repr(values):
    """save_csv's float fields of `values` are ',' + repr of each value."""
    values = np.asarray(values, dtype=np.float64).ravel()
    wrong = []
    for start in range(0, values.size, 2**16):  # bounds the memory of both sides
        chunk = values[start : start + 2**16]
        fields = data._float_fields(chunk)
        got = fields[fields != 0].tobytes().decode().split(",")[1:]
        want = list(map(repr, chunk.tolist()))
        assert len(got) == len(want)
        wrong += [(w, g) for w, g in zip(want, got) if w != g]
    assert not wrong, f"{len(wrong)} fields differ from repr, first (repr, field): {wrong[:5]}"


def _with_negatives(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def test_format_tables_hold_the_texts_they_stand_for():
    tables = data._format_tables()
    quads = b"".join(b"%04d" % i + bytes(4) for i in range(10000))  # 0000..9999, one word each
    assert tables["quads"].tobytes() == quads
    texts = [b"", b"0", *(b"e%+03d" % e for e in range(data._EXP_MIN, data._EXP_MAX + 1))]
    assert tables["suffix"].tobytes() == b"".join(t.ljust(8, b"\0") for t in texts)
    assert all(t.dtype == np.uint64 and not t.flags.writeable for t in tables.values())


def test_float_fields_are_repr_on_random_bit_patterns():
    # every exponent, subnormals, nan payloads and infinities of both signs
    bits = np.random.default_rng(24).integers(0, 2**64, size=10**6, dtype=np.uint64)
    _assert_fields_are_repr(bits.view(np.float64))


def test_float_fields_are_repr_on_powers_of_two_and_their_neighbours():
    powers = 2.0 ** np.arange(-1074, 1024)
    values = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    _assert_fields_are_repr(_with_negatives(np.concatenate(values)))


def test_float_fields_are_repr_on_powers_of_ten_and_integers_near_2_53():
    tens = [float(f"1e{k}") for k in range(-323, 309)]
    near = np.arange(2**53 - 2000, 2**53 + 2000, dtype=np.float64)
    _assert_fields_are_repr(_with_negatives(np.concatenate([tens, near])))


def test_float_fields_are_repr_for_each_count_of_significant_digits():
    rng = np.random.default_rng(17)
    values = [  # exponents that keep the values finite and nonzero
        float(f"{rng.integers(10 ** (p - 1), 10**p)}e{e}")
        for p in range(1, 18)
        for e in rng.integers(-322 - p, 309 - p, size=300).tolist()
    ]
    _assert_fields_are_repr(_with_negatives(values))


def test_float_fields_are_repr_around_the_notation_switches():
    # repr turns scientific below 1e-4 and from 1e16 on
    edges = np.array([1e-4, 1e16, 1e-3, 1e15])
    steps = [np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)]
    scaled = 1.2345 * np.array([1e-6, 1e-5, 1e-4, 1e-3, 1e14, 1e15, 1e16, 1e17])
    integral = 10.0 ** np.arange(17) * 7.0 + np.arange(17)
    specials = [0.0, np.nan, np.inf, 5e-324, 1.7976931348623157e308]
    _assert_fields_are_repr(_with_negatives(np.concatenate([*steps, scaled, integral, specials])))


def test_int_fields_are_str():
    values = np.array([0, 7, 10, 99, 100, 12345, -1, -120, 2**63 - 1, -(2**63)])
    fields = data._int_fields(values)
    got = fields[fields != 0].tobytes().decode()
    assert got == "".join(f",{v}" for v in values.tolist())


_odd_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 2100),
    c=st.integers(3, 12),  # two-digit labels and candidate indices from 11 labels on
    q=st.integers(1, 3),
    with_labels=st.booleans(),
    with_posterior=st.booleans(),
    odd=st.lists(_odd_floats, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_csv_matches_the_row_writer_and_round_trips(
    tmp_path_factory, n, c, q, with_labels, with_posterior, odd, seed
):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, q)) * 10.0 ** rng.integers(-5, 6, size=(n, q))
    if n:
        features.flat[rng.integers(0, n * q, size=len(odd))] = odd
    labels = rng.integers(0, c, size=n)
    raw = rng.random((n, c)) < rng.random()
    legal = raw.copy()
    legal[np.arange(n), labels] = True
    sizes = legal.sum(axis=1)
    legal[sizes == 1, (labels[sizes == 1] + 1) % c] = True
    legal[sizes == c, (labels[sizes == c] + 1) % c] = False
    posterior = rng.random((n, c)) + 1e-3
    posterior /= posterior.sum(axis=1, keepdims=True)
    tmp = tmp_path_factory.mktemp("csv")
    for masks in (raw, legal):
        ds = data.PllDataset(
            features=features,
            candidates=masks,
            true_labels=labels if with_labels else None,
            posterior=posterior if with_posterior else None,
        )
        data.save_csv(ds, tmp / "new.csv")
        _save_csv_reference(ds, tmp / "ref.csv")
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()
    loaded = data.load_csv(tmp / "new.csv", c=c)
    assert np.array_equal(loaded.features, features)
    assert np.array_equal(loaded.candidates, legal)
    if with_labels:
        assert loaded.true_labels.dtype == np.int64
        assert np.array_equal(loaded.true_labels, labels)
    else:
        assert loaded.true_labels is None
    if with_posterior:
        assert np.array_equal(loaded.posterior, posterior)
    else:
        assert loaded.posterior is None


def test_csv_of_a_lone_candidate_column_matches_the_row_writer(tmp_path):
    # csv.writer quotes a record made of one empty field
    ds = data.PllDataset(
        features=np.empty((3, 0)),
        candidates=np.array(
            [[False, False, False], [True, True, False], [False, True, False]]
        ),
    )
    data.save_csv(ds, tmp_path / "new.csv")
    _save_csv_reference(ds, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == b'candidates\r\n""\r\n"0,1"\r\n1\r\n'
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda f: [f[0], "nope", *f[2:]], "could not convert string to float: 'nope'"),
        (lambda f: [*f, "0"], "expected 9 fields, got 10"),
        (lambda f: [f[0], f[1], "0,9", *f[3:]], "candidate index 9 out of range"),
    ],
    ids=["bad-float", "field-count", "candidate-range"],
)
def test_csv_parse_error_past_the_first_block_names_its_line(tmp_path, edit, message):
    ds = data.corrupt_instance_dependent(_uncorrupted(n=2000), 0.5, seed=3)
    path = tmp_path / "ds.csv"
    data.save_csv(ds, path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1499] = edit(rows[1499])  # line 1500: the header is line 1
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert str(err.value) == f"{path}:1500: {message}"


def test_csv_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1,candidates,label\n0.0,0.0,\"0,1\",0\n0.0,nope,\"0,1\",0\n")
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert ":3" in str(err.value)


def test_csv_invariant_violation_reported_on_load(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1,candidates,label\n0.0,0.0,\"1\",0\n")
    with pytest.raises(DataError):
        data.load_csv(path, c=3)


INVARIANT_FILES = {
    "label-missing": ('x0,x1,candidates,label\n0.1,0.2,"1,2",0\n0.1,0.2,"0,2",0\n',
                      2, "true label missing from candidates"),
    "inf-feature": ('x0,x1,candidates,label\n0.1,0.2,"0,2",0\ninf,0.2,"0,2",0\n',
                    3, "non-finite features"),
}


@pytest.mark.parametrize("text, line, reason", INVARIANT_FILES.values(), ids=INVARIANT_FILES)
def test_load_csv_names_the_line_of_a_row_that_breaks_an_invariant(
    tmp_path, capsys, text, line, reason
):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(DataError) as err:
        data.load_csv(path)
    assert str(err.value) == f"{path}:{line}: {reason}"
    argv = ["train", "--dataset", str(path), "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}:{line}: {reason}\n"
    # in memory, the same dataset is named by its row, line - 2
    with path.open(newline="") as fh:
        records = list(csv.reader(fh))[1:]
    ds = data.PllDataset(
        features=np.array([[float(v) for v in r[:2]] for r in records]),
        candidates=np.array([[str(j) in r[2].split(",") for j in range(3)] for r in records]),
        true_labels=np.array([int(r[3]) for r in records]),
    )
    with pytest.raises(DataError) as err:
        data.validate_dataset(ds)
    assert str(err.value) == f"{reason} in rows [{line - 2}]"


def _outcome(load, path, c=None):
    """The arrays that `load` reads from path, as (dtype, shape, bytes), or its error."""
    try:
        ds = load(path, c=c)
    except (ParseError, DataError) as exc:
        return type(exc).__name__, str(exc)
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in _arrays(ds)]


# Spellings that float() or int() may read differently from numpy's C reader or
# that the ASCII, no-'_' rule refuses, candidate fields that only csv.reader's
# quoting rules explain, open quotes, and lines that are not records.
_FLOAT_SPELLINGS = [
    "1_0", " 1.5", "+1.5", ".5", "5.", "1E5", "nan", "-Infinity", "١", '"1.5"',
    "1.5 ", "", "x", "1.5\x00", "0x10", "\xa01.5", '"1.5',
]
_CANDIDATE_SPELLINGS = [
    '"0,""1"', '"0,1"x', '"0,1" ', ' "0,1"', '"0,\n1"', '"0,\r\n1"', '"1,\n"', "0\x00",
    '"0,1\x00"', "١", "0 ", '"0,,1"', '""', "1", "9", "0,1", '"0,1_0"',
]
_LABEL_SPELLINGS = [
    "+0", " 0", "1_0", "٢", "0.0", "99999999999999999999", "-9223372036854775809",
    "9223372036854775807", "-0", "",
]
_EXTRA_LINES = ["", " ", "\t", ",", '""']


def _fuzzed_csv(rng, n_max=12):
    """Text of a small CSV in save_csv's layout, with odd spellings, quotes, blank
    lines and mixed line ends put in at random."""
    c, q, n = int(rng.integers(3, 13)), int(rng.integers(0, 3)), int(rng.integers(0, n_max + 1))
    with_label, with_eta = (rng.random(2) < 0.7).tolist()
    header = [f"x{j}" for j in range(q)] + ["candidates"]
    header += ["label"] * with_label + [f"eta{j}" for j in range(c)] * with_eta
    lines = [",".join(header)]
    density, odd = rng.random(), rng.choice([0.02, 0.1, 0.4])  # of candidates and odd fields
    for _ in range(n):
        label = int(rng.integers(c))
        others = [j for j in range(c) if j != label and rng.random() < density]
        others = others or [(label + 1) % c]
        members = sorted({label, *others[: c - 2]})
        post = rng.random(c) + 1e-3
        row = [repr(v) for v in rng.standard_normal(q).tolist()]
        row.append(f'"{",".join(map(str, members))}"')
        row += [str(label)] * with_label + [repr(v) for v in (post / post.sum()).tolist()] * with_eta
        for _ in range(rng.poisson(odd)):
            j = int(rng.integers(len(row)))
            if header[j] == "candidates":
                row[j] = str(rng.choice(_CANDIDATE_SPELLINGS))
            elif header[j] == "label":
                row[j] = str(rng.choice(_LABEL_SPELLINGS))
            else:
                row[j] = str(rng.choice(_FLOAT_SPELLINGS))
        lines.append(",".join(row))
    if rng.random() < 0.25:
        lines.insert(int(rng.integers(1, len(lines) + 1)), str(rng.choice(_EXTRA_LINES)))
    ends = rng.choice(["\r\n", "\n"], size=len(lines))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[: -len(ends[-1])] if rng.random() < 0.2 else text


def _assert_reads_as_the_reference(path, c=None):
    assert _outcome(data.load_csv, path, c) == _outcome(_load_csv_reference, path, c)


def test_load_csv_matches_the_per_row_reader_on_fuzzed_files(tmp_path):
    rng = np.random.default_rng(25)
    path = tmp_path / "fuzz.csv"
    for _ in range(400):
        path.write_bytes(_fuzzed_csv(rng).encode())
        _assert_reads_as_the_reference(path, c=int(rng.integers(3, 13)) if rng.random() < 0.5 else None)


@pytest.mark.parametrize("row", [3, 1023, 1024, 1025])
@pytest.mark.parametrize("end", ["\r\n", "\n"])
def test_a_quoted_line_break_at_a_block_edge_reads_as_the_reference(tmp_path, row, end):
    # one record per physical line: a quote left open at a line's end is refused there
    ds = data.corrupt_instance_dependent(_uncorrupted(n=1100), 0.5, seed=row)
    path = tmp_path / "ds.csv"
    data.save_csv(ds, path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][2:4] = [f"0,{end}1", "0"]  # csv.reader would join "0,<end>1" into {0, 1}
    path.write_text("".join(",".join(f'"{f}"' if "," in f else f for f in r) + end for r in rows))
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert str(err.value) == f"{path}:{row + 1}: a quoted field does not close on its line"
    _assert_reads_as_the_reference(path)
    argv = ["train", "--dataset", str(path), "--method", "proden", "--epochs", "1"]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 2


def test_an_open_quote_names_the_line_it_opens_on_not_the_record(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text('x0,candidates,label\n0.5,"0,\n1",0\n0.5,"0,1",0\nnope,"0,1",0\n')
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert str(err.value) == f"{path}:2: a quoted field does not close on its line"
    _assert_reads_as_the_reference(path)


@pytest.mark.parametrize("line", [2, 15, 31])
@pytest.mark.parametrize("end", ["\r\n", ""])
def test_an_open_quote_in_the_last_field_is_refused_on_any_line(tmp_path, line, end):
    # numpy reads a quote left open on its input's last line up to the end
    ds = data.corrupt_instance_dependent(_uncorrupted(n=30), 0.5, seed=line)
    path = tmp_path / "ds.csv"
    data.save_csv(ds, path)
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    fields[-1] = '"' + fields[-1]
    lines[line - 1] = ",".join(fields)
    path.write_bytes(("\r\n".join(lines) + end).encode())
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert str(err.value) == f"{path}:{line}: a quoted field does not close on its line"
    _assert_reads_as_the_reference(path)


@pytest.mark.parametrize(
    "header, message",
    [
        ('x0,"candidates\n",label', "a quoted field does not close on its line"),
        ("x0,label", "no 'candidates' column in header ['x0', 'label']"),
    ],
    ids=["open-quote", "no-candidates"],
)
def test_the_header_is_the_first_physical_line(tmp_path, header, message):
    # csv.reader over the file would join the header's quoted break into one record
    path = tmp_path / "ds.csv"
    path.write_text(header + '\n0.5,"0,1",0\n')
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert str(err.value) == f"{path}:1: {message}"
    _assert_reads_as_the_reference(path)


def test_a_candidate_index_is_read_by_the_rule_of_every_number(tmp_path):
    # int(b"1_0") is 10; numpy's bytes field would pass "1_0" on as it is
    path = tmp_path / "ds.csv"
    path.write_text('x0,candidates,label\n0.5,"0,1",0\n0.5,"0,1_0",0\n')
    with pytest.raises(ParseError) as err:
        data.load_csv(path, c=11)
    assert str(err.value) == f"{path}:3: invalid literal for int() with base 10: '1_0'"
    _assert_reads_as_the_reference(path, c=11)


def _with_long_candidates(tmp_path, tail=b"", n=120, line=101):
    """An n-row CSV and its dataset; `line` spells its candidate set in a field of
    140 001 characters, past csv.reader's field size limit, with `tail` at its end."""
    ds = data.corrupt_instance_dependent(_uncorrupted(n=n), 0.5, seed=4)
    path = tmp_path / "ds.csv"
    data.save_csv(ds, path)
    lines = path.read_bytes().split(b"\r\n")
    fields = lines[line - 1].split(b'"')  # the candidates are the only quoted field
    spelled = fields[1] + tail
    fields[1] = spelled[:2] * ((140001 - len(spelled)) // 2) + spelled  # "a," repeated
    assert len(fields[1]) == 140001 > csv.field_size_limit()
    lines[line - 1] = b'"'.join(fields)
    path.write_bytes(b"\r\n".join(lines))
    return ds, path


def test_a_candidate_field_past_the_csv_field_limit_loads(tmp_path):
    ds, path = _with_long_candidates(tmp_path)
    loaded = data.load_csv(path)
    assert np.array_equal(loaded.candidates, ds.candidates)
    argv = ["train", "--dataset", str(path), "--method", "proden", "--epochs", "1"]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 0


def test_a_bad_candidate_field_past_the_csv_field_limit_is_a_parse_error(tmp_path, capsys):
    _, path = _with_long_candidates(tmp_path, b",x")
    message = f"{path}:101: invalid literal for int() with base 10: 'x'"
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert str(err.value) == message
    argv = ["train", "--dataset", str(path), "--method", "proden", "--epochs", "1"]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("blank", [2, 1024, 1025, 1101])
def test_a_blank_line_in_any_block_is_a_short_record(tmp_path, blank):
    ds = data.corrupt_instance_dependent(_uncorrupted(n=1100), 0.5, seed=blank)
    path = tmp_path / "ds.csv"
    data.save_csv(ds, path)
    lines = path.read_bytes().split(b"\r\n")
    lines.insert(blank - 1, b" " * (blank % 2))
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert str(err.value) == f"{path}:{blank}: expected 9 fields, got {blank % 2}"
    _assert_reads_as_the_reference(path)


def _with_row_field(tmp_path, field, value):
    """A 1200-row CSV whose row 1100 (line 1101) holds the bytes `value` in `field`."""
    ds = data.corrupt_instance_dependent(_uncorrupted(n=1200), 0.5, seed=6)
    path = tmp_path / "ds.csv"
    data.save_csv(ds, path)
    lines = path.read_bytes().split(b"\r\n")
    fields = lines[1100].split(b",")
    fields[{"x1": 1, "label": -6}[field]] = value
    lines[1100] = b",".join(fields)
    path.write_bytes(b"\r\n".join(lines))
    return path


def test_a_label_beyond_int64_is_a_parse_error(tmp_path, capsys):
    path = _with_row_field(tmp_path, "label", b"99999999999999999999")
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert str(err.value) == f"{path}:1101: label 99999999999999999999 is out of the int64 range"
    argv = ["train", "--dataset", str(path), "--method", "proden", "--epochs", "1"]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 2
    assert "1101: label 99999999999999999999 is out of the int64 range" in capsys.readouterr().err


def test_a_byte_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = _with_row_field(tmp_path, "x1", b"0.5\xe9")
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert str(err.value).startswith(f"{path}:1101: not UTF-8 (")
    assert "0xe9" in str(err.value)
    argv = ["train", "--dataset", str(path), "--method", "proden", "--epochs", "1"]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 2
    assert f"{path}:1101: not UTF-8" in capsys.readouterr().err


def test_manifest_checksum_matches_file(tmp_path):
    ds = data.corrupt_instance_dependent(_uncorrupted(n=30), 0.5, seed=10)
    csv_path = tmp_path / "ds.csv"
    digest = data.save_csv(ds, csv_path)
    assert digest == data.file_checksum(csv_path)
    manifest_path = tmp_path / "manifest.json"
    data.write_manifest(manifest_path, ds, digest, ambiguity=0.5, seed=10)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["checksum"] == data.file_checksum(csv_path)
    assert manifest["n"] == 30 and manifest["c"] == 5 and manifest["q"] == 2


# -- memory --------------------------------------------------------------------------

# Each stage holds its output plus temporaries of a bounded size.
MEM_ROWS = 200_000
ALLOWANCE = 4 * 2**20  # bytes of block temporaries and I/O buffers


def _traced(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _nbytes(ds):
    return sum(a.nbytes for a in _arrays(ds))


@pytest.fixture(scope="module")
def large_generation(tmp_path_factory):
    """The generate command's stages at MEM_ROWS rows, each traced on its own."""
    out = tmp_path_factory.mktemp("large")
    csv_path = out / "dataset.csv"
    peaks = {}
    ds, peaks["gen"] = _traced(data.gen_gaussian_mixture, 5, 2, MEM_ROWS, 2.5, 0)
    corrupted, peaks["corrupt"] = _traced(data.corrupt_instance_dependent, ds, 0.5, 0)
    _, peaks["validate"] = _traced(data.validate_dataset, corrupted)
    digest, peaks["save"] = _traced(data.save_csv, corrupted, csv_path)
    _, peaks["manifest"] = _traced(data.write_manifest, out / "manifest.json", corrupted, digest)
    return ds, corrupted, csv_path, peaks


def test_generation_memory_is_its_output_plus_blocks(large_generation):
    ds, _, _, peaks = large_generation
    # the uniform draw of the label rule is the one whole-length temporary
    assert peaks["gen"] <= _nbytes(ds) + 8 * MEM_ROWS + ALLOWANCE


def test_corruption_memory_is_its_output_plus_blocks(large_generation):
    ds, corrupted, _, peaks = large_generation
    # only the candidate masks are new; the other fields are the input's arrays
    assert peaks["corrupt"] <= corrupted.candidates.nbytes + ALLOWANCE
    for field in ("features", "true_labels", "posterior"):
        assert np.shares_memory(getattr(corrupted, field), getattr(ds, field))


@pytest.mark.parametrize("stage", ["validate", "save", "manifest"])
def test_validation_and_writing_hold_only_blocks(large_generation, stage):
    assert large_generation[3][stage] <= ALLOWANCE


def test_checksum_reads_the_file_in_chunks(large_generation):
    path = large_generation[2]
    digest, peak = _traced(data.file_checksum, path)
    assert peak <= ALLOWANCE
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_csv_loading_memory_is_its_output_plus_one_field(large_generation):
    loaded, peak = _traced(data.load_csv, large_generation[2])
    # joining a field's blocks holds them and the joined array at once
    largest_field = max(a.nbytes for a in _arrays(loaded))
    assert peak <= _nbytes(loaded) + largest_field + ALLOWANCE


def test_a_long_line_widens_the_csv_table_of_few_rows(tmp_path):
    # the bytes column of a table is as wide as its longest line
    ds, path = _with_long_candidates(tmp_path, n=1100, line=501)
    loaded, peak = _traced(data.load_csv, path)
    assert np.array_equal(loaded.candidates, ds.candidates)
    assert peak <= _nbytes(loaded) + ALLOWANCE + 8 * 140001


# -- splitting ----------------------------------------------------------------------

def test_split_sizes_exact_for_even_fractions():
    ds = data.corrupt_instance_dependent(_uncorrupted(n=1000), 0.5, seed=11)
    train, val, test = data.split(ds, data.SplitSpec(seed=0))
    assert (train.n, val.n, test.n) == (800, 100, 100)


def test_split_is_disjoint_and_deterministic():
    ds = data.corrupt_instance_dependent(_uncorrupted(n=500), 0.5, seed=12)
    a = data.split(ds, data.SplitSpec(seed=3))
    b = data.split(ds, data.SplitSpec(seed=3))
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.features, pb.features)
    seen = np.concatenate([p.features[:, 0] for p in a])
    assert seen.size == ds.n
    assert np.unique(seen).size == np.unique(ds.features[:, 0]).size


def test_split_stratification_within_one_of_ideal():
    ds = data.corrupt_instance_dependent(_uncorrupted(n=1000), 0.5, seed=13)
    parts = data.split(ds, data.SplitSpec(seed=1))
    for cls in range(ds.c):
        total = int((ds.true_labels == cls).sum())
        for part, frac in zip(parts, data.SPLIT_FRACTIONS):
            got = int((part.true_labels == cls).sum())
            assert abs(got - frac * total) <= 1.0


def test_split_handles_unlabeled_datasets():
    ds = data.corrupt_instance_dependent(_uncorrupted(n=200), 0.5, seed=14)
    unlabeled = data.PllDataset(ds.features, ds.candidates, None, None)
    train, val, test = data.split(unlabeled, data.SplitSpec(seed=0))
    assert (train.n, val.n, test.n) == (160, 20, 20)


def test_negative_seeds_are_config_errors():
    with pytest.raises(ConfigError, match="non-negative"):
        data.gen_gaussian_mixture(5, 2, 50, 2.5, seed=-1)
    with pytest.raises(ConfigError, match="non-negative"):
        data.split(_tiny_dataset(), data.SplitSpec(seed=-1))


@settings(max_examples=300, deadline=None)
@given(
    counts=st.lists(st.integers(1, 60), min_size=1, max_size=8),
    weights=st.tuples(*[st.integers(1, 20)] * 3),
)
def test_allocator_is_exact_over_random_class_profiles(counts, weights):
    fracs = tuple(w / sum(weights) for w in weights)
    alloc = data._allocate_stratified(counts, fracs)
    targets = data._largest_remainder(sum(counts), fracs)
    assert [sum(col) for col in zip(*alloc)] == targets
    for cnt, row in zip(counts, alloc):
        assert sum(row) == cnt
        for frac, got in zip(fracs, row):
            assert abs(got - frac * cnt) <= 1.0
