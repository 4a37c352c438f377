"""The cohort writer's bytes: pinned `generate` dumps and the vectorized
shortest-repr formatter checked against the f-string writer it replaced.

`reference_write_dataset_csv` is a copy of that old writer, kept here
as the reference: every float goes through `repr`, so any difference
from it is a formatting bug, not a rounding choice.
"""

import hashlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurweight import simgen
from recurweight.cli import main as run_cli
from recurweight.simgen import (
    DATASET_CSV_HEADER,
    SUBJECT_DTYPE,
    config_for,
    gen_dataset,
    write_dataset_csv,
)
from recurweight.statcore import RngStream

FLOAT_COLUMNS = ("x1", "x2", "w1", "w2")
FLAG_COLUMNS = ("z1", "z2", "delta1", "delta2")


def reference_write_dataset_csv(ds, fh):
    """The row-by-row f-string writer: the bytes `write_dataset_csv` must match."""
    fh.write(DATASET_CSV_HEADER + "\n")
    names = DATASET_CSV_HEADER.split(",")
    for start in range(0, len(ds), simgen.CSV_CHUNK_ROWS):
        part = ds[start:start + simgen.CSV_CHUNK_ROWS]
        fh.writelines(
            f"{x1!r},{x2!r},{z1},{z2},{w1!r},{w2!r},{d1},{d2}\n"
            for x1, x2, z1, z2, w1, w2, d1, d2 in zip(
                *(part[name].tolist() for name in names)
            )
        )


def written(writer, ds):
    buf = io.StringIO()
    writer(ds, buf)
    return buf.getvalue()


# sha256 of the stdout of `generate --n 3000 --target-hr 2 --seed 2027`,
# recorded with the f-string writer, one per numpy dispatch target of log
# and exp (see conftest); the drift scenarios' second gaps include values
# below 1e-4, which repr writes in scientific notation
GENERATE_DIGESTS = {
    ("independent", None): {
        "X86_V4": "a4bbbd61b8fc493bf63cc43dc80ed13439fb2902776c70572152369256335a75",
        "X86_V3": "bfabc5af3910cb5fa6f30d572cf0e7b3e25457f3f8769d7d9b36dcb241129633",
    },
    ("independent", "0.5"): {
        "X86_V4": "23d2667ead1d5353956ef0ba6ecfc312ad30f3a178cf2daf7a9ad6ecb2ecae36",
        "X86_V3": "c27cd9e847d5698bbd0559a5ed4814101cf3ae8a675903438f26d5174572b889",
    },
    ("tv-covariates", None): {
        "X86_V4": "95b9d3a56c8e91c21eae45982fb5f85eb4051a70e87010fd70e98f4e53bd4bc1",
        "X86_V3": "46db7866497d6c9d5d0cd6671a9d28c2086eadb1769288eac27c91ab7ae41837",
    },
    ("tv-covariates", "0.5"): {
        "X86_V4": "39b56596489af4b77293a74da2c78113601ed37e8d690986bc6b224574ebb84e",
        "X86_V3": "d8dfa5c361a9fc075e641278b6a61cd45710acf8555ad180907e6527d9acf0eb",
    },
    ("tv-treatment", None): {
        "X86_V4": "1977193ede25603016c442236d76f099a383e1b74ec638e17f75ede5d9a273dc",
        "X86_V3": "c44b0250b55e6ada35148bdf93495fc79ecb379c49b5367433a4356955871335",
    },
    ("tv-treatment", "0.5"): {
        "X86_V4": "ef86ab18b4dd6648cc109d17400b34f04d2e535603a4d47609dfad15c0372182",
        "X86_V3": "21f13e116c37d15dd89e89853267eafba97dc20415db02894ffc032e18d1ccdc",
    },
}


@pytest.mark.parametrize("scenario,tau", sorted(GENERATE_DIGESTS, key=str))
def test_generate_dump_matches_the_recorded_digest(capsys, pinned_digest, scenario, tau):
    argv = ["generate", "--scenario", scenario, "--n", "3000", "--target-hr", "2",
            "--seed", "2027"]
    if tau is not None:
        argv += ["--tau", tau]
    assert run_cli(argv) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == pinned_digest(
        GENERATE_DIGESTS[scenario, tau])
    if scenario != "independent":
        rows = [line.split(",") for line in text.splitlines()
                if not line.startswith(("#", "x1"))]
        assert any("e-05" in row[5] for row in rows)


def test_generate_across_block_boundaries_matches_the_recorded_digest(capsys, pinned_digest):
    # 40,000 rows are three generator blocks, the last one partial; the
    # X86_V4 digest was recorded from the whole-cohort dump
    assert run_cli(["generate", "--scenario", "tv-treatment", "--n", "40000",
                    "--target-hr", "2", "--seed", "2027", "--tau", "0.5"]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == pinned_digest({
        "X86_V4": "d1868e94cfc7388dd7fed8a7299c17b02d48ba89ac5d94dc6a19047daa96c907",
        "X86_V3": "669af3d8c356ac440f92403d6ef39dacc515a053fb444b4d8ed44522dd947607",
    })


def cohort_from(floats, flags):
    """A cohort whose four float columns take `floats` in row order."""
    floats = np.asarray(floats, dtype=float).reshape(-1, len(FLOAT_COLUMNS))
    ds = np.zeros(len(floats), dtype=SUBJECT_DTYPE)
    for i, name in enumerate(FLOAT_COLUMNS):
        ds[name] = floats[:, i]
    for i, name in enumerate(FLAG_COLUMNS):
        ds[name] = np.resize(np.asarray(flags, dtype=np.uint8), len(ds)) ^ (i & 1)
    return ds


def assert_writes_like_the_reference(values, flags=(0, 1, 1)):
    values = np.resize(np.asarray(values, dtype=float), -(-len(values) // 4) * 4)
    ds = cohort_from(values, flags)
    got = written(write_dataset_csv, (ds,)).splitlines()
    want = written(reference_write_dataset_csv, ds).splitlines()
    assert len(got) == len(want)
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, bad[:3]


POWERS_OF_TWO = np.ldexp(1.0, np.arange(-20, 60))
# the positional range's ends, the first whole numbers above 2^53 and
# values whose 17th digit is an exact tie (repr rounds those half-even)
BOUNDARIES = np.array([
    1e16, 1e-4, 1e-5, 9999999999999998.0, 2.0**53 + 2, 2.0**53 + 6,
    1234567890123456.25, 1234567890123456.75, 123456789012345.375, 0.1, 0.3,
])
EDGE_VALUES = np.concatenate([
    [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308],
    POWERS_OF_TWO,
    BOUNDARIES,
    np.nextafter(BOUNDARIES, 0.0),
    np.nextafter(BOUNDARIES, np.inf),
    np.nextafter(POWERS_OF_TWO, 0.0),
    np.nextafter(POWERS_OF_TWO, np.inf),
    np.arange(1, 64) / 2.0,
])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(1e-4, 1e16),
            st.sampled_from(EDGE_VALUES.tolist()),
        ),
        min_size=1,
        max_size=48,
    ),
    st.lists(st.integers(0, 1), min_size=1, max_size=7),
    st.booleans(),
)
def test_chunk_bytes_equal_the_reference_writer(values, flags, negate):
    if negate:
        values = [-x for x in values]
    assert_writes_like_the_reference(values, flags)


def test_edge_values_and_their_negatives_write_like_the_reference():
    assert_writes_like_the_reference(np.concatenate([EDGE_VALUES, -EDGE_VALUES]))


def test_short_decimals_and_their_neighbours_write_like_the_reference():
    short = np.array([float(f"{d}e{x}") for d in range(1, 200, 3) for x in range(-6, 17)])
    assert_writes_like_the_reference(
        np.concatenate([short, np.nextafter(short, 0.0), np.nextafter(short, np.inf)])
    )


def test_random_bit_patterns_write_like_the_reference():
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    # random significands across repr's positional range and past both ends
    scaled = np.ldexp(rng.random(100_000) + 0.5, rng.integers(-16, 57, 100_000))
    assert_writes_like_the_reference(
        np.concatenate([values[np.isfinite(values)], scaled, -scaled[:1000]])
    )


def test_the_kernel_leaves_what_it_cannot_certify_to_repr():
    _, _, _, certified = simgen._shortest_digits(
        np.concatenate([POWERS_OF_TWO, [0.0, -0.0, 5e-324, 9.9e-5, 1e16, np.inf, np.nan]])
    )
    assert not certified.any()
    # exact ties at the 17th digit and exact interval edges above 2^53
    _, _, _, certified = simgen._shortest_digits(
        np.array([1234567890123456.75, 123456789012345.375, 2.0**53 + 18])
    )
    assert not certified.any()


def test_values_at_the_integer_slot_cutoff_write_like_the_reference():
    # the float block has 4 integer slots; from 10^4 up repr writes the value
    cutoff = [np.nextafter(1e4, 0.0), 1e4, 9999.5, -9999.999999999998,
              99.99999999999999, 1000.0, 1e4 + 0.5, 12345.678]
    # four integer digits that the kernel, not repr, writes
    four_digits = [1234.5678901234, -9876.54321, 9999.123, 1000.0000000000001]
    _, _, _, certified = simgen._shortest_digits(np.array(cutoff + four_digits))
    assert not certified[[1, 6, 7]].any()
    assert certified[len(cutoff):].all()
    assert_writes_like_the_reference(cutoff + four_digits)


def test_the_longest_reprs_fit_the_float_block():
    longest = [-2.2250738585072014e-308, -1.7976931348623157e+308]
    assert [len(repr(x)) for x in longest] == [24, 24]
    assert 24 <= simgen._FLOAT_SLOTS
    assert_writes_like_the_reference(longest)


def test_cohort_values_are_almost_all_certified():
    # the kernel, not repr, must format a generated cohort: values it cannot
    # certify, those at or above the integer-slot cutoff among them, stay
    # below 1% of each column
    ds = gen_dataset(config_for(3, 0.25, 20_000, beta_c=0.783), RngStream(7))
    for name in FLOAT_COLUMNS:
        _, _, _, certified = simgen._shortest_digits(ds[name])
        assert certified.mean() > 0.99
        assert (np.abs(ds[name]) >= simgen._CUTOFF).mean() < 0.01


class NullHandle:
    def write(self, text):
        pass


def writer_peak_bytes(n):
    ds = gen_dataset(config_for(3, 0.25, n, beta_c=0.783), RngStream(7))
    tracemalloc.start()
    try:
        write_dataset_csv((ds,), NullHandle())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_is_bounded_by_the_chunk():
    # measured at 1.27 MB for 2,048-row chunks: the slot matrix and mask,
    # the chunk's four float columns and the kernel's arrays over them
    small, large = writer_peak_bytes(20_000), writer_peak_bytes(200_000)
    assert large < 1.1 * small
    assert large < 1.4e6


def generate_peak_bytes(n, path):
    argv = ["generate", "--scenario", "tv-treatment", "--n", str(n), "--target-hr", "2",
            "--tau", "0.5", "--out", str(path)]
    tracemalloc.start()
    try:
        assert run_cli(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_memory_does_not_grow_with_the_cohort(tmp_path):
    # generate holds one generator block and one writer chunk, not the
    # cohort, whose 200,000 rows alone take 7.2 MB
    generate_peak_bytes(1_000, tmp_path / "warm.csv")
    small = generate_peak_bytes(20_000, tmp_path / "small.csv")
    large = generate_peak_bytes(200_000, tmp_path / "large.csv")
    assert large < 1.1 * small
    assert large < 3e6


def test_chunked_dump_equals_the_reference_on_a_cohort(monkeypatch):
    # 1,000 rows are not a multiple of the 96-row chunks, and 97 rows end
    # in a one-row chunk
    monkeypatch.setattr(simgen, "CSV_CHUNK_ROWS", 96)
    ds = gen_dataset(config_for(2, 0.5, 1_000, beta_c=0.46, tau=0.5), RngStream(11))
    for part in (ds, ds[:97]):
        assert written(write_dataset_csv, (part,)) == written(reference_write_dataset_csv, part)
    assert written(write_dataset_csv, (ds[:0],)) == DATASET_CSV_HEADER + "\n"
