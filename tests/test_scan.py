import csv

import numpy as np
import pytest

from chemofront.kernels import ChemoParams, KernelSpec
from chemofront.scan import (
    FAILURE_FLAGS,
    RegimeRecord,
    ScanConfig,
    fast_predicate,
    records_to_csv,
    run_scan,
    sandwich_table,
    slow_predicate,
    write_scan_csv,
)
from chemofront.slab import SlabConfig, fixed_point

EXP = KernelSpec("exp")


def make_record(**kwargs):
    defaults = dict(
        chi=-0.05,
        sigma=1.0,
        kernel="exp",
        a=60.0,
        dx=0.05,
        c_slab=2.0,
        slow_pred=slow_predicate(-0.05, 1.0),
        fast_pred=fast_predicate(-0.05, 1.0),
    )
    defaults.update(kwargs)
    rec = RegimeRecord(**defaults)
    from chemofront.scan import _classify

    rec.classification = _classify(rec)
    return rec


def test_predicates():
    assert slow_predicate(-0.05, 1.0) == pytest.approx(0.1)
    assert slow_predicate(-0.05, 0.5) == pytest.approx(0.05 * (2.0 + 0.25))
    assert fast_predicate(-10.0, 200.0) == pytest.approx(20.0)
    assert fast_predicate(0.0, 1.0) == np.inf


def test_classification_rules():
    # slow is the certificate's verdict: it applied (a lambda_cert) and passed
    assert make_record(lambda_cert=0.05).classification == "slow"
    # a failed certificate, or none at all, gives no label from the slow hypothesis
    assert make_record(lambda_cert=-1.0, flags=["certificate-failed"]).classification == "intermediate"
    assert make_record().classification == "intermediate"
    assert make_record(c_slab=None, c_evolve=2.0).classification == "intermediate"
    # example cell from the fast hypothesis
    fast = make_record(
        chi=-10.0,
        sigma=200.0,
        c_slab=None,
        c_evolve=4.8,
        slow_pred=slow_predicate(-10.0, 200.0),
        fast_pred=fast_predicate(-10.0, 200.0),
    )
    assert fast.classification == "fast"
    # fast hypothesis needs chi < 0
    not_fast = make_record(
        chi=0.3,
        sigma=200.0,
        c_slab=5.0,
        slow_pred=slow_predicate(0.3, 200.0),
        fast_pred=fast_predicate(0.3, 200.0),
    )
    assert not_fast.classification == "intermediate"
    assert make_record(c_slab=None).classification == "skipped"


def test_config_validation():
    with pytest.raises(ValueError):
        ScanConfig((0.0,), (1.0,), EXP, mode="other")
    with pytest.raises(ValueError):
        ScanConfig((0.0,), (1.0,), EXP, workers=0)
    # a slab grid is refused before any cell runs, by the checks `SlabConfig` makes
    for mode in ("slab", "both"):
        with pytest.raises(ValueError, match="dx = 0.0 must be positive and finite"):
            ScanConfig((0.0,), (1.0,), EXP, mode=mode, slab_dx=0.0)
        with pytest.raises(ValueError, match="half-length a = 10.0 must be finite and at least 20"):
            ScanConfig((0.0,), (1.0,), EXP, mode=mode, slab_a=10.0)
        with pytest.raises(ValueError, match=r"a = 60\.03 is not a whole number of dx = 0\.05 steps"):
            ScanConfig((0.0,), (1.0,), EXP, mode=mode, slab_a=60.03)
    # an evolve scan solves no slab, so it reads neither flag
    ScanConfig((0.0,), (1.0,), EXP, mode="evolve", slab_a=10.0, slab_dx=0.0)


@pytest.fixture(scope="module")
def small_scan():
    config = ScanConfig(
        chi_values=(-0.05, 0.0),
        sigma_values=(1.0,),
        spec=EXP,
        slab_a=40.0,
    )
    return config, run_scan(config)


def test_scan_matches_single_slab(small_scan):
    config, records = small_scan
    assert len(records) == 2
    direct = fixed_point(
        SlabConfig(a=40.0, params=ChemoParams(-0.05, 1.0), spec=EXP)
    )
    rec = records[0]
    assert rec.chi == -0.05
    assert rec.c_slab == pytest.approx(direct.c, abs=1e-9)
    # the certificate does not apply at a = 40 < 60, so the cell is not labelled slow
    assert rec.lambda_cert is None
    assert rec.classification == "intermediate"


def test_scan_is_deterministic(small_scan):
    config, records = small_scan
    again = run_scan(config)
    assert records_to_csv(records) == records_to_csv(again)


def test_scan_order_is_canonical():
    config = ScanConfig(
        chi_values=(0.0, -0.05),  # deliberately unsorted
        sigma_values=(1.0,),
        spec=EXP,
        slab_a=40.0,
    )
    records = run_scan(config)
    assert [(r.chi, r.sigma) for r in records] == [(-0.05, 1.0), (0.0, 1.0)]


def test_scan_skips_invalid_cells():
    config = ScanConfig(
        chi_values=(0.4,),
        sigma_values=(0.5,),  # chi/sigma = 0.8 violates the standing assumption
        spec=EXP,
        slab_a=40.0,
    )
    records = run_scan(config)
    assert records[0].classification == "skipped"
    assert any("standing-assumption" in f for f in records[0].flags)
    assert records[0].c is None


def test_scan_flags_unconverged_slab_solve(capped_slab_newton):
    config = ScanConfig(chi_values=(0.0,), sigma_values=(1.0,), spec=EXP)
    (record,) = run_scan(config)
    assert record.flags == ["slab-not-converged"]
    assert record.classification == "skipped"


def test_scan_skips_a_cell_whose_slab_refuses_theta():
    # no theta is admissible once |chi|/sigma >= 1/2: SlabConfig refuses the
    # cell before any solve, and with no evolve speed it has no label
    (record,) = run_scan(ScanConfig((-20.0,), (1.0,), EXP))
    [flag] = record.flags
    assert flag.startswith("slab-error: theta must lie")
    assert record.classification == "skipped"


def test_scan_flags_a_wave_that_fails_the_bounds_check():
    # a strongly repulsive wave on a slab short against its kernel: it
    # converges, but its mean over [-a, -a + 5] is 0.064 below the left limit 1
    config = ScanConfig(chi_values=(-20.0,), sigma_values=(50.0,), spec=EXP)
    (record,) = run_scan(config)
    assert record.c_slab is not None
    assert record.flags == ["slab-bounds-failed: left-plateau"]
    assert record.flags[0].startswith(FAILURE_FLAGS)


def test_sandwich_table(small_scan):
    _, records = small_scan
    table = sandwich_table(records)
    for row in table:
        assert row["passed"], row
        expected_upper = 2.0 * np.sqrt(1.0 + abs(row["chi"]) / row["sigma"]) + abs(row["chi"]) / 2.0
        assert row["upper"] == pytest.approx(expected_upper)
        assert row["lower"] == 2.0
    # the closed-form upper bound at chi = -10, sigma = 10, which c = 8 exceeds
    rec = make_record(chi=-10.0, sigma=10.0, c_slab=8.0)
    row = sandwich_table([rec])[0]
    assert row["upper"] == pytest.approx(2.0 * np.sqrt(2.0) + 5.0)
    assert not row["passed"]
    # a record with no speed gets no bound (its sigma may be one the model refuses)
    row = sandwich_table([make_record(sigma=0.0, c_slab=None, slow_pred=None, fast_pred=None)])[0]
    assert row["upper"] is None and not row["passed"]
    with pytest.raises(ValueError):
        sandwich_table([])


def test_csv_round_trip(tmp_path, small_scan):
    _, records = small_scan
    text = records_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == (
        "chi,sigma,kernel,a,dx,c_slab,c_evolve,lambda_cert,slow_pred,fast_pred,classification,flags"
    )
    assert len(lines) == len(records) + 1
    # 17-digit floats survive a parse round trip bitwise
    first = lines[1].split(",")
    assert float(first[0]) == records[0].chi
    assert float(first[5]) == records[0].c_slab
    path = tmp_path / "scan.csv"
    write_scan_csv(records, path)
    assert path.read_text() == text


def test_csv_quotes_a_flag_holding_a_comma():
    # a refused theta's message holds a comma: it stays one field, and rows
    # without a comma are written as the fields joined by commas
    flag = "slab-error: theta must lie in (0, -1.85714) for these parameters"
    plain = make_record()
    refused = make_record(chi=-20.0, c_slab=None)
    refused.flags = [flag, "skipped"]
    text = records_to_csv([plain, refused])
    header, *rows = list(csv.reader(text.splitlines()))
    assert [len(row) for row in rows] == [len(header), len(header)]
    assert rows[1][-1] == flag + ";skipped"
    assert text.splitlines()[1] == ",".join(rows[0])


def test_parallel_scan_matches_serial(small_scan):
    config, records = small_scan
    from dataclasses import replace

    parallel = run_scan(replace(config, workers=2))
    assert records_to_csv(parallel) == records_to_csv(records)
