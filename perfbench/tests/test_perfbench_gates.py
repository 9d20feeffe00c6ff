import copy
import math

import numpy as np
import pytest

import gates

GOOD_ANALYSIS = dict(gates.DIVERGENCE_REFERENCE, status="applicable",
                     envelope=[5.0, 2.0, 1.0], recurrence=[6.0, 3.0, 1.5])
GOOD_D = np.array([6.0, 2.0, 0.5])


def test_divergence_gate_accepts_reference_values():
    assert gates.gate_divergence(GOOD_D, GOOD_ANALYSIS) == []


@pytest.mark.parametrize("corrupt", [
    lambda d, a: d.__setitem__(1, math.nan),
    lambda d, a: a["envelope"].__setitem__(0, math.nan),
    lambda d, a: d.__setitem__(-1, 0.7),
    lambda d, a: a.__setitem__("status", "inapplicable: eps1 >= A"),
    lambda d, a: a.__setitem__("K0", 2),
    lambda d, a: a.__setitem__("eps3", a["eps3"] * (1 + 1e-6)),
])
def test_divergence_gate_rejects_corrupted_outputs(corrupt):
    d, analysis = GOOD_D.copy(), copy.deepcopy(GOOD_ANALYSIS)
    corrupt(d, analysis)
    assert gates.gate_divergence(d, analysis)


def test_rising_gate():
    f = np.array([[-100.0, -50.0], [-120.0, -60.0]])
    se = np.full_like(f, 2.0)
    assert gates.gate_rising("learner", f, se) == []
    assert gates.gate_rising("learner", f[:, ::-1], se)
    f_nan = f.copy()
    f_nan[0, 1] = math.nan
    assert gates.gate_rising("learner", f_nan, se)
    assert gates.gate_rising("learner", f, np.full_like(f, 1e3))


def test_wide_gate():
    rng = np.random.default_rng(0)
    n_active = rng.poisson(10.0, size=(10, 26))
    assert gates.gate_wide(np.array([6.0, 2.7]), n_active, 10.0, 1000) == []
    assert gates.gate_wide(np.array([6.0, 3.1]), n_active, 10.0, 1000)
    assert gates.gate_wide(np.array([6.0, math.nan]), n_active, 10.0, 1000)
    assert gates.gate_wide(np.array([6.0, 2.7]), n_active + 2, 10.0, 1000)


def test_capped_poisson_mean():
    assert gates.expected_capped_poisson(10.0, 1000) == pytest.approx(10.0, rel=1e-12)
    # min(X, 1) = 1 - P(X = 0)
    assert gates.expected_capped_poisson(2.0, 1) == pytest.approx(1 - math.exp(-2.0))


def test_single_gate():
    header = list(gates.TRAJECTORY_HEADER)
    assert gates.gate_single(0, header, [1.0, -11.9], -12.0, 12.0) == []
    assert gates.gate_single(0, header, [1.0, 13.0], -12.0, 12.0)
    assert gates.gate_single(0, header, [1.0, math.nan], -12.0, 12.0)
    assert gates.gate_single(0, header, [], -12.0, 12.0)
    assert gates.gate_single(3, header, [1.0], -12.0, 12.0)
    assert gates.gate_single(0, header[:-1], [1.0], -12.0, 12.0)


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_check_reads_power_single_outputs(tmp_path):
    configs = {"config": {"bounds": {"lower": -12.0, "upper": 12.0}}}
    write(tmp_path / "trajectory.csv", ",".join(gates.TRAJECTORY_HEADER) + "\n0,1,,,,2\n")
    trace = "k,node,delta,ell,a,a_hat,f_tilde,beta,gamma,phi\n1,3,1,1,0.5,{},1.0,0.1,1.0,1.0\n"
    write(tmp_path / "trace_rep000.csv", trace.format("10.5"))
    assert gates.check("power-single", configs, str(tmp_path), {"rc": 0}) == []
    write(tmp_path / "trace_rep000.csv", trace.format("12.5"))
    assert gates.check("power-single", configs, str(tmp_path), {"rc": 0})


def test_digest_mismatch_is_reported(tmp_path):
    for run in ("a", "b", "c"):
        write(tmp_path / run / "trajectory.csv", "k\n1\n")
        write(tmp_path / run / "sub" / "trace.csv", "x\n2\n")
    write(tmp_path / "c" / "sub" / "trace.csv", "x\n3\n")
    digests = [gates.output_digest(tmp_path / run) for run in ("a", "b", "c")]
    assert digests[0] == digests[1]
    assert gates.gate_digests(digests) == [2]
