import hashbound.verify
from hashbound.verify import check_oracle_equivalence, run_verification


def test_default_battery_passes():
    checks = run_verification(seed=42)
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_battery_deterministic():
    a = run_verification(seed=7)
    b = run_verification(seed=7)
    assert a == b


def test_fault_injection_trips_oracle_check(monkeypatch):
    good = check_oracle_equivalence(6, 4, 200, seed=1)
    assert good.passed
    sep_batch = hashbound.verify.sep_batch
    monkeypatch.setattr(hashbound.verify, "sep_batch", lambda P, Q, j: sep_batch(P, Q, j) + 1e-6)
    bad = check_oracle_equivalence(6, 4, 200, seed=1)
    assert not bad.passed
