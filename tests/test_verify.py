import hashbound.verify
from hashbound.verify import check_oracle_equivalence, run_verification


def _trimmed(seed=42):
    return run_verification(
        seed=seed,
        naive_count=300,
        lemma_count=1500,
        eta_count=10000,
        dominance_count=4000,
    )


def test_default_battery_passes():
    checks = _trimmed()
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_battery_deterministic():
    a = _trimmed(seed=7)
    b = _trimmed(seed=7)
    assert a == b


def test_fault_injection_trips_oracle_check(monkeypatch):
    good = check_oracle_equivalence(6, 4, 200, seed=1)
    assert good.passed
    sep_batch = hashbound.verify.sep_batch
    monkeypatch.setattr(hashbound.verify, "sep_batch", lambda P, Q, j: sep_batch(P, Q, j) + 1e-6)
    bad = check_oracle_equivalence(6, 4, 200, seed=1)
    assert not bad.passed
