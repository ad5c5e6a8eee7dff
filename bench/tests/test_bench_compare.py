from compare import digest_mismatches, verdict


def test_verdicts_against_the_bound():
    a = [10.0, 10.1, 9.9, 10.0]
    assert verdict(a, [10.2, 10.1, 10.3, 10.2], "lower", 0.05)[0] == "same"
    assert verdict(a, [11.0, 11.1, 10.9, 11.0], "lower", 0.05)[0] == "worse"
    assert verdict(a, [9.0, 9.1, 8.9, 9.0], "lower", 0.05)[0] == "better"
    assert verdict(a, [9.0, 9.1, 8.9, 9.0], "higher", 0.05)[0] == "worse"


def test_wide_spread_is_unresolved_unless_b_always_wins():
    a = [8.0, 10.0, 12.0, 14.0]
    assert verdict(a, [9.0, 11.0, 13.0, 15.0], "lower", 0.05)[0] \
        == "unresolved"
    assert verdict(a, [4.0, 5.0, 6.0, 7.0], "lower", 0.05)[0] == "better"


def test_digests_must_agree_per_workload_and_seed():
    a = [{"workload": "w", "seed": 1, "digest": "x"}]
    assert digest_mismatches(a, [{"workload": "w", "seed": 1,
                                  "digest": "x"}]) == []
    assert digest_mismatches(a, [{"workload": "w", "seed": 2,
                                  "digest": "y"}]) == []
    assert len(digest_mismatches(a, [{"workload": "w", "seed": 1,
                                      "digest": "y"}])) == 1
