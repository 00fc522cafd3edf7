"""Table 1: summary of power-management features per platform.

Regenerates the feature table from the live platform descriptors and
asserts the paper's documented values.

Checks DESIGN §4 row Table 1.
"""

from repro.experiments.tables import table1_features, table2_rows, table3_rows


def test_table1_feature_summary(regen):
    rows = regen(
        lambda: {
            name: table1_features(name) for name in ("skylake", "ryzen")
        }
    )
    skylake = rows["skylake"]
    assert skylake["cores"] == 10
    assert skylake["threads"] == 20
    assert skylake["dram_gb"] == 192
    assert skylake["dvfs_step_mhz"] == 100.0
    assert skylake["rapl_capping"] == "20-85 W"
    assert skylake["per_core_dvfs"] is True
    assert skylake["per_core_power_telemetry"] is False
    assert skylake["freq_range_ghz"] == "0.8-2.2 + 3.0 boost"

    ryzen = rows["ryzen"]
    assert ryzen["cores"] == 8
    assert ryzen["threads"] == 16
    assert ryzen["dram_gb"] == 16
    assert ryzen["dvfs_step_mhz"] == 25.0
    assert ryzen["simultaneous_pstates"] == 3
    assert ryzen["rapl_capping"] == "none"
    assert ryzen["per_core_power_telemetry"] is True
    assert ryzen["freq_range_ghz"] == "0.4-3.4 + 3.8 boost"


def test_table2_and_table3_consistency(regen):
    tables = regen(lambda: (table2_rows(), table3_rows()))
    table2, table3 = tables
    # Table 2: five mixes covering all ten cores each
    assert len(table2) == 5
    for row in table2:
        assert sum(v for k, v in row.items() if k != "mix") == 10
    # Table 3: the two five-app sets from the paper
    assert len(table3) == 2
    assert table3[0]["app0"] == "deepsjeng"
    assert table3[1]["app4"] == "lbm"
