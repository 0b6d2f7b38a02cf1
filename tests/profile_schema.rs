//! One rule set for device floats: the profile parser and
//! `NpuConfigBuilder::build` apply the same rule to each float key, and
//! each error names the key.

use dvfs_repro::sim::profile::ASCEND_910_TOML;
use dvfs_repro::sim::{ConfigError, DeviceProfile, NpuConfig, NpuConfigBuilder, ProfileError};

#[derive(Debug, Clone, Copy)]
enum Rule {
    Positive,
    NonNegative,
    UnitRange,
    PositiveUnitRange,
    Finite,
}

/// Every float key of a profile with its rule, listed here rather than
/// read from the parser so the two can be compared.
const KEYS: [(&str, Rule); 21] = [
    ("ld_bytes_per_cycle", Rule::Positive),
    ("st_bytes_per_cycle", Rule::Positive),
    ("l2_bw_bytes_per_us", Rule::Positive),
    ("hbm_bw_bytes_per_us", Rule::Positive),
    ("mem_overhead_us", Rule::NonNegative),
    ("hbm_pj_per_byte", Rule::NonNegative),
    ("setfreq_latency_us", Rule::NonNegative),
    ("beta_w_per_ghz_v2", Rule::Positive),
    ("theta_w_per_v", Rule::Positive),
    ("gamma_aicore_w_per_k_v", Rule::Positive),
    ("gamma_soc_w_per_k_v", Rule::Positive),
    ("uncore_idle_w", Rule::Positive),
    ("uncore_theta_w_per_v", Rule::Positive),
    ("uncore_dynamic_fraction", Rule::UnitRange),
    ("uncore_min_scale", Rule::PositiveUnitRange),
    ("ambient_c", Rule::Finite),
    ("k_c_per_w", Rule::NonNegative),
    ("tau_us", Rule::Positive),
    ("exec_sd", Rule::NonNegative),
    ("power_sd", Rule::NonNegative),
    ("temp_sd_c", Rule::NonNegative),
];

/// Profile spellings of values that break `rule`, each with the error
/// variant it must produce. `1e400` overflows to infinity.
fn breaking(rule: Rule) -> Vec<(&'static str, &'static str)> {
    match rule {
        Rule::Positive => vec![
            ("0.0", "NonPositive"),
            ("-1.0", "NonPositive"),
            ("1e400", "NonPositive"),
        ],
        Rule::NonNegative => vec![("-1.0", "Negative"), ("1e400", "Negative")],
        Rule::UnitRange => vec![
            ("-0.5", "OutOfUnitRange"),
            ("1.5", "OutOfUnitRange"),
            ("1e400", "OutOfUnitRange"),
        ],
        Rule::PositiveUnitRange => vec![("0.0", "NonPositive"), ("1.5", "OutOfUnitRange")],
        Rule::Finite => vec![("1e400", "Type"), ("-1e400", "Type")],
    }
}

/// The builder's route to a float key, where a setter reaches it.
fn setter(key: &str) -> Option<fn(NpuConfigBuilder, f64) -> NpuConfigBuilder> {
    Some(match key {
        "mem_overhead_us" => NpuConfigBuilder::mem_overhead_us,
        "setfreq_latency_us" => NpuConfigBuilder::setfreq_latency_us,
        "k_c_per_w" => NpuConfigBuilder::thermal_coupling,
        "tau_us" => NpuConfigBuilder::thermal_tau_us,
        "exec_sd" => |b, v| b.noise(v, 0.0, 0.0),
        "power_sd" => |b, v| b.noise(0.0, v, 0.0),
        "temp_sd_c" => |b, v| b.noise(0.0, 0.0, v),
        _ => return None,
    })
}

#[test]
fn parser_and_builder_apply_one_rule_per_float_key() {
    let mut with_setter = Vec::new();
    for (key, rule) in KEYS {
        let prefix = format!("{key} = ");
        let lines: Vec<&str> = ASCEND_910_TOML.lines().collect();
        let idx = lines
            .iter()
            .position(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("{key} is not in the shipped profile"));
        let line = idx + 1;
        for (bad, variant) in breaking(rule) {
            let mut edited = lines.clone();
            let replacement = format!("{prefix}{bad}");
            edited[idx] = &replacement;
            let err = DeviceProfile::parse(&edited.join("\n")).unwrap_err();
            let named = match &err {
                ProfileError::NonPositive { line: l, key: k } if variant == "NonPositive" => {
                    (*l, k)
                }
                ProfileError::Negative { line: l, key: k } if variant == "Negative" => (*l, k),
                ProfileError::OutOfUnitRange { line: l, key: k } if variant == "OutOfUnitRange" => {
                    (*l, k)
                }
                ProfileError::Type {
                    line: l,
                    key: k,
                    expected: "a finite number",
                } if variant == "Type" => (*l, k),
                other => panic!("{key} = {bad}: expected {variant}, got {other:?}"),
            };
            assert_eq!(named, (line, &key.to_owned()), "{key} = {bad}");

            let Some(set) = setter(key) else { continue };
            with_setter.push(key);
            let value: f64 = bad.parse().unwrap();
            let err = set(NpuConfig::builder(), value).build().unwrap_err();
            let expected = match variant {
                "NonPositive" => ConfigError::NonPositive(key),
                "Negative" => ConfigError::Negative(key),
                "OutOfUnitRange" => ConfigError::OutOfUnitRange(key),
                _ => ConfigError::NonFinite(key),
            };
            assert_eq!(err, expected, "builder: {key} = {bad}");
        }
    }
    with_setter.dedup();
    assert_eq!(with_setter.len(), 7, "{with_setter:?}");
}

#[test]
fn builder_rejects_nan_and_infinite_values() {
    let cases = [
        (
            NpuConfig::builder().setfreq_latency_us(f64::NAN),
            ConfigError::Negative("setfreq_latency_us"),
        ),
        (
            NpuConfig::builder().mem_overhead_us(f64::NAN),
            ConfigError::Negative("mem_overhead_us"),
        ),
        (
            NpuConfig::builder().noise(f64::NAN, 0.0, 0.0),
            ConfigError::Negative("exec_sd"),
        ),
        (
            NpuConfig::builder().noise(0.0, f64::NAN, 0.0),
            ConfigError::Negative("power_sd"),
        ),
        (
            NpuConfig::builder().noise(0.0, 0.0, f64::NAN),
            ConfigError::Negative("temp_sd_c"),
        ),
        (
            NpuConfig::builder().thermal_tau_us(f64::INFINITY),
            ConfigError::NonPositive("tau_us"),
        ),
        (
            NpuConfig::builder().thermal_tau_us(f64::NAN),
            ConfigError::NonPositive("tau_us"),
        ),
        (
            NpuConfig::builder().thermal_coupling(f64::NAN),
            ConfigError::Negative("k_c_per_w"),
        ),
    ];
    for (builder, expected) in cases {
        assert_eq!(builder.build().unwrap_err(), expected);
    }
}
