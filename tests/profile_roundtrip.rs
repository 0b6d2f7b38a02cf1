//! Property tests for the device-profile text format: parse →
//! serialize → parse must be a bit-exact fixed point for *any* valid
//! profile, not just the three checked-in ones, and non-finite floats
//! must be unrepresentable in the grammar.

use dvfs_repro::sim::{DeviceProfile, NpuConfig, ProfileError};
use proptest::prelude::*;

/// All f64-typed physics fields of a config, as raw bit patterns, so
/// comparisons catch even sub-ULP drift through the text format.
fn bits(c: &NpuConfig) -> Vec<u64> {
    [
        c.ld_bytes_per_cycle_per_core,
        c.st_bytes_per_cycle_per_core,
        c.l2_bw_bytes_per_us,
        c.hbm_bw_bytes_per_us,
        c.mem_overhead_us,
        c.beta_w_per_ghz_v2,
        c.theta_w_per_v,
        c.gamma_aicore_w_per_k_v,
        c.gamma_soc_w_per_k_v,
        c.uncore_idle_w,
        c.uncore_theta_w_per_v,
        c.uncore_dynamic_fraction,
        c.uncore_min_scale,
        c.hbm_pj_per_byte,
        c.ambient_c,
        c.k_c_per_w,
        c.thermal_tau_us,
        c.setfreq_latency_us,
        c.exec_noise_sd,
        c.power_noise_sd,
        c.temp_noise_sd_c,
        c.voltage_curve.base_volts(),
        c.voltage_curve.slope_v_per_mhz(),
    ]
    .map(f64::to_bits)
    .to_vec()
}

/// Renders a profile text from raw generated values, exactly as a human
/// author would: `{:?}` prints every f64 in its shortest round-trip
/// form, which `f64::from_str` is guaranteed to read back bit-exactly.
#[allow(clippy::too_many_arguments)]
fn render(
    name: &str,
    count: u32,
    ladder: &[u32],
    knee: u32,
    pipelines: &[&str],
    floats: &ProfileFloats,
) -> String {
    let points = ladder
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let pipes = pipelines
        .iter()
        .map(|p| format!("\"{p}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let f = floats;
    format!(
        "schema = 1\n\
         [device]\n\
         name = \"{name}\"\n\
         description = \"generated\"\n\
         [cores]\n\
         count = {count}\n\
         pipelines = [{pipes}]\n\
         ld_bytes_per_cycle = {ld:?}\n\
         st_bytes_per_cycle = {st:?}\n\
         [memory]\n\
         l2_bw_bytes_per_us = {l2:?}\n\
         hbm_bw_bytes_per_us = {hbm:?}\n\
         mem_overhead_us = {t0:?}\n\
         hbm_pj_per_byte = {pj:?}\n\
         [frequency]\n\
         points_mhz = [{points}]\n\
         setfreq_latency_us = {sf:?}\n\
         [voltage]\n\
         base_v = {bv:?}\n\
         knee_mhz = {knee}\n\
         slope_v_per_mhz = {sl:?}\n\
         [power]\n\
         beta_w_per_ghz_v2 = {beta:?}\n\
         theta_w_per_v = {theta:?}\n\
         gamma_aicore_w_per_k_v = {ga:?}\n\
         gamma_soc_w_per_k_v = {gs:?}\n\
         uncore_idle_w = {ui:?}\n\
         uncore_theta_w_per_v = {ut:?}\n\
         uncore_dynamic_fraction = {ud:?}\n\
         uncore_min_scale = {um:?}\n\
         [thermal]\n\
         ambient_c = {amb:?}\n\
         k_c_per_w = {k:?}\n\
         tau_us = {tau:?}\n\
         [noise]\n\
         exec_sd = {ex:?}\n\
         power_sd = {pw:?}\n\
         temp_sd_c = {tp:?}\n",
        ld = f.ld,
        st = f.st,
        l2 = f.l2,
        hbm = f.hbm,
        t0 = f.t0,
        pj = f.pj,
        sf = f.sf,
        bv = f.bv,
        sl = f.sl,
        beta = f.beta,
        theta = f.theta,
        ga = f.ga,
        gs = f.gs,
        ui = f.ui,
        ut = f.ut,
        ud = f.ud,
        um = f.um,
        amb = f.amb,
        k = f.k,
        tau = f.tau,
        ex = f.ex,
        pw = f.pw,
        tp = f.tp,
    )
}

#[derive(Debug, Clone)]
struct ProfileFloats {
    ld: f64,
    st: f64,
    l2: f64,
    hbm: f64,
    t0: f64,
    pj: f64,
    sf: f64,
    bv: f64,
    sl: f64,
    beta: f64,
    theta: f64,
    ga: f64,
    gs: f64,
    ui: f64,
    ut: f64,
    ud: f64,
    um: f64,
    amb: f64,
    k: f64,
    tau: f64,
    ex: f64,
    pw: f64,
    tp: f64,
}

// The vendored proptest caps tuple strategies at arity 10, so the 23
// float fields are drawn by three nested composes.
prop_compose! {
    fn arb_mem_floats()(
        ld in 0.5f64..4096.0,
        st in 0.5f64..4096.0,
        l2 in 1e3f64..1e8,
        hbm in 1e3f64..1e8,
        t0 in 0.0f64..10.0,
        pj in 0.0f64..200.0,
        sf in 0.0f64..1e5,
    ) -> (f64, f64, f64, f64, f64, f64, f64) {
        (ld, st, l2, hbm, t0, pj, sf)
    }
}

prop_compose! {
    fn arb_power_floats()(
        bv in 0.05f64..2.5,
        sl in 0.0f64..0.01,
        beta in 1e-3f64..100.0,
        theta in 1e-3f64..100.0,
        ga in 1e-3f64..10.0,
        gs in 1e-3f64..10.0,
        ui in 1e-3f64..500.0,
        ut in 1e-3f64..500.0,
        ud in 0.01f64..1.0,
        um in 0.01f64..1.0,
    ) -> (f64, f64, f64, f64, f64, f64, f64, f64, f64, f64) {
        (bv, sl, beta, theta, ga, gs, ui, ut, ud, um)
    }
}

prop_compose! {
    fn arb_env_floats()(
        amb in -40.0f64..120.0,
        k in 0.0f64..10.0,
        tau in 1.0f64..1e8,
        ex in 0.0f64..0.5,
        pw in 0.0f64..0.5,
        tp in 0.0f64..2.0,
    ) -> (f64, f64, f64, f64, f64, f64) {
        (amb, k, tau, ex, pw, tp)
    }
}

prop_compose! {
    fn arb_floats()(
        mem in arb_mem_floats(),
        power in arb_power_floats(),
        env in arb_env_floats(),
    ) -> ProfileFloats {
        let (ld, st, l2, hbm, t0, pj, sf) = mem;
        let (bv, sl, beta, theta, ga, gs, ui, ut, ud, um) = power;
        let (amb, k, tau, ex, pw, tp) = env;
        ProfileFloats {
            ld, st, l2, hbm, t0, pj, sf, bv, sl, beta, theta, ga, gs,
            ui, ut, ud, um, amb, k, tau, ex, pw, tp,
        }
    }
}

prop_compose! {
    /// A strictly increasing ladder (1–12 points) plus a knee inside
    /// its span, as the validator requires.
    fn arb_ladder()(
        raw in prop::collection::vec(200u32..3200, 1..12),
        knee_pick in 0u32..1_000_000,
    ) -> (Vec<u32>, u32) {
        let mut ladder = raw;
        ladder.sort_unstable();
        ladder.dedup();
        let (lo, hi) = (ladder[0], ladder[ladder.len() - 1]);
        let knee = lo + knee_pick % (hi - lo + 1);
        (ladder, knee)
    }
}

prop_compose! {
    /// mte2/mte3 are mandatory; the rest of the known set is optional.
    fn arb_pipelines()(mask in 0u8..16) -> Vec<&'static str> {
        let mut pipes = Vec::new();
        for (bit, name) in [(1, "cube"), (2, "vector"), (4, "scalar"), (8, "mte1")] {
            if mask & bit != 0 {
                pipes.push(name);
            }
        }
        pipes.push("mte2");
        pipes.push("mte3");
        pipes
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parse_serialize_parse_is_a_bit_exact_fixed_point(
        name_seed in 0u32..100_000,
        count in 1u32..1024,
        ladder_knee in arb_ladder(),
        pipelines in arb_pipelines(),
        floats in arb_floats(),
    ) {
        let name = format!("dev-{name_seed}");
        let (ladder, knee) = ladder_knee;
        // Only a thermal loop gain k·max(γ_soc, γ_aicore)·V(f_max) below 1
        // is valid: rescale the drawn k (0–10) to a share (0–0.99) of the
        // largest k the drawn γ and top-frequency voltage allow.
        let v_max = floats.bv + floats.sl * f64::from(ladder[ladder.len() - 1] - knee);
        let k_max = 1.0 / (floats.ga.max(floats.gs) * v_max);
        let floats = ProfileFloats {
            k: floats.k / 10.0 * 0.99 * k_max,
            ..floats
        };
        let text = render(&name, count, &ladder, knee, &pipelines, &floats);
        let first = DeviceProfile::parse(&text).expect("generated profile must be valid");
        let canonical = first.to_toml();
        let second = DeviceProfile::parse(&canonical).expect("canonical form must re-parse");

        // The canonical serialization is a fixed point...
        prop_assert_eq!(&second.to_toml(), &canonical);
        // ...and carries the physics through bit-exactly.
        prop_assert_eq!(bits(first.config()), bits(second.config()));
        prop_assert_eq!(first.config().core_num, second.config().core_num);
        prop_assert_eq!(&first.config().freq_table, &second.config().freq_table);
        prop_assert_eq!(
            first.config().voltage_curve.knee(),
            second.config().voltage_curve.knee()
        );
        prop_assert_eq!(first.name(), second.name());
        prop_assert_eq!(first.pipelines(), second.pipelines());
        // Identical canonical text ⇒ identical fingerprint ⇒ identical
        // artifact-cache keys for the two configs.
        prop_assert_eq!(first.fingerprint(), second.fingerprint());
        prop_assert_eq!(first.config().profile_fp, second.config().profile_fp);
    }

    #[test]
    fn hand_written_floats_survive_the_format(
        floats in arb_floats(),
    ) {
        // Spot-check the float path in isolation: the decimal text a
        // profile author writes is recovered bit-exactly because
        // `from_str` is correctly rounded and `{:?}` is shortest
        // round-trip.
        for v in [floats.ld, floats.l2, floats.amb, floats.tau, floats.sl] {
            let rendered = format!("{v:?}");
            prop_assert_eq!(rendered.parse::<f64>().unwrap().to_bits(), v.to_bits());
        }
    }
}

#[test]
fn non_finite_floats_are_unrepresentable() {
    let base = dvfs_repro::sim::profile::ascend_910().to_toml();
    // Bare IEEE spellings are rejected by the numeric token grammar.
    for bad in ["inf", "-inf", "nan", "NaN", "Infinity"] {
        let text = base.replace("ambient_c = 40.0", &format!("ambient_c = {bad}"));
        assert!(
            DeviceProfile::parse(&text).is_err(),
            "`{bad}` must not parse as a number"
        );
    }
    // Tokens that *overflow* to infinity pass `from_str` but are caught
    // by the per-field finiteness validation.
    let text = base.replace("ambient_c = 40.0", "ambient_c = 1e400");
    match DeviceProfile::parse(&text) {
        Err(ProfileError::Type { key, .. }) => assert_eq!(key, "ambient_c"),
        other => panic!("overflowing literal must be a typed error, got {other:?}"),
    }
    let text = base.replace("beta_w_per_ghz_v2 = 16.0", "beta_w_per_ghz_v2 = 1e999");
    match DeviceProfile::parse(&text) {
        Err(ProfileError::NonPositive { key, .. }) => assert_eq!(key, "beta_w_per_ghz_v2"),
        other => panic!("overflowing coefficient must fail positivity, got {other:?}"),
    }
    // And the serializer can never emit one: every float a parsed
    // profile holds is finite, so `to_toml` output always re-parses.
    for p in dvfs_repro::sim::profile::builtins() {
        let reparsed = DeviceProfile::parse(&p.to_toml()).expect("builtin round-trip");
        assert_eq!(reparsed.fingerprint(), p.fingerprint());
    }
}

/// The fingerprints `profile_lint` printed before `to_toml` walked the
/// device row table: the canonical text must stay byte for byte.
#[test]
fn shipped_profiles_keep_their_fingerprints() {
    for (name, fingerprint) in [
        ("ascend-910", 0x2071_eca2_d18f_d3ff),
        ("v100-class", 0x916c_4271_dc0c_f774),
        ("edge-npu", 0xfd0f_00ab_095b_d97c),
    ] {
        let p = dvfs_repro::sim::profile::by_name(name).unwrap();
        assert_eq!(p.fingerprint(), fingerprint, "{name}");
        assert_eq!(
            DeviceProfile::parse(&p.to_toml()).unwrap().fingerprint(),
            fingerprint,
            "{name} after a round trip"
        );
    }
}
