//! Integration: `Device::warm_until_steady` solves the thermal steady
//! state that simulating the schedule back to back converges to.
//!
//! The limit is simulated with plain `Device::run` calls on noise-free,
//! drift-free variants of the built-in profiles, for at least 40 thermal
//! time constants: the remaining gap to equilibrium then decays below
//! float resolution.

use dvfs_repro::prelude::*;
use dvfs_repro::sim::OpClass;

fn noise_free(profile: &DeviceProfile) -> NpuConfig {
    NpuConfig {
        exec_noise_sd: 0.0,
        power_noise_sd: 0.0,
        temp_noise_sd_c: 0.0,
        ..profile.config().clone()
    }
}

/// `tiny`, `tanh_loop(4)`, and a schedule whose one iteration is longer
/// than the thermal time constant.
fn schedules(cfg: &NpuConfig) -> [(&'static str, Schedule); 3] {
    let mut long = models::tanh_loop(cfg, 2).schedule().clone();
    long.push(
        OpDescriptor::host(
            "AllReduce",
            OpClass::Communication,
            1.5 * cfg.thermal_tau_us,
        )
        .host_core_scaled(0.3),
    );
    [
        ("tiny", models::tiny(cfg).schedule().clone()),
        ("tanh_loop(4)", models::tanh_loop(cfg, 4).schedule().clone()),
        ("longer_than_tau", long),
    ]
}

#[test]
fn closed_form_matches_the_simulated_limit() {
    for profile in profile::builtins() {
        let cfg = noise_free(profile);
        let freqs: Vec<FreqMhz> = cfg.freq_table.iter().collect();
        let picks = [freqs[0], freqs[freqs.len() / 2], freqs[freqs.len() - 1]];
        for (name, schedule) in schedules(&cfg) {
            for f in picks {
                let solved = Device::new(cfg.clone())
                    .warm_until_steady(&schedule, f)
                    .unwrap();
                let mut dev = Device::new(cfg.clone());
                let opts = RunOptions::at(f).without_records();
                while dev.clock_us() < 40.0 * cfg.thermal_tau_us {
                    dev.run(&schedule, &opts).unwrap();
                }
                let gap = (solved - dev.temp_c()).abs();
                assert!(
                    gap < 1e-6,
                    "{} {name} at {f}: solved {solved} °C, simulated {} °C",
                    profile.name(),
                    dev.temp_c()
                );
            }
        }
    }
}

#[test]
fn warm_up_draws_no_noise() {
    for profile in profile::builtins() {
        let cfg = profile.config().clone();
        let schedule = models::tiny(&cfg).schedule().clone();
        let opts = RunOptions::at(cfg.freq_table.max());
        let cold = Device::with_seed(cfg.clone(), 11)
            .run(&schedule, &opts)
            .unwrap();
        let mut warm = Device::with_seed(cfg.clone(), 11);
        let warm_c = warm
            .warm_until_steady(&schedule, opts.initial_freq)
            .unwrap();
        assert!(warm_c > cfg.ambient_c);
        let hot = warm.run(&schedule, &opts).unwrap();
        // A record's duration is a difference of two clock readings, so
        // the warmed device's late clock rounds it differently; another
        // noise draw would move it by the 1 %-scale execution noise.
        for (h, c) in hot.records.iter().zip(&cold.records) {
            assert!((h.dur_us - c.dur_us).abs() <= 1e-9 * c.dur_us, "{}", h.name);
        }
        // Back at clock zero, the warmed device repeats the cold run
        // exactly, durations included: the warm-up left the noise stream
        // where it was.
        let mut rewound = Device::with_seed(cfg.clone(), 11);
        rewound
            .warm_until_steady(&schedule, opts.initial_freq)
            .unwrap();
        rewound.reset();
        assert_eq!(
            rewound.run(&schedule, &opts).unwrap(),
            cold,
            "{}",
            profile.name()
        );
    }
}
