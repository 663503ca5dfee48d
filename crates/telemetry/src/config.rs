//! The process configuration: every `QCF_*` environment variable, read
//! once into a [`Config`] with one typed field per variable and parsed by
//! one rule per value type (README "Configuration" tabulates them). A
//! blank value means unset.
//!
//! One policy for malformed values: `Config::parse` leaves a malformed
//! variable at its default and reports it, as it reports any other
//! `QCF_`-prefixed name (a misspelt variable). Library code reads
//! [`config`], where a malformed variable reads as unset and is named once
//! on stderr, never a panic (a panic inside a codec call would be booked
//! as a worker fault). The `qcfz` and `experiments` binaries call
//! [`errors`] before any other work and exit 2 naming each bad variable.

use crate::faults::FaultSpec;
use crate::slo::SloSpec;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Every variable [`Config`] reads.
const VARS: [&str; 10] = [
    "QCF_TELEMETRY",
    "QCF_TELEMETRY_SAMPLE",
    "QCF_JOURNAL",
    "QCF_FLIGHT_RECORD",
    "QCF_FAULTS",
    "QCF_SLO",
    "QCF_WORKERS",
    "QCF_MEM_BUDGET",
    "QCF_SPILL_LATENCY_US",
    "QCF_LEDGER_MEASURE",
];

/// `QCF_FLIGHT_RECORD`: whether the flight recorder is armed, and where
/// it dumps by default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum FlightRecord {
    /// Not armed.
    #[default]
    Off,
    /// Armed; dumps go where the caller says (`qcf-flight.json` otherwise).
    On,
    /// Armed, dumping here on error and at normal `qcfz` exit.
    Path(PathBuf),
}

/// One typed field per `QCF_*` variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// `QCF_TELEMETRY`: spans and registry collect.
    pub telemetry: bool,
    /// `QCF_TELEMETRY_SAMPLE`: the sampler interval in milliseconds.
    pub telemetry_sample_ms: Option<u64>,
    /// `QCF_JOURNAL`: the per-chunk causal journal records.
    pub journal: bool,
    /// `QCF_FLIGHT_RECORD`: the flight recorder's arming and dump path.
    pub flight_record: FlightRecord,
    /// `QCF_FAULTS`: the fault-injection plan.
    pub faults: Option<FaultSpec>,
    /// `QCF_SLO`: the service-level objectives replacing the defaults.
    pub slo: Option<SloSpec>,
    /// `QCF_WORKERS`: the executor's worker count.
    pub workers: Option<usize>,
    /// `QCF_MEM_BUDGET`: the compressed-state RAM budget in bytes.
    pub mem_budget: Option<usize>,
    /// `QCF_SPILL_LATENCY_US`: simulated latency per spill-tier read.
    pub spill_latency_us: u64,
    /// `QCF_LEDGER_MEASURE`: lossy write-backs measure their true error.
    pub ledger_measure: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            telemetry: true,
            telemetry_sample_ms: None,
            journal: false,
            flight_record: FlightRecord::Off,
            faults: None,
            slo: None,
            workers: None,
            mem_budget: None,
            spill_latency_us: 0,
            ledger_measure: false,
        }
    }
}

impl Config {
    /// Builds a configuration from name/value pairs. A blank value means
    /// unset; a malformed value, or a name other than the ten variables
    /// (a misspelt one would otherwise be ignored), leaves the
    /// configuration at its default and adds one error,
    /// `NAME="value": reason`. Pure, apart from reading the rules file a
    /// `QCF_SLO` value names.
    pub(crate) fn parse(vars: &[(&str, &str)]) -> (Config, Vec<String>) {
        let mut cfg = Config::default();
        let mut errors = Vec::new();
        for &(name, raw) in vars {
            let v = raw.trim();
            let set = match name {
                _ if v.is_empty() && VARS.contains(&name) => continue,
                "QCF_TELEMETRY" => parse_switch(v).map(|on| cfg.telemetry = on),
                "QCF_TELEMETRY_SAMPLE" => {
                    parse_positive(v).map(|ms| cfg.telemetry_sample_ms = Some(ms as u64))
                }
                "QCF_JOURNAL" => parse_switch(v).map(|on| cfg.journal = on),
                "QCF_FLIGHT_RECORD" => {
                    cfg.flight_record = match parse_switch(v) {
                        Ok(true) => FlightRecord::On,
                        Ok(false) => FlightRecord::Off,
                        Err(_) => FlightRecord::Path(PathBuf::from(v)),
                    };
                    Ok(())
                }
                "QCF_FAULTS" => FaultSpec::parse(v).map(|s| cfg.faults = Some(s)),
                "QCF_SLO" => SloSpec::from_env_value(v).map(|s| cfg.slo = Some(s)),
                "QCF_WORKERS" => parse_positive(v).map(|n| cfg.workers = Some(n)),
                "QCF_MEM_BUDGET" => parse_size(v).map(|b| cfg.mem_budget = Some(b)),
                "QCF_SPILL_LATENCY_US" => v
                    .parse()
                    .map(|us| cfg.spill_latency_us = us)
                    .map_err(|_| "expected a whole number of microseconds".into()),
                "QCF_LEDGER_MEASURE" => parse_switch(v).map(|on| cfg.ledger_measure = on),
                _ => Err("unknown variable".into()),
            };
            if let Err(reason) = set {
                errors.push(format!("{name}={raw:?}: {reason}"));
            }
        }
        (cfg, errors)
    }
}

/// Reads every `QCF_`-prefixed variable through [`Config::parse`] once
/// per process: the one place that reads a `QCF_*` variable.
fn load(warn: bool) -> &'static (Config, Vec<String>) {
    static LOADED: OnceLock<(Config, Vec<String>)> = OnceLock::new();
    LOADED.get_or_init(|| {
        let mut set = Vec::new();
        let mut errors = Vec::new();
        for (name, value) in std::env::vars_os() {
            let name = name.to_string_lossy().into_owned();
            if !name.starts_with("QCF_") {
                continue;
            }
            match value.into_string() {
                Ok(value) => set.push((name, value)),
                Err(value) => errors.push(format!("{name}={value:?}: not valid Unicode")),
            }
        }
        set.sort();
        let set: Vec<(&str, &str)> = set.iter().map(|(n, v)| (n.as_str(), v.as_str())).collect();
        let (cfg, parse_errors) = Config::parse(&set);
        errors.extend(parse_errors);
        if warn {
            for e in &errors {
                eprintln!("warning: ignoring {e}");
            }
        }
        (cfg, errors)
    })
}

/// The process configuration, read from the environment on first use. A
/// malformed variable reads as unset and is named once on stderr.
pub fn config() -> &'static Config {
    &load(true).0
}

/// The malformed variables of the process environment. Binaries call this
/// before any other work, so they name each one themselves and exit.
pub fn errors() -> &'static [String] {
    &load(false).1
}

/// A switch: `1`, `true`, `on` or `0`, `false`, `off`, in any case.
fn parse_switch(v: &str) -> Result<bool, String> {
    match v.to_ascii_lowercase().as_str() {
        "1" | "true" | "on" => Ok(true),
        "0" | "false" | "off" => Ok(false),
        _ => Err("expected 1, true, on, 0, false or off".into()),
    }
}

fn parse_positive(v: &str) -> Result<usize, String> {
    match v.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err("expected a positive integer".into()),
    }
}

/// Parses a non-negative byte size with an optional binary suffix (`k`/`kb`,
/// `m`/`mb`, `g`/`gb`, any case): `"4096"`, `"64k"`, `"2MB"`. The grammar of
/// `QCF_MEM_BUDGET` and of `qcfz --mem-budget`.
pub fn parse_size(raw: &str) -> Result<usize, String> {
    let s = raw.trim();
    if s.is_empty() {
        return Err("empty value".into());
    }
    let lower = s.to_ascii_lowercase();
    let (digits, mult) = if let Some(d) = lower.strip_suffix("kb").or(lower.strip_suffix("k")) {
        (d, 1024usize)
    } else if let Some(d) = lower.strip_suffix("mb").or(lower.strip_suffix("m")) {
        (d, 1024 * 1024)
    } else if let Some(d) = lower.strip_suffix("gb").or(lower.strip_suffix("g")) {
        (d, 1024 * 1024 * 1024)
    } else {
        (lower.as_str(), 1usize)
    };
    let n: usize = digits.trim().parse().map_err(|_| {
        format!("expected a non-negative integer (optionally with a k/m/g suffix), got {raw:?}")
    })?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("value {raw:?} overflows"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(var: &str, value: &str) -> (Config, Vec<String>) {
        Config::parse(&[(var, value)])
    }

    /// A variable, a value it accepts, and what the value must set.
    type Accepted = (&'static str, &'static str, fn(&Config) -> bool);

    #[test]
    fn every_variable_accepts_its_forms_and_refuses_the_rest_by_name() {
        let accepted: &[Accepted] = &[
            ("QCF_TELEMETRY", "0", |c| !c.telemetry),
            ("QCF_TELEMETRY", "OFF", |c| !c.telemetry),
            ("QCF_TELEMETRY", "True", |c| c.telemetry),
            ("QCF_TELEMETRY", "", |c| c.telemetry),
            ("QCF_TELEMETRY_SAMPLE", " 10 ", |c| {
                c.telemetry_sample_ms == Some(10)
            }),
            ("QCF_TELEMETRY_SAMPLE", "", |c| {
                c.telemetry_sample_ms.is_none()
            }),
            ("QCF_JOURNAL", "1", |c| c.journal),
            ("QCF_JOURNAL", "On", |c| c.journal),
            ("QCF_JOURNAL", "false", |c| !c.journal),
            ("QCF_FLIGHT_RECORD", "1", |c| {
                c.flight_record == FlightRecord::On
            }),
            ("QCF_FLIGHT_RECORD", "oFf", |c| {
                c.flight_record == FlightRecord::Off
            }),
            ("QCF_FLIGHT_RECORD", "/tmp/f.json", |c| {
                c.flight_record == FlightRecord::Path("/tmp/f.json".into())
            }),
            ("QCF_FLIGHT_RECORD", "  ", |c| {
                c.flight_record == FlightRecord::Off
            }),
            ("QCF_FAULTS", "seed=7,codec.decode@3", |c| {
                c.faults.is_some()
            }),
            ("QCF_FAULTS", " ", |c| c.faults.is_none()),
            ("QCF_SLO", "a: state.resident_bytes <= 2k", |c| {
                c.slo
                    .as_ref()
                    .is_some_and(|s| s.objectives[0].threshold == 2048.0)
            }),
            ("QCF_WORKERS", "4", |c| c.workers == Some(4)),
            ("QCF_WORKERS", "", |c| c.workers.is_none()),
            ("QCF_MEM_BUDGET", "0", |c| c.mem_budget == Some(0)),
            ("QCF_MEM_BUDGET", "4096", |c| c.mem_budget == Some(4096)),
            ("QCF_MEM_BUDGET", " 64k ", |c| {
                c.mem_budget == Some(64 << 10)
            }),
            ("QCF_MEM_BUDGET", "16KB", |c| c.mem_budget == Some(16 << 10)),
            ("QCF_MEM_BUDGET", "2m", |c| c.mem_budget == Some(2 << 20)),
            ("QCF_MEM_BUDGET", "2MB", |c| c.mem_budget == Some(2 << 20)),
            ("QCF_MEM_BUDGET", "1g", |c| c.mem_budget == Some(1 << 30)),
            ("QCF_MEM_BUDGET", "3Gb", |c| c.mem_budget == Some(3 << 30)),
            ("QCF_SPILL_LATENCY_US", "0", |c| c.spill_latency_us == 0),
            ("QCF_SPILL_LATENCY_US", "5000", |c| {
                c.spill_latency_us == 5000
            }),
            ("QCF_LEDGER_MEASURE", "TRUE", |c| c.ledger_measure),
            ("QCF_LEDGER_MEASURE", "0", |c| !c.ledger_measure),
        ];
        for (var, value, holds) in accepted {
            let (cfg, errors) = one(var, value);
            assert!(errors.is_empty(), "{var}={value:?} refused: {errors:?}");
            assert!(holds(&cfg), "{var}={value:?} parsed to {cfg:?}");
        }

        let refused = [
            ("QCF_TELEMETRY", "yes"),
            ("QCF_TELEMETRY", "2"),
            ("QCF_TELEMETRY_SAMPLE", "0"),
            ("QCF_TELEMETRY_SAMPLE", "10ms"),
            ("QCF_JOURNAL", "banana"),
            ("QCF_FAULTS", "state.chunk.bitflip%banana"),
            ("QCF_FAULTS", "seed=7"),
            ("QCF_FAULTS", "s@0"),
            ("QCF_SLO", "no objectives here"),
            ("QCF_SLO", "@/nonexistent/qcf-slo-rules"),
            ("QCF_WORKERS", "0"),
            ("QCF_WORKERS", "banana"),
            ("QCF_WORKERS", "-2"),
            ("QCF_MEM_BUDGET", "1.5k"),
            ("QCF_MEM_BUDGET", "-1"),
            ("QCF_MEM_BUDGET", "12q"),
            ("QCF_MEM_BUDGET", "abc"),
            ("QCF_MEM_BUDGET", "k"),
            ("QCF_MEM_BUDGET", "99999999999g"),
            ("QCF_SPILL_LATENCY_US", "5k"),
            ("QCF_SPILL_LATENCY_US", "-5"),
            ("QCF_LEDGER_MEASURE", "measure"),
            ("QCF_UNKNOWN", "banana"),
            ("QCF_WORKER", "4"),
            ("QCF_WORKER", ""),
        ];
        for (var, value) in refused {
            let (cfg, errors) = one(var, value);
            assert_eq!(errors.len(), 1, "{var}={value:?} accepted as {cfg:?}");
            assert!(errors[0].starts_with(&format!("{var}=")), "{}", errors[0]);
            assert_eq!(cfg, Config::default(), "{var}={value:?} must read as unset");
        }
    }

    #[test]
    fn each_malformed_variable_is_named_and_the_rest_still_apply() {
        let (cfg, errors) = Config::parse(&[
            ("QCF_WORKERS", "banana"),
            ("QCF_MEM_BUDGET", "2MB"),
            ("QCF_TELEMETRY", "maybe"),
            ("QCF_JOURNAL", "1"),
        ]);
        assert!(
            errors[0].starts_with("QCF_WORKERS=\"banana\": "),
            "{errors:?}"
        );
        assert!(
            errors[1].starts_with("QCF_TELEMETRY=\"maybe\": "),
            "{errors:?}"
        );
        assert_eq!(errors.len(), 2);
        assert_eq!(cfg.mem_budget, Some(2 * 1024 * 1024));
        assert!(cfg.journal && cfg.telemetry && cfg.workers.is_none());
    }

    #[test]
    fn parse_size_names_the_value_it_refuses() {
        assert_eq!(parse_size(" 64k ").unwrap(), 64 * 1024);
        for bad in ["", "   ", "1.5k"] {
            assert!(parse_size(bad).is_err(), "{bad:?} should be refused");
        }
        assert!(parse_size("12q").unwrap_err().contains("\"12q\""));
    }
}
