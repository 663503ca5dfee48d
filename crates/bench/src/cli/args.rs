//! The one command-line reader of `qcfz` and `experiments`. Each
//! subcommand is one usage line ([`QCFZ`], [`EXPERIMENTS`]) that is also
//! its flag table: leading words name it (`verify --state`), `<x>` is a
//! required operand and `[x]` an optional one (`...` repeats it), `[--f]` a
//! switch and `[--f META]` a flag whose placeholder sets what its value
//! must parse as: `N S C ID G MS` an unsigned integer, `X` a number,
//! `BYTES` a [`parse_size`] byte size, anything else text. A wrong flag,
//! value or operand count is a [`UsageError`]: the binaries print it with
//! the usage and exit 2 before any work ([`refuse`]), as they do for a
//! malformed `QCF_*` variable ([`refuse_malformed_env`]).

use compressors::ErrorBound;
use qcf_telemetry::config::parse_size;
use std::str::FromStr;

/// `qcfz`'s subcommands. `verify --state` precedes `verify`: a line is
/// selected by its first word plus every further word of its name.
pub const QCFZ: &[&str] = &[
    "list",
    "compress <in.f64> <out.qcfz> [--compressor NAME] [--rel X] [--abs X] \
     [--trace FILE] [--metrics FILE]",
    "decompress <in.qcfz> <out.f64> [--trace FILE] [--metrics FILE]",
    "info <in.qcfz>",
    "qaoa [--nodes N] [--seed S] [--compressor NAME] [--rel X] [--abs X] \
     [--trace FILE] [--metrics FILE]",
    "state [--nodes N] [--seed S] [--chunk-qubits C] [--chunk ID] [--compressor NAME] \
     [--rel X] [--abs X] [--mem-budget BYTES] [--no-prefetch] [--trace FILE] [--metrics FILE]",
    "top [--nodes N] [--seed S] [--chunk-qubits C] [--compressor NAME] [--rel X] [--abs X] \
     [--mem-budget BYTES] [--interval MS] [--once]",
    "slo [--print] [--nodes N] [--seed S] [--chunk-qubits C] [--compressor NAME] [--rel X] \
     [--abs X] [--mem-budget BYTES] [--interval MS] [--explain ALERT] [--expect-firing a,b]",
    "verify --state [--nodes N] [--seed S] [--chunk C] [--compressor NAME] [--rel X] \
     [--abs X] [--mem-budget BYTES] [--trace FILE] [--metrics FILE]",
    "verify <in.qcfz>",
    "checkpoint [--out state.qcfs] [--from prev.qcfs] [--gates G] [--nodes N] [--seed S] \
     [--chunk-qubits C] [--compressor NAME] [--rel X] [--abs X] [--mem-budget BYTES] \
     [--no-prefetch] [--trace FILE] [--metrics FILE]",
    "resume <state.qcfs> [--verify] [--mem-budget BYTES] [--no-prefetch] [--trace FILE] \
     [--metrics FILE]",
    "report [--nodes N] [--seed S] [--chunk C] [--compressor NAME] [--rel X] [--abs X] \
     [--out report.md|.html] [--json FILE] [--baseline FILE] [--check] [--diff FILE]",
];

/// `experiments`, which has no subcommands.
pub const EXPERIMENTS: &[&str] =
    &["[e1..e11|all]... [--quick] [--out DIR] [--trace FILE] [--metrics FILE] [--phases]"];

/// Checks a flag's value against its placeholder (see the module docs).
fn check(meta: &str, value: &str) -> Result<(), String> {
    match meta {
        "N" | "S" | "C" | "ID" | "G" | "MS" => {
            value.parse::<u64>().map(drop).map_err(|e| e.to_string())
        }
        "X" => value.parse::<f64>().map(drop).map_err(|e| e.to_string()),
        "BYTES" => parse_size(value).map(drop),
        _ => Ok(()),
    }
}

/// The words that select `usage`'s line: `verify --state`, or none.
fn name(usage: &'static str) -> &'static str {
    usage[..usage.find(['[', '<']).unwrap_or(usage.len())].trim_end()
}

/// `usage`'s flags and their placeholders (empty for a switch).
fn flags(usage: &'static str) -> impl Iterator<Item = (&'static str, &'static str)> {
    let mut words = usage.split_whitespace();
    std::iter::from_fn(move || loop {
        let Some(flag) = words
            .next()?
            .strip_prefix('[')
            .filter(|f| f.starts_with("--"))
        else {
            continue;
        };
        return Some(match flag.strip_suffix(']') {
            Some(switch) => (switch, ""),
            None => (flag, words.next().unwrap_or_default().trim_end_matches(']')),
        });
    })
}

/// Refused command-line input.
#[derive(Debug)]
pub struct UsageError {
    /// What is wrong, naming the flag or operand.
    pub message: String,
    /// The usage lines the refusal prints.
    pub usage: &'static [&'static str],
}

/// Selects the line of `table` that `args` name (a line without a name
/// takes every argument) and parses the rest of `args` against it.
pub fn parse<'a>(
    table: &'static [&'static str],
    args: &'a [String],
) -> Result<Args<'a>, UsageError> {
    let sub = args.first().map_or("", String::as_str);
    let selected = table.iter().find(|u| {
        let mut words = name(u).split(' ').filter(|w| !w.is_empty());
        words.next().is_none_or(|w| w == sub) && words.all(|w| args.iter().any(|a| a == w))
    });
    let Some(usage) = selected else {
        let message = match sub {
            "" => "missing subcommand".to_string(),
            _ => format!("unknown subcommand {sub:?}"),
        };
        return Err(UsageError {
            message,
            usage: table,
        });
    };
    let refused = |message: String| UsageError {
        message,
        usage: std::slice::from_ref(usage),
    };
    let mut parsed = Args {
        command: name(usage),
        operands: Vec::new(),
        values: Vec::new(),
    };
    let mut rest = args.iter().skip(usize::from(!parsed.command.is_empty()));
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            parsed.operands.push(arg);
            continue;
        }
        if parsed.command.split(' ').any(|w| w == arg) {
            continue; // the switch that selected the line
        }
        let (flag, meta) = flags(usage)
            .find(|f| f.0 == arg)
            .ok_or_else(|| refused(format!("unknown flag {arg}")))?;
        let mut value = "";
        if !meta.is_empty() {
            value = rest
                .next()
                .ok_or_else(|| refused(format!("{arg} needs a value ({meta})")))?;
            check(meta, value).map_err(|e| refused(format!("bad {arg} value {value:?}: {e}")))?;
        }
        parsed.values.push((flag, value));
    }
    if parsed.switch("--rel") && parsed.switch("--abs") {
        return Err(refused("--rel and --abs are mutually exclusive".into()));
    }
    let operands: Vec<&str> = usage
        .split_whitespace()
        .filter(|w| w.starts_with(['<', '[']) && !w.starts_with("[--"))
        .collect();
    let required = operands.iter().filter(|w| w.starts_with('<')).count();
    let repeats = operands.iter().any(|w| w.ends_with("..."));
    let n = parsed.operands.len();
    if n < required || (n > operands.len() && !repeats) {
        return Err(refused(format!("wrong number of operands ({n})")));
    }
    Ok(parsed)
}

/// A command line that passed every check of its usage line.
#[derive(Debug)]
pub struct Args<'a> {
    /// The words that selected the line (`verify --state`).
    pub command: &'static str,
    /// Operands, in order.
    pub operands: Vec<&'a str>,
    /// Given flags and their values (empty for switches), in order.
    values: Vec<(&'static str, &'a str)>,
}

impl<'a> Args<'a> {
    /// The first value given for `name`.
    pub fn text(&self, name: &str) -> Option<&'a str> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// True when `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The value of an integer or number flag, which its placeholder
    /// already checked parses as `u64` or `f64`.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.text(name).and_then(|v| v.parse().ok())
    }

    /// The value of a `BYTES` flag.
    pub fn size(&self, name: &str) -> Option<usize> {
        self.text(name).and_then(|v| parse_size(v).ok())
    }

    /// The bound `--rel X` or `--abs X` names (default: rel 1e-3).
    pub fn bound(&self) -> ErrorBound {
        match (self.get("--rel"), self.get("--abs")) {
            (Some(rel), _) => ErrorBound::Rel(rel),
            (None, Some(abs)) => ErrorBound::Abs(abs),
            (None, None) => ErrorBound::Rel(1e-3),
        }
    }
}

/// Prints `e` and the usage lines it names, then exits 2.
pub fn refuse(program: &str, e: &UsageError) -> ! {
    eprintln!("error: {}", e.message);
    for (i, usage) in e.usage.iter().enumerate() {
        let lead = if i == 0 { "usage:" } else { "      " };
        eprintln!("{lead} {program} {usage}");
    }
    std::process::exit(2)
}

/// Exits 2 naming each malformed `QCF_*` variable; called before any
/// other work, so the variables are named here rather than by a library
/// read.
pub fn refuse_malformed_env() {
    let errors = qcf_telemetry::config::errors();
    for e in errors {
        eprintln!("error: {e}");
    }
    if !errors.is_empty() {
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn refusal(line: &str) -> String {
        parse(QCFZ, &argv(line)).unwrap_err().message
    }

    #[test]
    fn every_flag_of_every_line_is_accepted_by_its_subcommand() {
        let mut checked = 0;
        for (table, usage) in QCFZ
            .iter()
            .map(|u| (QCFZ, u))
            .chain([(EXPERIMENTS, &EXPERIMENTS[0])])
        {
            for (flag, meta) in flags(usage) {
                let value = match meta {
                    "X" => "1e-4",
                    "BYTES" => "16k",
                    m if check(m, "7").is_ok() && check(m, "x").is_err() => "7",
                    "" => "",
                    _ => "x.json",
                };
                let mut line = format!("{} {flag} {value}", name(usage));
                for operand in usage.split_whitespace().filter(|w| w.starts_with('<')) {
                    line = format!("{line} {operand}");
                }
                let args = argv(&line);
                let a = parse(table, &args)
                    .unwrap_or_else(|e| panic!("{line:?} refused: {}", e.message));
                assert_eq!(a.command, name(usage), "{line:?}");
                assert!(a.switch(flag), "{line:?}");
                checked += 1;
            }
        }
        let listed: usize = QCFZ
            .iter()
            .chain(EXPERIMENTS)
            .map(|u| u.matches("[--").count())
            .sum();
        assert_eq!(
            checked, listed,
            "a flag the usage lines list was not checked"
        );
    }

    #[test]
    fn names_flags_and_placeholders_come_from_the_usage_line() {
        assert_eq!(name(QCFZ[0]), "list");
        assert_eq!(name(QCFZ[1]), "compress");
        assert_eq!(name(QCFZ[8]), "verify --state");
        assert_eq!(name(EXPERIMENTS[0]), "");
        let state: Vec<_> = flags(QCFZ[5]).collect();
        assert_eq!(state[0], ("--nodes", "N"));
        assert!(state.contains(&("--no-prefetch", "")));
        assert_eq!(state.last(), Some(&("--metrics", "FILE")));
        assert!(check("N", "12").is_ok() && check("N", "-1").is_err());
        assert!(check("X", "1e-3").is_ok() && check("X", "x").is_err());
        assert!(check("BYTES", "2MB").is_ok() && check("BYTES", "1.5k").is_err());
        assert!(check("NAME", "anything").is_ok());
    }

    #[test]
    fn typed_reads_bound_and_operands() {
        let line = argv("state --nodes 12 --mem-budget 2MB --no-prefetch --abs 0");
        let a = parse(QCFZ, &line).unwrap();
        assert_eq!(a.get::<usize>("--nodes"), Some(12));
        assert_eq!(a.get::<u64>("--seed"), None);
        assert_eq!(a.size("--mem-budget"), Some(2 * 1024 * 1024));
        assert!(a.switch("--no-prefetch"));
        assert_eq!(a.bound(), ErrorBound::Abs(0.0));
        let line = argv("qaoa --rel 1e-4");
        assert_eq!(parse(QCFZ, &line).unwrap().bound(), ErrorBound::Rel(1e-4));
        let line = argv("qaoa");
        assert_eq!(parse(QCFZ, &line).unwrap().bound(), ErrorBound::Rel(1e-3));
        let line = argv("verify --state --nodes 6 --chunk 4");
        let a = parse(QCFZ, &line).unwrap();
        assert_eq!((a.command, a.operands.len()), ("verify --state", 0));
        let line = argv("verify data.qcfz");
        let a = parse(QCFZ, &line).unwrap();
        assert_eq!((a.command, &a.operands[..]), ("verify", &["data.qcfz"][..]));
        let line = argv("resume --verify snap.qcfs");
        assert_eq!(parse(QCFZ, &line).unwrap().operands, ["snap.qcfs"]);
        let line = argv("e1 e4 --quick");
        assert_eq!(parse(EXPERIMENTS, &line).unwrap().operands, ["e1", "e4"]);
        assert!(parse(EXPERIMENTS, &[]).unwrap().operands.is_empty());
    }

    #[test]
    fn malformed_missing_and_unknown_flags_are_refused_by_name() {
        for (line, named) in [
            ("state --nodes banana", "--nodes"),
            ("state --nodes", "--nodes"),
            ("state --nodse 8", "--nodse"),
            ("state --mem-budget 1.5k", "--mem-budget"),
            ("qaoa --rel x", "--rel"),
            ("qaoa --rel 1e-3 --abs 0", "--rel and --abs"),
            ("top --trace t.json", "--trace"),
            ("verify --nodes 6 data.qcfz", "--nodes"),
            ("checkpoint --gates -1", "--gates"),
            ("frobnicate", "frobnicate"),
            ("", "missing subcommand"),
        ] {
            let message = refusal(line);
            assert!(message.contains(named), "{line:?}: {message}");
        }
        for line in ["compress only-one.f64", "list extra", "verify"] {
            assert!(refusal(line).contains("operands"), "{line:?}");
        }
        let e = parse(QCFZ, &argv("state --nodse 8")).unwrap_err();
        assert_eq!(e.usage, [QCFZ[5]]);
        assert_eq!(parse(QCFZ, &[]).unwrap_err().usage, QCFZ);
        let e = parse(EXPERIMENTS, &argv("e1 --out")).unwrap_err();
        assert!(e.message.contains("--out"), "{}", e.message);
    }
}
