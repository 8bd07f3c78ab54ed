//! The layer-budget benchmark of the Copernicus App Lab reproduction.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One run in this process. The last line of standard output is the
//!     result: {"correct":…,"attempted":…,"failed":…,"metrics":{…}} with
//!     the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//! benchmark --all      every workload, plain and traced, each in a process
//!                      of its own; a table, and benchmark/out/result.json
//! benchmark --repeat N two sets of N plain runs per workload on this build
//!                      (A/A): every end-to-end metric's spread, and how far
//!                      the second set's median is from the first's, against
//!                      its bound
//! benchmark --smoke    --all on a 28-cell world with 1.5 s runs (< 20 s)
//! ```
//! Options for all modes: `--seed` (2019), `--seconds` (20).
//! `benchmark/README.md` has the definitions.

mod client;
mod ingest;
mod json;
mod layers;
mod load;
mod metrics;
mod oracle;
mod queries;
mod report;
mod rng;
mod run;
mod stats;
mod sys;
mod trace;
mod workloads;

use report::Common;
use std::process::ExitCode;
use workloads::Workload;

/// Parsed command line.
struct Cli {
    mode: Mode,
    options: Common,
}

enum Mode {
    Run {
        workload: Workload,
        trace: bool,
    },
    /// `--all`, and `--smoke` (which also makes each child run a smoke run).
    All,
    Repeat(usize),
    PrintContract,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut options = Common {
        seed: 2019,
        seconds: metrics::RUN_SECONDS as f64,
        smoke: false,
    };
    let mut seconds_given = false;
    let mut workload = None;
    let mut trace = false;
    let mut mode = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: cannot read {text:?}"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => options.seed = number(flag, value("a number")?)?,
            "--seconds" => {
                options.seconds = number(flag, value("a number")?)?;
                seconds_given = true;
            }
            "--trace" => trace = number::<u8>(flag, value("0 or 1")?)? != 0,
            "--all" => mode = Some(Mode::All),
            "--repeat" => mode = Some(Mode::Repeat(number(flag, value("a count")?)?)),
            "--smoke" => options.smoke = true,
            "--print-contract" => mode = Some(Mode::PrintContract),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(options.seconds > 0.0 && options.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if options.smoke && !seconds_given {
        options.seconds = 1.5;
    }
    if options.smoke && mode.is_none() && workload.is_none() {
        mode = Some(Mode::All);
    }
    let mode = match (mode, workload) {
        (Some(mode), None) => mode,
        (None, Some(workload)) => Mode::Run { workload, trace },
        (None, None) => return Err("say --workload <name>, --all, --repeat <n> or --smoke".into()),
        (Some(_), Some(_)) => return Err("--workload does not go with --all/--repeat".into()),
    };
    Ok(Cli { mode, options })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let common = cli.options;
    match cli.mode {
        Mode::Run { workload, trace } => {
            let settings = common.settings(workload);
            let out = run::checked(|out| match (workload, trace) {
                (Workload::Ingest, false) => ingest::plain(&settings, out),
                (Workload::Ingest, true) => ingest::traced(&settings, out),
                (_, false) => run::plain(&settings, out),
                (_, true) => run::traced(&settings, out),
            });
            for note in &out.notes {
                eprintln!("{}: {note}", workload.name());
            }
            for error in &out.errors {
                eprintln!("{}: WRONG: {error}", workload.name());
            }
            if trace {
                println!("{}", report::absent_line(&out));
            }
            println!("{}", report::result_line(&out, trace));
            // The result line carries `correct`; the exit code only says
            // the run itself completed.
            ExitCode::SUCCESS
        }
        Mode::All => report::run_all(&common),
        Mode::Repeat(times) => report::run_repeat(&common, times),
        Mode::PrintContract => {
            print!("{}", report::contract());
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_invocation_parses() {
        let c = cli(&[
            "--workload",
            "virtual_lai",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert!(matches!(
            c.mode,
            Mode::Run {
                workload: Workload::VirtualLai,
                trace: true
            }
        ));
        let o = c.options;
        assert_eq!((o.seed, o.seconds, o.smoke), (7, 15.0, false));
        let smoke = cli(&["--smoke"]).unwrap();
        assert!(matches!(smoke.mode, Mode::All));
        assert_eq!((smoke.options.seconds, smoke.options.smoke), (1.5, true));
        // What `--smoke` starts for each workload.
        let child = cli(&["--workload", "ingest", "--seconds", "1.5", "--smoke"]).unwrap();
        assert!(matches!(child.mode, Mode::Run { .. }) && child.options.smoke);
        assert!(matches!(
            cli(&["--repeat", "2"]).unwrap().mode,
            Mode::Repeat(2)
        ));
    }

    #[test]
    fn bad_invocations_are_refused() {
        for bad in [
            &[][..],
            &["--workload", "nope"],
            &["--workload"],
            &["--seed", "x", "--all"],
            &["--all", "--workload", "ingest"],
            &["--all", "--seconds", "0"],
            &["--all", "--cells", "28"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?}");
        }
    }
}
