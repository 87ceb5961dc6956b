//! The command line: one workload in this process (what the driver runs),
//! or every workload in a child process each (what a person runs, so peak
//! RSS is per workload).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::cluster::{self, Case};
use crate::metrics::{Decl, Outcome, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::papersim::{self, SimCase};
use crate::sample::peak_rss_mib;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// ~1/50 of the sizes: seconds per workload, for `cargo test`.
    pub smoke: bool,
    pub out: PathBuf,
    /// All-workloads mode: also write every result line to this file.
    pub json: Option<PathBuf>,
}

pub const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
[--smoke] [--out DIR] [--json FILE]";

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: None,
            seed: 1,
            seconds: RUN_SECONDS,
            trace: false,
            smoke: false,
            out: PathBuf::from("perf/out"),
            json: None,
        };
        let mut it = argv.iter().peekable();
        let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
            it.next().cloned().ok_or(format!("{flag} needs a value"))
        };
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--workload" => a.workload = Some(value(&mut it, arg)?),
                "--seed" => {
                    a.seed = value(&mut it, arg)?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    a.seconds = value(&mut it, arg)?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                // `--trace` alone means on; the driver passes `--trace 0|1`.
                "--trace" => {
                    a.trace = match it.peek().map(|s| s.as_str()) {
                        Some("0") => {
                            it.next();
                            false
                        }
                        Some("1") => {
                            it.next();
                            true
                        }
                        _ => true,
                    }
                }
                "--smoke" => a.smoke = true,
                "--out" => a.out = PathBuf::from(value(&mut it, arg)?),
                "--json" => a.json = Some(PathBuf::from(value(&mut it, arg)?)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if let Some(w) = &a.workload {
            if !WORKLOADS.contains(&w.as_str()) {
                return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
            }
        }
        Ok(a)
    }
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What makes two rows comparable: printed at the head of every report.
/// `inputs` fingerprints what the seed generated.
fn header(args: &Args, workload: &str, inputs: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "workload={workload} seed={} inputs={inputs:016x} seconds={} trace={} scale={} \
         nproc={nproc} profile={} commit={} cluster={}T+{}R slots_per_executor={} \
         threaded_workers={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { "smoke" } else { "full" },
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_commit(),
        cluster::N_TRANSIENT,
        cluster::N_RESERVED,
        cluster::SLOTS_PER_EXECUTOR,
        cluster::THREADED_WORKERS,
    )
}

/// Runs one workload in this process and prints its result line last.
/// Returns the process exit code: 0 unless a job failed a check.
pub fn run_one(args: &Args, workload: &str) -> i32 {
    // Spill files and WALs go through `std::env::temp_dir()`: keep them
    // inside the checkout, in a directory this process owns and removes.
    let tmp = args.out.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return 2;
    }
    let tmp = tmp.canonicalize().unwrap_or(tmp);
    std::env::set_var("TMPDIR", &tmp);
    let code = match measure(args, workload, &tmp) {
        Ok(out) => {
            let decls = if args.trace { PER_LAYER } else { END_TO_END };
            print_metrics(&out, decls);
            println!("{}", out.result_line(decls));
            i32::from(out.failed > 0)
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            2
        }
    };
    let _ = std::fs::remove_dir_all(&tmp);
    code
}

fn measure(args: &Args, workload: &str, tmp: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if workload == "paper-sim" {
        let case = SimCase::build(args.seed, args.smoke);
        println!("{}", header(args, workload, case.inputs()));
        if args.trace {
            papersim::run_traced(&case, &args.out, &mut out);
        } else {
            papersim::run_plain(&case, args.seconds, &mut out);
        }
    } else {
        let mut case = Case::build(workload, args.seed, args.smoke, tmp)?;
        println!("{}", header(args, workload, case.inputs));
        if args.trace {
            cluster::run_traced(&mut case, args.seconds, &args.out, &mut out);
        } else {
            cluster::run_plain(&mut case, args.seconds, &mut out);
        }
    }
    println!(
        "{:<28} {:<10} {:.1}",
        "VmHWM at exit",
        "MiB",
        peak_rss_mib()
    );
    if args.trace {
        out.set(
            "failed_run_share",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
    }
    Ok(out)
}

/// Every declared metric by name, with its unit; a layer the workload
/// never reached says so rather than reading as a measured zero.
fn print_metrics(out: &Outcome, decls: &[Decl]) {
    println!("attempted={} failed={}", out.attempted, out.failed);
    for (name, unit, _) in decls {
        match out.values.get(name) {
            Some(v) => println!("{name:<36} {v:>16.6} {unit}"),
            None => println!("{name:<36} {:>16} {unit}", "bypassed"),
        }
    }
}

/// Runs every workload in a child process of its own, echoing its report.
/// Exits non-zero only after every workload has printed its metrics.
pub fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return 2;
        }
    };
    let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut code = 0;
    let mut lines: Vec<(String, String)> = Vec::new();
    for workload in WORKLOADS {
        for &trace in passes {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out);
            if args.smoke {
                cmd.arg("--smoke");
            }
            println!("\n== {workload} (trace {}) ==", u8::from(trace));
            let output = match cmd.stderr(Stdio::inherit()).output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("cannot run {workload}: {e}");
                    code = 2;
                    continue;
                }
            };
            let text = String::from_utf8_lossy(&output.stdout);
            print!("{text}");
            if !output.status.success() {
                code = 1;
            }
            match text
                .lines()
                .last()
                .filter(|l| l.starts_with("{\"correct\""))
            {
                Some(line) => {
                    let key = format!("{workload}{}", if trace { ":trace" } else { "" });
                    lines.push((key, line.to_string()));
                }
                None => code = 2,
            }
        }
    }
    if let Some(path) = &args.json {
        let body: Vec<String> = lines.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        cluster::write_file(path, &format!("{{\n{}\n}}\n", body.join(",\n")));
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_and_the_human_forms() {
        let a = parse("--workload mlr-evict --seed 9 --seconds 3 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("mlr-evict"), 9, 3.0, false)
        );
        assert!(parse("--workload paper-sim --trace 1").unwrap().trace);
        let a = parse("--trace --seed 4").unwrap();
        assert!(a.trace && a.seed == 4 && a.workload.is_none());
        assert_eq!(parse("").unwrap().seconds, RUN_SECONDS);
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
