//! `dift-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a stamp line (`# workload=… seed=… host_cores=…`) and, as the
//! last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use dift_perfbench::{run, Config, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dift-perfbench --workload <debug-slice|taint-server|lineage-science> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::DebugSlice,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        corrupt_reference: false,
        work_dir: PathBuf::from(".bench_build").join("perfbench-work"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {val}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(val).ok_or_else(|| bad("workload"))?),
            "--seed" => cfg.seed = val.parse().map_err(|_| bad("seed"))?,
            "--seconds" => cfg.seconds = val.parse().map_err(|_| bad("seconds"))?,
            "--trace" => {
                cfg.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&cfg);
    let stamps: Vec<String> = out.stamps.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# {}", stamps.join(" "));
    eprintln!(
        "{}: attempted {} failed {} (failed_frac {})",
        cfg.workload.name(),
        out.attempted,
        out.failed,
        out.failed_frac()
    );
    println!("{}", out.json_line(cfg.trace));
    ExitCode::SUCCESS
}
