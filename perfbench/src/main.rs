//! `csv_perfbench`: the served benchmark of the sharded CSV index.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload read_batch|write_mixed|scan --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` is the timed run: it prints every metric by name with its
//! unit, then one JSON result line carrying the end-to-end metrics.
//! `--trace 1` is the traced run: spans around the benchmark's calls into
//! each crate, printed as the per-layer metrics. Both check every
//! response; a wrong answer exits 2 and prints the offending op. Each run
//! writes its record (and, traced, its span file) under `perfbench/out/`.
//! README.md explains the workloads and the metrics.

mod check;
mod gen;
mod openloop;
mod record;
mod serve;
mod spans;
mod spec;
mod timed;
mod traced;

use record::{metrics_json, Json, Metric};
use spec::IndexKind;

/// The result line's metrics on a timed run, in BENCHMARK.json's order.
const END_TO_END: [&str; 3] = ["setup_s", "p50_us", "bytes_per_key"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed expects an integer, got '{value}'"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("--seconds expects a number, got '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn run(args: &Args) -> Result<(), String> {
    let spec = spec::find(&args.workload).ok_or_else(|| {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload '{}' (one of {})",
            args.workload,
            names.join(", ")
        )
    })?;
    let out_dir = serve::out_dir();
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );
    let jiffies = record::cpu_jiffies();
    let outcome = match (spec.index, args.trace) {
        (IndexKind::Alex, false) => {
            timed::run::<csv_alex::AlexIndex>(spec, args.seed, args.seconds)?
        }
        (IndexKind::Lipp, false) => {
            timed::run::<csv_lipp::LippIndex>(spec, args.seed, args.seconds)?
        }
        (IndexKind::Alex, true) => {
            traced::run::<csv_alex::AlexIndex>(spec, args.seed, args.seconds, &out_dir, &stem)?
        }
        (IndexKind::Lipp, true) => {
            traced::run::<csv_lipp::LippIndex>(spec, args.seed, args.seconds, &out_dir, &stem)?
        }
    };
    let steal = record::steal_share(jiffies, record::cpu_jiffies());

    let wanted: Vec<&str> = if args.trace {
        traced::PER_LAYER.iter().map(|(name, _)| *name).collect()
    } else {
        END_TO_END.to_vec()
    };
    let mut line = Vec::with_capacity(wanted.len());
    for name in wanted {
        let m = outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("the run produced no '{name}' metric"))?;
        line.push(m.clone());
    }

    let fsync = spec
        .durability
        .map_or("none (no durable store)".to_string(), |p| format!("{p:?}"));
    let mut fields = vec![
        ("workload".to_string(), Json::str(spec.name)),
        ("index".to_string(), Json::str(spec.index.name())),
        ("keys".to_string(), Json::Num(spec.keys as f64)),
        ("shards".to_string(), Json::Num(spec::SHARDS as f64)),
        ("stamp".to_string(), record::stamp(args.seed, &fsync)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("traced".to_string(), Json::Bool(args.trace)),
        ("host_steal_share".to_string(), Json::Num(steal)),
        ("attempted".to_string(), Json::Num(outcome.attempted as f64)),
        ("failed".to_string(), Json::Num(outcome.failed as f64)),
        ("metrics".to_string(), metrics_json(&outcome.metrics, true)),
    ];
    fields.extend(outcome.record);
    let record_path = out_dir.join(format!("{stem}.json"));
    std::fs::write(&record_path, format!("{}\n", Json::Obj(fields)))
        .map_err(|e| format!("writing {}: {e}", record_path.display()))?;

    print_table(spec.name, &outcome.metrics);
    println!("# record: {}", record_path.display());
    let result = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(&line, false)),
    ]);
    println!("{result}");
    Ok(())
}

fn print_table(workload: &str, metrics: &[Metric]) {
    println!("# {workload}");
    for m in metrics {
        println!(
            "{:<40} {:>16.4} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("csv_perfbench: {e}");
            eprintln!(
                "usage: csv_perfbench --workload read_batch|write_mixed|scan --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("csv_perfbench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The result lines carry exactly the metrics BENCHMARK.json names.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |section: &str| -> Vec<String> {
            let body = &text[text.find(&format!("\"{section}\"")).expect("section")..];
            let body = &body[..body.find(']').expect("end of section")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|rest| rest[..rest.find('"').expect("name end")].to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        let per_layer: Vec<&str> = traced::PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names("per_layer"), per_layer);
    }
}
