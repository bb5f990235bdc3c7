//! The timed run (tracing off): set the server up several times, climb
//! the ladder open loop over one connection, verify everything, and, on a
//! durable workload, recover the store and check every acked write.

use crate::check::Checker;
use crate::gen::{self, OpKind, Plan};
use crate::openloop::{drive, Pace, RungOutcome};
use crate::record::{cpu_jiffies, median_f64, metric, quantile, steal_share, Json, Metric};
use crate::serve::{self, BenchIndex, Served};
use crate::spec::{Spec, PEAK_WINDOW};
use csv_durability::{recover, DurabilityConfig};
use csv_server::Client;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Servers set up per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What a run prints and records.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric measured; the result line picks its own by name.
    pub metrics: Vec<Metric>,
    /// Everything else the run record keeps.
    pub record: Vec<(String, Json)>,
}

/// A rung's verdict against the workload's limit.
pub struct RungVerdict {
    pub rate: f64,
    pub frames: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    pub late_p99_us: f64,
    pub achieved_rate: f64,
    pub passed: bool,
}

pub fn judge(spec: &Spec, rate: f64, seconds: f64, out: &RungOutcome) -> RungVerdict {
    let mut lat: Vec<u64> = (0..out.len()).map(|i| out.latency_ns(i)).collect();
    let mut late: Vec<u64> = (0..out.len()).map(|i| out.late_ns(i)).collect();
    let p99_us = quantile(&mut lat, 0.99) as f64 / 1e3;
    let achieved_rate = out.achieved_rate();
    // The backlog grew when answers came in slower than frames fell due.
    let scheduled_rate = out.len() as f64 / seconds;
    let passed = !lat.is_empty()
        && p99_us <= spec.limit_p99_us
        && achieved_rate >= 0.95 * scheduled_rate
        && out.failed == 0;
    RungVerdict {
        rate,
        frames: out.len(),
        p50_us: quantile(&mut lat, 0.5) as f64 / 1e3,
        p99_us,
        late_p99_us: quantile(&mut late, 0.99) as f64 / 1e3,
        achieved_rate,
        passed,
    }
}

/// Per-kind latency percentiles of one rung, in microseconds.
pub fn kind_latencies(out: &RungOutcome, kind: Option<OpKind>) -> (f64, f64, u64) {
    let mut lat: Vec<u64> = (0..out.len())
        .filter(|&i| kind.is_none_or(|k| out.kinds[i] == k))
        .map(|i| out.latency_ns(i))
        .collect();
    let n = lat.len() as u64;
    (
        quantile(&mut lat, 0.5) as f64 / 1e3,
        quantile(&mut lat, 0.99) as f64 / 1e3,
        n,
    )
}

/// Reads every live key back over a second connection, after the timed
/// window: the loaded keys and every acked write must all be there.
pub fn verify_all(addr: SocketAddr, checker: &Checker) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connecting the verifier: {e}"))?;
    let live: Vec<_> = checker.live().iter().map(|(&k, &v)| (k, v)).collect();
    for chunk in live.chunks(4096) {
        let keys: Vec<_> = chunk.iter().map(|&(k, _)| k).collect();
        let got = client
            .multi_get(&keys)
            .map_err(|e| format!("verification read: {e}"))?;
        for (&(key, want), got) in chunk.iter().zip(got) {
            if got != Some(want) {
                return Err(format!(
                    "final read of key {key}: got {got:?}, want Some({want}) (a loaded key or acked write is missing)"
                ));
            }
        }
    }
    Ok(())
}

pub fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("setting TCP_NODELAY: {e}"))?;
    Ok(stream)
}

/// A fresh data dir when the workload is durable.
pub fn data_dir(spec: &Spec, tag: &str) -> Result<Option<PathBuf>, String> {
    spec.durability
        .map(|_| serve::fresh_data_dir(tag))
        .transpose()
}

pub fn remove_dir(dir: Option<&Path>) {
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// What recovering a durable store found.
pub struct Recovery {
    pub seconds: f64,
    pub replayed: u64,
    pub torn_shards: usize,
}

/// Recovers the store in `dir` and holds it to every acked write.
pub fn recover_and_check<I: BenchIndex>(
    spec: &Spec,
    dir: &Path,
    checker: &Checker,
) -> Result<Recovery, String> {
    let fsync = spec.durability.unwrap_or_default();
    let started = Instant::now();
    let recovered = recover::<I>(
        DurabilityConfig::new(dir).with_fsync(fsync),
        serve::sharding(),
    )
    .map_err(|e| format!("recovering the store: {e}"))?;
    let seconds = started.elapsed().as_secs_f64();
    checker.check_recovered(recovered.index.len(), |k| recovered.index.get(k))?;
    let torn_shards = recovered.report.torn_shards();
    if torn_shards != 0 {
        return Err(format!(
            "{torn_shards} shards recovered from a torn log after an orderly shutdown"
        ));
    }
    Ok(Recovery {
        seconds,
        replayed: recovered.report.replayed(),
        torn_shards,
    })
}

/// The server a timed run measures, its data dir and every setup time.
struct SetUp<I> {
    served: Served<I>,
    dir: Option<PathBuf>,
    times: Vec<f64>,
}

/// Starts `SETUPS` servers back to back and keeps the last running.
fn set_up<I: BenchIndex>(spec: &Spec, plan: &Plan) -> Result<SetUp<I>, String> {
    let mut times = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS {
        let dir = data_dir(spec, &format!("setup{k}"))?;
        let served = serve::start::<I>(spec, &plan.records, dir.as_deref(), None)?;
        times.push(served.setup_s);
        if k + 1 == SETUPS {
            return Ok(SetUp { served, dir, times });
        }
        served.stop();
        remove_dir(dir.as_deref());
    }
    unreachable!("SETUPS is at least one")
}

pub fn run<I: BenchIndex>(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let plan = gen::plan(spec, seed, seconds);
    let jiffies = cpu_jiffies();
    let SetUp {
        served,
        dir,
        times: setup_times,
    } = set_up::<I>(spec, &plan)?;
    let addr = served.handle.local_addr();
    let stream = connect(addr)?;
    let mut checker = Checker::new(&plan.records);
    let (reference_seconds, ladder_seconds, peak_seconds) = spec.phase_seconds(seconds);
    let warm = drive(&stream, &plan.warmup, Pace::Open, &mut checker, None)?;
    let reference = drive(&stream, &plan.reference, Pace::Open, &mut checker, None)?;
    let reference_verdict = judge(spec, plan.reference.rate, reference_seconds, &reference);
    let mut attempted = (warm.len() + reference.len()) as u64;
    let mut failed = warm.failed + reference.failed;
    let mut verdicts = Vec::new();
    for rung in &plan.ladder {
        let out = drive(&stream, rung, Pace::Open, &mut checker, None)?;
        attempted += out.len() as u64;
        failed += out.failed;
        let verdict = judge(spec, rung.rate, ladder_seconds, &out);
        let passed = verdict.passed;
        verdicts.push(verdict);
        if !passed {
            break;
        }
    }
    let peak_pace = Pace::Closed {
        window: PEAK_WINDOW,
        seconds: peak_seconds,
    };
    let peak = drive(&stream, &plan.peak, peak_pace, &mut checker, None)?;
    attempted += peak.len() as u64;
    failed += peak.failed;
    let peak_ops_s = peak.achieved_rate() * spec.ops_per_frame() as f64;
    drop(stream);
    verify_all(addr, &checker)?;
    let stats = served.index.stats();
    let bytes_per_key = stats.size_bytes as f64 / stats.num_keys.max(1) as f64;
    let server_report = served.stop();
    let steal = steal_share(jiffies, cpu_jiffies());

    let recovery = match &dir {
        Some(dir) => {
            let r = recover_and_check::<I>(spec, dir, &checker);
            remove_dir(Some(dir));
            Some(r?)
        }
        None => None,
    };

    let (p50_us, p99_us, frames) = kind_latencies(&reference, None);
    let max_ops_s = verdicts
        .iter()
        .filter(|v| v.passed)
        .map(|v| v.rate * spec.ops_per_frame() as f64)
        .fold(0.0, f64::max);
    let mut metrics = vec![
        metric("setup_s", median_f64(&setup_times), "s", SETUPS as u64),
        metric("p50_us", p50_us, "us", frames),
        metric(
            "bytes_per_key",
            bytes_per_key,
            "bytes",
            stats.num_keys as u64,
        ),
        metric("p99_us", p99_us, "us", frames),
    ];
    for kind in OpKind::ALL {
        let (p50, p99, n) = kind_latencies(&reference, Some(kind));
        if n > 0 {
            let (n50, n99) = match kind {
                OpKind::Get => ("get_p50_us", "get_p99_us"),
                OpKind::Write => ("write_p50_us", "write_p99_us"),
                OpKind::Scan => ("scan_p50_us", "scan_p99_us"),
            };
            metrics.push(metric(n50, p50, "us", n));
            metrics.push(metric(n99, p99, "us", n));
        }
    }
    let ladder_frames = verdicts.iter().map(|v| v.frames as u64).sum();
    metrics.push(metric("max_ops_s", max_ops_s, "1/s", ladder_frames));
    metrics.push(metric("peak_ops_s", peak_ops_s, "1/s", peak.len() as u64));
    metrics.push(metric(
        "failed_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        attempted,
    ));
    if let Some(r) = &recovery {
        metrics.push(metric("recovery_s", r.seconds, "s", 1));
    }
    let late = reference_verdict.late_p99_us;
    metrics.push(metric("bench.late_p99_us", late, "us", frames));
    metrics.push(metric("bench.steal_share", steal, "share", 1));

    let rungs = Json::Arr(
        std::iter::once(&reference_verdict)
            .chain(&verdicts)
            .map(|v| {
                Json::obj([
                    ("offered_frames_per_s", Json::Num(v.rate)),
                    ("frames", Json::Num(v.frames as f64)),
                    ("p50_us", Json::Num(v.p50_us)),
                    ("p99_us", Json::Num(v.p99_us)),
                    ("late_p99_us", Json::Num(v.late_p99_us)),
                    ("achieved_frames_per_s", Json::Num(v.achieved_rate)),
                    ("met_limit", Json::Bool(v.passed)),
                ])
            })
            .collect(),
    );
    let engine = server_report.engine_stats.unwrap_or_default();
    let record = vec![
        ("rungs".to_string(), rungs),
        (
            "setup_s_each".to_string(),
            Json::Arr(setup_times.iter().map(|&t| Json::Num(t)).collect()),
        ),
        (
            "server".to_string(),
            Json::obj([
                ("ops", Json::Num(server_report.ops as f64)),
                (
                    "protocol_errors",
                    Json::Num(server_report.protocol_errors as f64),
                ),
                ("engine_healthy", Json::Bool(server_report.engine_healthy)),
                ("maintain_passes", Json::Num(engine.maintain_passes as f64)),
                ("checkpoints", Json::Num(engine.checkpoints as f64)),
                ("splits", Json::Num(engine.splits as f64)),
                ("merges", Json::Num(engine.merges as f64)),
            ]),
        ),
        (
            "acked_writes".to_string(),
            Json::Num(checker.acked_writes as f64),
        ),
        (
            "reference_window_p50_us".to_string(),
            Json::Arr(window_p50s(&reference).into_iter().map(Json::Num).collect()),
        ),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        record,
    })
}

/// The p50 of each half-second window of a rung, by due time.
fn window_p50s(out: &RungOutcome) -> Vec<f64> {
    let mut wins: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
    for i in 0..out.len() {
        wins.entry(out.due_ns[i] / 500_000_000)
            .or_default()
            .push(out.latency_ns(i));
    }
    wins.into_values()
        .filter(|v| v.len() >= 20)
        .map(|mut v| quantile(&mut v, 0.5) as f64 / 1e3)
        .collect()
}
