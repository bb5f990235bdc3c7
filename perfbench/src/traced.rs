//! The traced run: the per-layer numbers. It records spans around the
//! benchmark's own calls into each crate — nothing inside the program is
//! instrumented — and derives every `PER_LAYER` metric from them:
//!
//! 1. a served run of the reference rung with spans on the socket writes,
//!    the response decodes and each round trip (`server`);
//! 2. the same rung on a fresh untraced server, so the tracing overhead
//!    is traced minus untraced `p50_us`;
//! 3. an in-process replay of the same op stream, on the same schedule,
//!    through `ReadView` and `ShardedIndex` on a fresh durable index, with
//!    the engine ticking
//!    through `MaintenanceEngine::run_once` in a loop shaped like its own
//!    background thread, each tick a span tagged with its action
//!    (`concurrent`, `durability`); ops the workload never sends are
//!    measured by a small probe so every layer is timed on every workload;
//! 4. `get_counted` on a standalone base index built from the same records
//!    with the same optimizer (`index`, `core`).

use crate::check::Checker;
use crate::gen::{self, Op, Plan};
use crate::openloop::{drive, round_trip_spans, wait_until, Pace, RungOutcome};
use crate::record::{cpu_jiffies, metric, quantile, steal_share, thread_cpu_ns, Json, Metric};
use crate::serve::{self, BenchIndex};
use crate::spans::{self_times, totals_by_name, write_jsonl, Clock, SpanLog};
use crate::spec::{Spec, Traffic, ZIPF_THETA};
use crate::timed::{
    connect, data_dir, kind_latencies, recover_and_check, remove_dir, verify_all, Outcome,
};
use csv_common::key::{Key, KeyValue, Value};
use csv_common::metrics::CostCounters;
use csv_concurrent::{
    DurabilitySink, MaintenanceAction, MaintenanceConfig, MaintenanceEngine, ReadView, ShardedIndex,
};
use csv_datasets::Zipfian;
use csv_durability::{DurabilityConfig, FileSink};
use csv_server::{decode_request, encode_response, Decoded, RecordStream, Response, ServerConfig};
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The result line's metrics on a traced run, in BENCHMARK.json's order.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("server.self_us_p50", "us"),
    ("server.codec_ns_per_req", "ns"),
    ("server.bytes_per_req", "bytes"),
    ("server.inflight_p99", "count"),
    ("server.worker_cpu_us_per_req", "us"),
    ("concurrent.read_view_ns", "ns"),
    ("concurrent.multi_get_ns_per_key", "ns"),
    ("concurrent.range_visit_ns_per_record", "ns"),
    ("concurrent.insert_us_p50", "us"),
    ("concurrent.insert_us_p99", "us"),
    ("concurrent.tick_ms_p99", "ms"),
    ("concurrent.tick_busy_share", "share"),
    ("concurrent.maintain_passes", "count"),
    ("concurrent.splits", "count"),
    ("concurrent.merges", "count"),
    ("concurrent.shards", "count"),
    ("index.mean_key_level_raw", "level"),
    ("index.mean_key_level", "level"),
    ("index.nodes_per_lookup", "count"),
    ("index.comparisons_per_lookup", "count"),
    ("index.height", "level"),
    ("core.smooth_s", "s"),
    ("core.refits", "count"),
    ("core.fallback_rescans", "count"),
    ("core.virtual_points", "count"),
    ("core.subtrees_rebuilt", "count"),
    ("durability.wal_records", "count"),
    ("durability.checkpoints", "count"),
    ("durability.disk_bytes_per_user_byte", "ratio"),
    ("durability.replayed_records", "count"),
    ("durability.torn_shards", "count"),
    ("durability.recovery_s", "s"),
    ("bench.late_p99_us", "us"),
    ("bench.steal_share", "share"),
    ("bench.trace_overhead_us", "us"),
];

/// The thread `csv_server` serves connections on (one worker).
const WORKER_THREAD: &str = "csv-serve-0";

/// Probe sizes for op kinds a workload does not send.
const PROBE_MULTI_GETS: usize = 256;
const PROBE_SCANS: usize = 256;
const PROBE_INSERTS: usize = 1_000;

/// Counts summed over the per-shard CSV reports of one optimize call.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoreCounts {
    pub refits: usize,
    pub fallback_rescans: usize,
    pub virtual_points: usize,
    pub subtrees_rebuilt: usize,
}

impl CoreCounts {
    pub fn of(reports: &[csv_core::CsvReport]) -> Self {
        reports.iter().fold(Self::default(), |acc, r| Self {
            refits: acc.refits + r.gap_refits,
            fallback_rescans: acc.fallback_rescans + r.smoothing.fallback_rescans,
            virtual_points: acc.virtual_points + r.virtual_points_added,
            subtrees_rebuilt: acc.subtrees_rebuilt + r.subtrees_rebuilt,
        })
    }
}

/// What the standalone base index reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexCounts {
    pub mean_key_level_raw: f64,
    pub mean_key_level: f64,
    pub height: usize,
    pub nodes_per_lookup: f64,
    pub comparisons_per_lookup: f64,
    pub lookups: usize,
}

/// Builds the standalone base index from `records`, smooths it with the
/// workload's optimizer and charges `get_counted` for every lookup key.
pub fn standalone<I: BenchIndex>(
    spec: &Spec,
    records: &[KeyValue],
    keys: &[Key],
    log: &mut SpanLog,
) -> IndexCounts {
    let mut base = log.time("index.bulk_load", 0, 0, || I::bulk_load(records));
    let raw = base.stats();
    let optimizer = serve::optimizer(spec);
    log.time("core.optimize_standalone", 0, 0, || {
        optimizer.optimize(&mut base)
    });
    let after = base.stats();
    let mut counters = CostCounters::new();
    log.time("index.get_counted", 0, 0, || {
        for &key in keys {
            std::hint::black_box(base.get_counted(key, &mut counters));
        }
    });
    let n = keys.len().max(1) as f64;
    IndexCounts {
        mean_key_level_raw: raw.mean_key_level(),
        mean_key_level: after.mean_key_level(),
        height: after.height,
        nodes_per_lookup: counters.nodes_visited as f64 / n,
        comparisons_per_lookup: counters.comparisons as f64 / n,
        lookups: keys.len(),
    }
}

/// The keys a workload's reads start from: every point-read key, and
/// each scan's lower bound.
pub fn lookup_keys(ops: &[Op]) -> Vec<Key> {
    let mut keys = Vec::new();
    for op in ops {
        match op {
            Op::MultiGet(batch) => keys.extend_from_slice(batch),
            Op::Get(key) => keys.push(*key),
            Op::Range { lo, .. } => keys.push(*lo),
            Op::Put { .. } => {}
        }
    }
    keys
}

/// What the in-process replay measured.
#[derive(Default)]
struct Replay {
    /// In-process `concurrent` time of each reference-rung op.
    reference_ns: Vec<u64>,
    multi_get_keys: u64,
    range_records: u64,
    maintain_passes: usize,
    splits: usize,
    merges: usize,
    shards: usize,
    engine_busy_ns: u64,
    engine_wall_ns: u64,
    wal_records: u64,
    checkpoints: u64,
    disk_bytes: u64,
    user_bytes: u64,
    recovery_s: f64,
    replayed: u64,
    torn_shards: usize,
}

fn action_tag(action: &MaintenanceAction) -> &'static str {
    match action {
        MaintenanceAction::Split { .. } => "split",
        MaintenanceAction::Merged { .. } => "merge",
        MaintenanceAction::Maintained { .. } => "maintain",
        MaintenanceAction::Checkpointed { .. } => "checkpoint",
        MaintenanceAction::Deferred => "deferred",
        MaintenanceAction::Idle => "idle",
    }
}

/// Serves ops in-process the way a `csv_server` worker does: reads go
/// through a pinned `ReadView`, refreshed after every write and every
/// `view_refresh` reads; writes go to the index.
struct Replayer<'a, I> {
    index: &'a ShardedIndex<I>,
    view: Option<ReadView<I>>,
    reads: usize,
    refresh: usize,
    checker: Checker,
    log: &'a mut SpanLog,
    multi_get_keys: u64,
    range_records: u64,
}

impl<I: BenchIndex> Replayer<'_, I> {
    /// Serves one op, timing each crate call as a span under one
    /// `bench.replay_op`; returns the op's `concurrent` nanoseconds.
    fn op(&mut self, op: &Op, req: u64, frame: Option<&[u8]>) -> Result<u64, String> {
        let log = &mut *self.log;
        let parent = log.open("bench.replay_op", 0, req);
        let pid = parent.id;
        if let Some(frame) = frame {
            let decoded = log.time("server.codec", pid, req, || decode_request(frame));
            if !matches!(decoded, Ok(Decoded::Frame { .. })) {
                return Err(format!(
                    "the codec could not decode its own frame for {op:?}"
                ));
            }
        }
        let mut concurrent_ns = 0u64;
        let mut timed = |log: &mut SpanLog, name: &'static str, f: &mut dyn FnMut()| {
            let open = log.open(name, pid, req);
            let started = Instant::now();
            f();
            concurrent_ns += started.elapsed().as_nanos() as u64;
            log.close(open, "");
        };
        let index = self.index;
        let is_write = matches!(op, Op::Put { .. });
        if !is_write {
            self.reads += 1;
            if self.reads >= self.refresh {
                timed(log, "concurrent.read_view", &mut || {
                    self.view = index.read_view()
                });
                self.reads = 0;
            }
        }
        let view = self
            .view
            .as_ref()
            .ok_or("the RCU read path offers no read view")?;
        let response = match op {
            Op::Get(key) => {
                let mut value = None;
                timed(log, "concurrent.get", &mut || value = view.get(*key));
                Response::Value(value)
            }
            Op::MultiGet(keys) => {
                let mut values = Vec::new();
                timed(log, "concurrent.multi_get", &mut || {
                    values = view.multi_get(keys)
                });
                self.multi_get_keys += keys.len() as u64;
                Response::Values(values)
            }
            Op::Range { lo, hi, limit } => {
                let mut records = Vec::new();
                timed(log, "concurrent.range_visit", &mut || {
                    let _ = view.range_visit(*lo, *hi, &mut |key, value| {
                        records.push(KeyValue { key, value });
                        if *limit != 0 && records.len() >= *limit as usize {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    });
                });
                self.range_records += records.len() as u64;
                Response::Records {
                    records,
                    truncated: false,
                }
            }
            Op::Put { key, value } => {
                let mut fresh = false;
                timed(log, "concurrent.insert", &mut || {
                    fresh = index.insert(*key, *value)
                });
                Response::Inserted(fresh)
            }
        };
        if is_write {
            timed(log, "concurrent.read_view", &mut || {
                self.view = index.read_view()
            });
            self.reads = 0;
        }
        let mut out = Vec::new();
        log.time("server.codec", pid, req, || match &response {
            Response::Records { records, .. } => {
                let mut stream = RecordStream::begin(&mut out);
                for r in records {
                    stream.push(r.key, r.value);
                }
                stream.finish();
            }
            other => encode_response(other, &mut out),
        });
        self.checker
            .check(op, &response)
            .map_err(|wrong| format!("in-process replay, op {req} ({op:?}): {wrong}"))?;
        log.close(parent, "");
        Ok(concurrent_ns)
    }
}

/// The probe ops for kinds the workload does not send.
fn probe_ops(spec: &Spec, plan: &Plan, checker: &Checker, seed: u64) -> Vec<Op> {
    let keys: Vec<Key> = plan.records.iter().map(|r| r.key).collect();
    let mut zipf = Zipfian::new(keys.len(), ZIPF_THETA, seed ^ 0x0BE5);
    let mut ops = Vec::new();
    if !matches!(spec.traffic, Traffic::ReadBatch { .. }) {
        for _ in 0..PROBE_MULTI_GETS {
            ops.push(Op::MultiGet(zipf.sample_keys(&keys, 64)));
        }
    }
    if !matches!(spec.traffic, Traffic::Scan { .. }) {
        for lo in zipf.sample_keys(&keys, PROBE_SCANS) {
            ops.push(Op::Range {
                lo,
                hi: Key::MAX,
                limit: 100,
            });
        }
    }
    if !matches!(spec.traffic, Traffic::WriteMixed { .. }) {
        for (i, key) in gen::probe_gap_keys(checker.live(), PROBE_INSERTS, seed)
            .into_iter()
            .enumerate()
        {
            ops.push(Op::Put {
                key,
                value: (1 << 40) + i as Value,
            });
        }
    }
    ops
}

fn replay<I: BenchIndex>(
    spec: &Spec,
    plan: &Plan,
    seed: u64,
    clock: &Clock,
    log: &mut SpanLog,
) -> Result<Replay, String> {
    let dir = serve::fresh_data_dir("replay")?;
    let config = DurabilityConfig::new(&dir).with_fsync(spec.durability.unwrap_or_default());
    let sink =
        Arc::new(FileSink::create(config).map_err(|e| format!("creating the replay store: {e}"))?);
    let index = Arc::new(log.time("concurrent.bulk_load", 0, 0, || {
        ShardedIndex::<I>::bulk_load_durable(
            &plan.records,
            serve::sharding(),
            Arc::clone(&sink) as Arc<dyn DurabilitySink>,
        )
    }));
    let optimizer = serve::optimizer(spec);
    log.time("core.optimize", 0, 0, || index.optimize(&optimizer));
    let engine = MaintenanceEngine::new(optimizer, MaintenanceConfig::default());
    let backoff = engine.config().idle_backoff;
    let stop = AtomicBool::new(false);
    let mut out = Replay::default();

    let ((engine_log, counts, wall_ns), checker) =
        std::thread::scope(|scope| -> Result<_, String> {
            let engine_thread = scope.spawn(|| {
                let mut elog = clock.log();
                let mut counts = (0usize, 0usize, 0usize);
                let started = Instant::now();
                while !stop.load(Ordering::Relaxed) {
                    let open = elog.open("concurrent.tick", 0, 0);
                    let action = engine.run_once(&index);
                    elog.close(open, action_tag(&action));
                    match action {
                        MaintenanceAction::Maintained { .. } => counts.0 += 1,
                        MaintenanceAction::Split { .. } => counts.1 += 1,
                        MaintenanceAction::Merged { .. } => counts.2 += 1,
                        MaintenanceAction::Checkpointed { .. } => {}
                        MaintenanceAction::Idle | MaintenanceAction::Deferred => {
                            std::thread::sleep(backoff)
                        }
                    }
                }
                (elog, counts, started.elapsed().as_nanos() as u64)
            });
            let mut replayer = Replayer {
                index: &index,
                view: index.read_view(),
                reads: 0,
                refresh: ServerConfig::default().view_refresh,
                checker: Checker::new(&plan.records),
                log: &mut *log,
                multi_get_keys: 0,
                range_records: 0,
            };
            let mut run = || -> Result<(), String> {
                // Each op at its due time, so writes meet the engine's passes
                // as they do when served.
                for (s, rung) in [&plan.warmup, &plan.reference].into_iter().enumerate() {
                    let start = Instant::now();
                    for (i, op) in rung.ops.iter().enumerate() {
                        wait_until(start, rung.due_ns[i]);
                        let ns = replayer.op(op, i as u64, Some(rung.frame(i)))?;
                        if s == 1 {
                            out.reference_ns.push(ns);
                        }
                    }
                }
                for (i, op) in probe_ops(spec, plan, &replayer.checker, seed)
                    .iter()
                    .enumerate()
                {
                    replayer.op(op, i as u64, None)?;
                }
                Ok(())
            };
            let result = run();
            stop.store(true, Ordering::Relaxed);
            let joined = engine_thread
                .join()
                .map_err(|_| "the replay's maintenance loop panicked".to_string())?;
            out.multi_get_keys = replayer.multi_get_keys;
            out.range_records = replayer.range_records;
            result.map(|()| (joined, replayer.checker))
        })?;
    out.engine_busy_ns = engine_log
        .spans
        .iter()
        .filter(|s| s.tag != "idle" && s.tag != "deferred")
        .map(|s| s.duration_ns())
        .sum();
    out.engine_wall_ns = wall_ns;
    log.absorb(engine_log);
    (out.maintain_passes, out.splits, out.merges) = counts;
    out.shards = index.num_shards();
    let stats = sink.stats();
    out.wal_records = stats.wal_records;
    out.checkpoints = stats.checkpoints;
    drop(index);
    drop(sink);
    out.disk_bytes = serve::dir_bytes(&dir);
    out.user_bytes = checker.live().len() as u64 * 16;
    let recovered = log.time("durability.recover", 0, 0, || {
        recover_and_check::<I>(spec, &dir, &checker)
    });
    remove_dir(Some(&dir));
    let recovered = recovered?;
    out.recovery_s = recovered.seconds;
    out.replayed = recovered.replayed;
    out.torn_shards = recovered.torn_shards;
    Ok(out)
}

/// What one served run of the reference rung measured.
struct Served {
    outcome: RungOutcome,
    core: CoreCounts,
    optimize_s: f64,
    /// CPU time the server's worker thread ran for during the rung.
    worker_cpu_ns: u64,
}

/// One served run of the reference rung on a fresh server; traced when
/// `log` is given.
fn served_reference<I: BenchIndex>(
    spec: &Spec,
    plan: &Plan,
    clock: &Clock,
    mut log: Option<&mut SpanLog>,
) -> Result<Served, String> {
    let tag = if log.is_some() { "traced" } else { "untraced" };
    let dir = data_dir(spec, tag)?;
    let served = serve::start::<I>(spec, &plan.records, dir.as_deref(), log.as_deref_mut())?;
    let core = CoreCounts::of(&served.reports);
    let addr = served.handle.local_addr();
    let stream = connect(addr)?;
    let mut checker = Checker::new(&plan.records);
    drive(&stream, &plan.warmup, Pace::Open, &mut checker, None)?;
    let cpu_before = thread_cpu_ns(WORKER_THREAD);
    let outcome = match log {
        Some(log) => {
            let (mut wlog, mut rlog) = (clock.log(), clock.log());
            let outcome = drive(
                &stream,
                &plan.reference,
                Pace::Open,
                &mut checker,
                Some((&mut wlog, &mut rlog)),
            )?;
            round_trip_spans(log, &outcome);
            log.absorb(wlog);
            log.absorb(rlog);
            outcome
        }
        None => drive(&stream, &plan.reference, Pace::Open, &mut checker, None)?,
    };
    let worker_cpu_ns = match (cpu_before, thread_cpu_ns(WORKER_THREAD)) {
        (Some(before), Some(after)) => after.saturating_sub(before),
        _ => {
            return Err(format!(
                "no scheduler statistics for thread {WORKER_THREAD}"
            ))
        }
    };
    drop(stream);
    verify_all(addr, &checker)?;
    let optimize_s = served.optimize_s;
    served.stop();
    if let Some(dir) = &dir {
        let checked = recover_and_check::<I>(spec, dir, &checker);
        remove_dir(Some(dir));
        checked?;
    }
    Ok(Served {
        outcome,
        core,
        optimize_s,
        worker_cpu_ns,
    })
}

pub fn run<I: BenchIndex>(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    stem: &str,
) -> Result<Outcome, String> {
    let plan = gen::plan(spec, seed, seconds);
    let clock = Clock::new();
    let mut log = clock.log();
    let jiffies = cpu_jiffies();

    let Served {
        outcome: traced,
        core,
        optimize_s,
        worker_cpu_ns,
    } = served_reference::<I>(spec, &plan, &clock, Some(&mut log))?;
    let untraced = served_reference::<I>(spec, &plan, &clock, None)?.outcome;
    let replay = replay::<I>(spec, &plan, seed, &clock, &mut log)?;
    let index = standalone::<I>(
        spec,
        &plan.records,
        &lookup_keys(&plan.reference.ops),
        &mut log,
    );
    let steal = steal_share(jiffies, cpu_jiffies());

    let n = traced.len();
    let mut self_ns: Vec<u64> = (0..n)
        .map(|i| {
            traced
                .round_trip_ns(i)
                .saturating_sub(replay.reference_ns[i])
        })
        .collect();
    let mut late: Vec<u64> = (0..n).map(|i| traced.late_ns(i)).collect();
    let mut inflight: Vec<u64> = traced.inflight.iter().map(|&x| u64::from(x)).collect();
    let totals = totals_by_name(&log.spans);
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let mean_ns = |name: &str| {
        let t = total(name);
        t.total_ns as f64 / t.count.max(1) as f64
    };
    let mut inserts: Vec<u64> = log
        .spans
        .iter()
        .filter(|s| s.name == "concurrent.insert")
        .map(|s| s.duration_ns())
        .collect();
    let mut ticks: Vec<u64> = log
        .spans
        .iter()
        .filter(|s| s.name == "concurrent.tick" && s.tag != "idle" && s.tag != "deferred")
        .map(|s| s.duration_ns())
        .collect();
    if ticks.is_empty() {
        ticks = log
            .spans
            .iter()
            .filter(|s| s.name == "concurrent.tick")
            .map(|s| s.duration_ns())
            .collect();
    }
    let replayed_ops = total("bench.replay_op").count;
    let (traced_p50, _, _) = kind_latencies(&traced, None);
    let (untraced_p50, _, _) = kind_latencies(&untraced, None);
    let nf = n as u64;
    let metrics: Vec<Metric> = vec![
        metric(
            "server.self_us_p50",
            quantile(&mut self_ns, 0.5) as f64 / 1e3,
            "us",
            nf,
        ),
        metric(
            "server.codec_ns_per_req",
            total("server.codec").total_ns as f64 / replayed_ops.max(1) as f64,
            "ns",
            replayed_ops,
        ),
        metric(
            "server.bytes_per_req",
            (traced.request_bytes + traced.response_bytes) as f64 / n.max(1) as f64,
            "bytes",
            nf,
        ),
        metric(
            "server.inflight_p99",
            quantile(&mut inflight, 0.99) as f64,
            "count",
            nf,
        ),
        metric(
            "server.worker_cpu_us_per_req",
            worker_cpu_ns as f64 / 1e3 / n.max(1) as f64,
            "us",
            nf,
        ),
        metric(
            "concurrent.read_view_ns",
            mean_ns("concurrent.read_view"),
            "ns",
            total("concurrent.read_view").count,
        ),
        metric(
            "concurrent.multi_get_ns_per_key",
            total("concurrent.multi_get").total_ns as f64 / replay.multi_get_keys.max(1) as f64,
            "ns",
            replay.multi_get_keys,
        ),
        metric(
            "concurrent.range_visit_ns_per_record",
            total("concurrent.range_visit").total_ns as f64 / replay.range_records.max(1) as f64,
            "ns",
            replay.range_records,
        ),
        metric(
            "concurrent.insert_us_p50",
            quantile(&mut inserts, 0.5) as f64 / 1e3,
            "us",
            inserts.len() as u64,
        ),
        metric(
            "concurrent.insert_us_p99",
            quantile(&mut inserts, 0.99) as f64 / 1e3,
            "us",
            inserts.len() as u64,
        ),
        metric(
            "concurrent.tick_ms_p99",
            quantile(&mut ticks, 0.99) as f64 / 1e6,
            "ms",
            ticks.len() as u64,
        ),
        metric(
            "concurrent.tick_busy_share",
            replay.engine_busy_ns as f64 / replay.engine_wall_ns.max(1) as f64,
            "share",
            total("concurrent.tick").count,
        ),
        metric(
            "concurrent.maintain_passes",
            replay.maintain_passes as f64,
            "count",
            1,
        ),
        metric("concurrent.splits", replay.splits as f64, "count", 1),
        metric("concurrent.merges", replay.merges as f64, "count", 1),
        metric("concurrent.shards", replay.shards as f64, "count", 1),
        metric(
            "index.mean_key_level_raw",
            index.mean_key_level_raw,
            "level",
            plan.records.len() as u64,
        ),
        metric(
            "index.mean_key_level",
            index.mean_key_level,
            "level",
            plan.records.len() as u64,
        ),
        metric(
            "index.nodes_per_lookup",
            index.nodes_per_lookup,
            "count",
            index.lookups as u64,
        ),
        metric(
            "index.comparisons_per_lookup",
            index.comparisons_per_lookup,
            "count",
            index.lookups as u64,
        ),
        metric("index.height", index.height as f64, "level", 1),
        metric("core.smooth_s", optimize_s, "s", 1),
        metric("core.refits", core.refits as f64, "count", 1),
        metric(
            "core.fallback_rescans",
            core.fallback_rescans as f64,
            "count",
            1,
        ),
        metric(
            "core.virtual_points",
            core.virtual_points as f64,
            "count",
            1,
        ),
        metric(
            "core.subtrees_rebuilt",
            core.subtrees_rebuilt as f64,
            "count",
            1,
        ),
        metric(
            "durability.wal_records",
            replay.wal_records as f64,
            "count",
            1,
        ),
        metric(
            "durability.checkpoints",
            replay.checkpoints as f64,
            "count",
            1,
        ),
        metric(
            "durability.disk_bytes_per_user_byte",
            replay.disk_bytes as f64 / replay.user_bytes.max(1) as f64,
            "ratio",
            1,
        ),
        metric(
            "durability.replayed_records",
            replay.replayed as f64,
            "count",
            1,
        ),
        metric(
            "durability.torn_shards",
            replay.torn_shards as f64,
            "count",
            1,
        ),
        metric("durability.recovery_s", replay.recovery_s, "s", 1),
        metric(
            "bench.late_p99_us",
            quantile(&mut late, 0.99) as f64 / 1e3,
            "us",
            nf,
        ),
        metric("bench.steal_share", steal, "share", 1),
        metric(
            "bench.trace_overhead_us",
            traced_p50 - untraced_p50,
            "us",
            nf,
        ),
    ];

    let span_path = out_dir.join(format!("{stem}.spans.jsonl"));
    write_jsonl(&span_path, &log.spans)
        .map_err(|e| format!("writing {}: {e}", span_path.display()))?;
    let mut layers: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for (s, self_ns) in log.spans.iter().zip(self_times(&log.spans)) {
        let entry = layers.entry(s.layer()).or_default();
        entry.0 += 1;
        entry.1 += self_ns;
    }
    let record = vec![
        (
            "span_file".to_string(),
            Json::str(span_path.display().to_string()),
        ),
        ("spans".to_string(), Json::Num(log.spans.len() as f64)),
        (
            "self_time_by_layer_ms".to_string(),
            Json::obj(layers.iter().map(|(layer, (count, ns))| {
                (
                    layer.to_string(),
                    Json::obj([
                        ("spans", Json::Num(*count as f64)),
                        ("self_ms", Json::Num(*ns as f64 / 1e6)),
                    ]),
                )
            })),
        ),
        (
            "self_time_by_span_ms".to_string(),
            Json::obj(totals.iter().map(|(name, t)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("spans", Json::Num(t.count as f64)),
                        ("total_ms", Json::Num(t.total_ns as f64 / 1e6)),
                        ("self_ms", Json::Num(t.self_ns as f64 / 1e6)),
                    ]),
                )
            })),
        ),
        (
            "tracing_overhead".to_string(),
            Json::obj([
                ("traced_p50_us", Json::Num(traced_p50)),
                ("untraced_p50_us", Json::Num(untraced_p50)),
            ]),
        ),
        (
            "server_self_us_p50_label".to_string(),
            Json::str("served round trip minus in-process replay of the same op"),
        ),
    ];
    Ok(Outcome {
        attempted: (plan.warmup.ops.len() + plan.reference.ops.len()) as u64 * 2,
        failed: traced.failed + untraced.failed,
        metrics,
        record,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::find;

    fn counts<I: BenchIndex>(spec: &Spec, seed: u64) -> (CoreCounts, IndexCounts) {
        let plan = gen::plan(spec, seed, 0.2);
        let index = ShardedIndex::<I>::bulk_load(&plan.records, serve::sharding());
        let core = CoreCounts::of(&index.optimize(&serve::optimizer(spec)));
        let mut log = Clock::new().log();
        let keys = lookup_keys(&plan.reference.ops);
        (core, standalone::<I>(spec, &plan.records, &keys, &mut log))
    }

    #[test]
    fn core_counts_and_key_levels_repeat_for_a_seed() {
        let alex = find("read_batch").unwrap();
        let (core, index) = counts::<csv_alex::AlexIndex>(alex, 3);
        assert_eq!((core, index), counts::<csv_alex::AlexIndex>(alex, 3));
        assert!(core.refits > 0 && index.mean_key_level < index.mean_key_level_raw);
        let lipp = Spec {
            keys: 20_000,
            ..*find("scan").unwrap()
        };
        assert_eq!(
            counts::<csv_lipp::LippIndex>(&lipp, 3),
            counts::<csv_lipp::LippIndex>(&lipp, 3)
        );
    }
}
