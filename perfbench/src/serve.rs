//! Starts a server the way `csv-index --serve` does — bulk load, CSV
//! optimize, maintenance engine, TCP front-end, default configs — with one
//! worker, and takes it down again.

use crate::spans::SpanLog;
use crate::spec::{IndexKind, Spec, ALPHA, SHARDS};
use csv_common::key::KeyValue;
use csv_common::traits::{RangeIndex, RemovableIndex, SnapshotIndex};
use csv_concurrent::{
    DurabilitySink, MaintenanceConfig, MaintenanceEngine, ShardedIndex, ShardingConfig,
};
use csv_core::{CostModel, CsvConfigBuilder, CsvIntegrable, CsvOptimizer, CsvReport, GreedyMode};
use csv_durability::{DurabilityConfig, FileSink};
use csv_server::{ServerConfig, ServerHandle, ServerReport};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The index types a workload can run on, with everything the server,
/// the engine and the optimizer need.
pub trait BenchIndex:
    SnapshotIndex + RangeIndex + RemovableIndex + CsvIntegrable + 'static
{
}
impl<I: SnapshotIndex + RangeIndex + RemovableIndex + CsvIntegrable + 'static> BenchIndex for I {}

/// The optimizer `csv-index` builds for this index at the workload's α,
/// with the CLI's defaults (lazy greedy, no drift tolerance).
pub fn optimizer(spec: &Spec) -> CsvOptimizer {
    let builder = match spec.index {
        IndexKind::Alex => CsvConfigBuilder::alex(CostModel::default()),
        IndexKind::Lipp => CsvConfigBuilder::lipp(),
    };
    CsvOptimizer::new(
        builder
            .alpha(ALPHA)
            .greedy(GreedyMode::Lazy)
            .drift_tolerance(0.0)
            .build(),
    )
}

pub fn sharding() -> ShardingConfig {
    ShardingConfig::with_shards(SHARDS)
}

/// Where runs keep their records, span files and temporary data dirs:
/// inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh, empty data dir for one server's durable store.
pub fn fresh_data_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = out_dir().join(format!("data-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A running server and what it took to start it.
pub struct Served<I> {
    pub index: Arc<ShardedIndex<I>>,
    pub handle: ServerHandle,
    pub sink: Option<Arc<FileSink>>,
    pub reports: Vec<CsvReport>,
    /// Bulk load through listening, in seconds.
    pub setup_s: f64,
    /// The `ShardedIndex::optimize` call alone, in seconds.
    pub optimize_s: f64,
}

impl<I: BenchIndex> Served<I> {
    /// Stops the server and its engine and drops every handle on the
    /// index, so a durable store is closed when this returns.
    pub fn stop(self) -> ServerReport {
        let Served {
            index,
            handle,
            sink,
            ..
        } = self;
        let report = handle.shutdown();
        drop(index);
        drop(sink);
        report
    }
}

/// Builds and starts the server. With `log`, each step is a span.
pub fn start<I: BenchIndex>(
    spec: &Spec,
    records: &[KeyValue],
    data_dir: Option<&Path>,
    mut log: Option<&mut SpanLog>,
) -> Result<Served<I>, String> {
    let parent = log.as_deref().map(|l| l.open("bench.setup", 0, 0));
    let parent_id = parent.as_ref().map_or(0, |p| p.id);
    let step = |log: &mut Option<&mut SpanLog>, name: &'static str| {
        log.as_deref().map(|l| l.open(name, parent_id, 0))
    };
    let started = Instant::now();
    let optimizer = optimizer(spec);

    let open = step(&mut log, "concurrent.bulk_load");
    let sink = match spec.durability {
        Some(fsync) => {
            let dir = data_dir.ok_or("a durable workload needs a data dir")?;
            let config = DurabilityConfig::new(dir).with_fsync(fsync);
            let sink =
                FileSink::create(config).map_err(|e| format!("creating the durable store: {e}"))?;
            Some(Arc::new(sink))
        }
        None => None,
    };
    let index = Arc::new(match &sink {
        Some(sink) => ShardedIndex::<I>::bulk_load_durable(
            records,
            sharding(),
            Arc::clone(sink) as Arc<dyn DurabilitySink>,
        ),
        None => ShardedIndex::<I>::bulk_load(records, sharding()),
    });
    close(&mut log, open);

    let open = step(&mut log, "core.optimize");
    let optimize_started = Instant::now();
    let reports = index.optimize(&optimizer);
    let optimize_s = optimize_started.elapsed().as_secs_f64();
    close(&mut log, open);

    let open = step(&mut log, "concurrent.engine_spawn");
    let engine =
        MaintenanceEngine::new(optimizer, MaintenanceConfig::default()).spawn(Arc::clone(&index));
    close(&mut log, open);

    let open = step(&mut log, "server.spawn");
    let handle = csv_server::spawn(
        Arc::clone(&index),
        Some(engine),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("binding the server: {e}"))?;
    close(&mut log, open);
    let setup_s = started.elapsed().as_secs_f64();
    if let (Some(open), Some(l)) = (parent, log) {
        l.close(open, "");
    }
    Ok(Served {
        index,
        handle,
        sink,
        reports,
        setup_s,
        optimize_s,
    })
}

fn close(log: &mut Option<&mut SpanLog>, open: Option<crate::spans::Open>) {
    if let (Some(open), Some(l)) = (open, log.as_deref_mut()) {
        l.close(open, "");
    }
}

/// Bytes of every file in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
