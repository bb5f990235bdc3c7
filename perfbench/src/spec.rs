//! The three workloads: what each server holds, what traffic it receives,
//! the ladder of offered rates it climbs and the latency limit each rung
//! must meet. README.md gives the reason for every choice.

use csv_durability::FsyncPolicy;

/// Which learned index backs the shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    Alex,
    Lipp,
}

impl IndexKind {
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::Alex => "ALEX",
            IndexKind::Lipp => "LIPP",
        }
    }
}

/// The traffic a workload sends, one frame per entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// 100% reads as `MultiGet` frames of `batch` Zipfian keys.
    ReadBatch { batch: usize },
    /// One frame per op: Zipfian `Get`s, overwrites of Zipfian-hot keys and
    /// fresh inserts into key gaps, in the given percentages.
    WriteMixed {
        get_pct: u32,
        overwrite_pct: u32,
        insert_pct: u32,
    },
    /// 100% `Range` frames starting at a Zipfian key, `limit` records each.
    Scan { limit: u32 },
}

/// One workload, fully fixed: a run is chosen by its name and a seed.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub index: IndexKind,
    /// Keys bulk-loaded (OSM-like).
    pub keys: usize,
    /// `Some` when the server logs to a `FileSink` in a fresh data dir.
    pub durability: Option<FsyncPolicy>,
    pub traffic: Traffic,
    /// The p99 a rung must meet, per frame, in microseconds.
    pub limit_p99_us: f64,
    /// Offered frames per second of the reference rung, which runs first
    /// and longest; `p50_us` and the per-kind latencies come from it.
    pub reference_rate: f64,
    /// Offered rates in frames per second, climbed bottom up after the
    /// reference rung until one misses the limit.
    pub ladder: &'static [f64],
    /// Shares of the measured seconds given to the reference rung and to
    /// the closing closed-loop peak; the ladder's rungs split the rest.
    pub reference_share: f64,
    pub peak_share: f64,
    /// How many distinct frames the peak cycles through.
    pub peak_pool: usize,
}

/// Shards every workload's index is split into.
pub const SHARDS: usize = 8;
/// CSV smoothing threshold α of every workload (the paper's default).
pub const ALPHA: f64 = 0.1;
/// Zipfian skew of every key choice (YCSB's default).
pub const ZIPF_THETA: f64 = 0.99;
/// Frames the closed-loop peak keeps in flight.
pub const PEAK_WINDOW: usize = 64;

impl Spec {
    /// Ops one frame carries, so rates can be quoted per key.
    pub fn ops_per_frame(&self) -> usize {
        match self.traffic {
            Traffic::ReadBatch { batch } => batch,
            _ => 1,
        }
    }

    /// Seconds of the reference rung, of each ladder rung and of the peak.
    pub fn phase_seconds(&self, seconds: f64) -> (f64, f64, f64) {
        let reference = seconds * self.reference_share;
        let peak = seconds * self.peak_share;
        let rung = (seconds - reference - peak) / self.ladder.len().max(1) as f64;
        (reference, rung, peak)
    }
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "read_batch",
        index: IndexKind::Alex,
        keys: 100_000,
        durability: None,
        traffic: Traffic::ReadBatch { batch: 64 },
        limit_p99_us: 1_000.0,
        reference_rate: 3_000.0,
        ladder: &[2_000.0, 4_000.0, 8_000.0, 16_000.0],
        reference_share: 0.7,
        peak_share: 0.1,
        peak_pool: 4_000,
    },
    Spec {
        name: "write_mixed",
        index: IndexKind::Lipp,
        keys: 200_000,
        durability: Some(FsyncPolicy::OnCheckpoint),
        traffic: Traffic::WriteMixed {
            get_pct: 50,
            overwrite_pct: 25,
            insert_pct: 25,
        },
        limit_p99_us: 10_000.0,
        reference_rate: 400.0,
        ladder: &[400.0, 1_600.0],
        reference_share: 0.7,
        peak_share: 0.2,
        peak_pool: 40_000,
    },
    Spec {
        name: "scan",
        index: IndexKind::Lipp,
        keys: 200_000,
        durability: None,
        traffic: Traffic::Scan { limit: 100 },
        limit_p99_us: 2_000.0,
        reference_rate: 3_000.0,
        ladder: &[2_000.0, 4_000.0, 8_000.0, 16_000.0],
        reference_share: 0.7,
        peak_share: 0.1,
        peak_pool: 4_000,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}
