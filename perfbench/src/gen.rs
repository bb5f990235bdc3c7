//! Seeded input generation. Everything a run sends is made here, before
//! any clock starts: the loaded records, every rung's ops, their Poisson
//! due times and their encoded frames.

use crate::spec::{Spec, Traffic, ZIPF_THETA};
use csv_common::key::{identity_records, Key, KeyValue, Value};
use csv_common::rng::SplitMix64;
use csv_datasets::{Dataset, Zipfian};
use csv_server::{encode_request, Request};
use std::collections::BTreeMap;

/// One request of the stream, as the checker sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    MultiGet(Vec<Key>),
    Get(Key),
    /// Insert-or-overwrite with a fresh version as the value.
    Put {
        key: Key,
        value: Value,
    },
    Range {
        lo: Key,
        hi: Key,
        limit: u32,
    },
}

impl Op {
    pub fn request(&self) -> Request {
        match self {
            Op::MultiGet(keys) => Request::MultiGet { keys: keys.clone() },
            Op::Get(key) => Request::Get { key: *key },
            Op::Put { key, value } => Request::Insert {
                key: *key,
                value: *value,
            },
            Op::Range { lo, hi, limit } => Request::Range {
                lo: *lo,
                hi: *hi,
                limit: *limit,
            },
        }
    }

    pub fn kind(&self) -> OpKind {
        match self {
            Op::MultiGet(_) | Op::Get(_) => OpKind::Get,
            Op::Put { .. } => OpKind::Write,
            Op::Range { .. } => OpKind::Scan,
        }
    }
}

/// The op families latencies are split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Get,
    Write,
    Scan,
}

impl OpKind {
    pub const ALL: [OpKind; 3] = [OpKind::Get, OpKind::Write, OpKind::Scan];
}

/// One rung of the ladder: a fixed offered rate and its ops.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Offered frames per second.
    pub rate: f64,
    pub ops: Vec<Op>,
    /// Due time of each op, in nanoseconds after the rung starts.
    pub due_ns: Vec<u64>,
    /// All frames back to back; frame `i` is `frames[offsets[i]..offsets[i + 1]]`.
    pub frames: Vec<u8>,
    pub offsets: Vec<usize>,
}

impl Rung {
    pub fn frame(&self, i: usize) -> &[u8] {
        &self.frames[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Everything one run sends, derived from the workload and the seed.
#[derive(Debug, Clone)]
pub struct Plan {
    pub records: Vec<KeyValue>,
    /// Warm-up frames sent at the reference rate first; checked, not
    /// reported.
    pub warmup: Rung,
    pub reference: Rung,
    pub ladder: Vec<Rung>,
    /// The pool of frames the closed-loop peak cycles through, sent last.
    pub peak: Rung,
}

/// Seconds of warm-up traffic before the reference rung.
pub const WARMUP_SECONDS: f64 = 0.5;

/// Stream state shared across rungs: the key universe, the samplers and
/// the keys already taken, so later rungs continue where earlier ones
/// stopped.
struct Stream<'a> {
    spec: &'a Spec,
    keys: Vec<Key>,
    zipf: Zipfian,
    rng: SplitMix64,
    live: BTreeMap<Key, Value>,
    next_version: Value,
}

impl Stream<'_> {
    fn zipf_key(&mut self) -> Key {
        self.zipf.sample_keys(&self.keys, 1)[0]
    }

    /// A key strictly inside a gap between two loaded keys that no earlier
    /// op has taken.
    fn gap_key(&mut self) -> Key {
        let live = &self.live;
        gap_key(&self.keys, &mut self.rng, |key| live.contains_key(&key))
    }

    fn put(&mut self, key: Key) -> Op {
        let value = self.next_version;
        self.next_version += 1;
        self.live.insert(key, value);
        Op::Put { key, value }
    }

    fn next_op(&mut self) -> Op {
        match self.spec.traffic {
            Traffic::ReadBatch { batch } => {
                Op::MultiGet((0..batch).map(|_| self.zipf_key()).collect())
            }
            Traffic::WriteMixed {
                get_pct,
                overwrite_pct,
                insert_pct,
            } => {
                let roll = self
                    .rng
                    .next_below(u64::from(get_pct + overwrite_pct + insert_pct));
                if roll < u64::from(get_pct) {
                    Op::Get(self.zipf_key())
                } else if roll < u64::from(get_pct + overwrite_pct) {
                    let key = self.zipf_key();
                    self.put(key)
                } else {
                    let key = self.gap_key();
                    self.put(key)
                }
            }
            Traffic::Scan { limit } => {
                let lo = self.zipf_key();
                Op::Range {
                    lo,
                    hi: Key::MAX,
                    limit,
                }
            }
        }
    }

    /// Ops with Poisson arrivals at `rate` for `seconds`.
    fn rung(&mut self, rate: f64, seconds: f64) -> Rung {
        let horizon = (seconds * 1e9) as u64;
        let mut due_ns = Vec::new();
        let mut t = 0f64;
        loop {
            // Exponential inter-arrival gap; 1 - u lies in (0, 1].
            t += -(1.0 - self.rng.next_f64()).ln() / rate * 1e9;
            if t as u64 >= horizon {
                break;
            }
            due_ns.push(t as u64);
        }
        self.frames(rate, due_ns)
    }

    /// `frames` ops with no schedule, for closed-loop pacing.
    fn pool(&mut self, frames: usize) -> Rung {
        self.frames(f64::INFINITY, vec![0; frames])
    }

    fn frames(&mut self, rate: f64, due_ns: Vec<u64>) -> Rung {
        let ops: Vec<Op> = due_ns.iter().map(|_| self.next_op()).collect();
        let mut frames = Vec::new();
        let mut offsets = Vec::with_capacity(ops.len() + 1);
        offsets.push(0);
        for op in &ops {
            encode_request(&op.request(), &mut frames);
            offsets.push(frames.len());
        }
        Rung {
            rate,
            ops,
            due_ns,
            frames,
            offsets,
        }
    }
}

/// The seed of every workload's key set: `csv-index`'s default `--seed`.
/// The run's own seed varies the traffic, not the data, because OSM-like
/// key sets drawn from different seeds differ enough in shape to move
/// lookup latency and index size by more than a regression bound.
pub const DATASET_SEED: u64 = 42;

/// The records a workload loads: OSM-like keys, identity values.
pub fn records(spec: &Spec) -> Vec<KeyValue> {
    identity_records(&Dataset::Osm.generate(spec.keys, DATASET_SEED))
}

/// Builds the whole run's input for `seed` and `seconds` of measurement.
pub fn plan(spec: &Spec, seed: u64, seconds: f64) -> Plan {
    let records = records(spec);
    let keys: Vec<Key> = records.iter().map(|r| r.key).collect();
    let live = records.iter().map(|r| (r.key, r.value)).collect();
    let mut stream = Stream {
        spec,
        zipf: Zipfian::new(keys.len(), ZIPF_THETA, seed ^ 0x5EED_21F0),
        keys,
        rng: SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xB0B),
        live,
        next_version: 1,
    };
    let (reference_seconds, ladder_seconds, _) = spec.phase_seconds(seconds);
    let warmup = stream.rung(spec.reference_rate, WARMUP_SECONDS);
    let reference = stream.rung(spec.reference_rate, reference_seconds);
    let ladder = spec
        .ladder
        .iter()
        .map(|&rate| stream.rung(rate, ladder_seconds))
        .collect();
    let peak = stream.pool(spec.peak_pool);
    Plan {
        records,
        warmup,
        reference,
        ladder,
        peak,
    }
}

/// A key strictly between two neighbours of `keys` (sorted) for which
/// `taken` is false.
fn gap_key(keys: &[Key], rng: &mut SplitMix64, taken: impl Fn(Key) -> bool) -> Key {
    loop {
        let i = rng.next_below(keys.len() as u64 - 1) as usize;
        let (lo, hi) = (keys[i], keys[i + 1]);
        if hi - lo < 2 {
            continue;
        }
        let key = rng.next_in_range(lo + 1, hi - 1);
        if !taken(key) {
            return key;
        }
    }
}

/// `count` distinct fresh keys in the gaps of `live`, for the traced
/// run's write probe.
pub fn probe_gap_keys(live: &BTreeMap<Key, Value>, count: usize, seed: u64) -> Vec<Key> {
    let keys: Vec<Key> = live.keys().copied().collect();
    let mut rng = SplitMix64::new(seed ^ 0x009B_0BE5);
    let mut fresh = std::collections::BTreeSet::new();
    while fresh.len() < count {
        let key = gap_key(&keys, &mut rng, |key| fresh.contains(&key));
        fresh.insert(key);
    }
    fresh.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::find;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for name in ["read_batch", "write_mixed", "scan"] {
            let spec = find(name).unwrap();
            let a = plan(spec, 7, 0.4);
            let b = plan(spec, 7, 0.4);
            let c = plan(spec, 8, 0.4);
            assert_eq!(a.records, b.records, "{name}");
            assert_eq!(a.records, c.records, "{name}: the key set is fixed");
            for (x, y) in a
                .ladder
                .iter()
                .zip(&b.ladder)
                .chain([(&a.reference, &b.reference), (&a.peak, &b.peak)])
            {
                assert_eq!(x.ops, y.ops, "{name}");
                assert_eq!(x.due_ns, y.due_ns, "{name}");
                assert_eq!(x.frames, y.frames, "{name}");
            }
            assert_ne!(a.reference.ops, c.reference.ops, "{name}");
            assert_ne!(a.reference.due_ns, c.reference.due_ns, "{name}");
        }
    }

    #[test]
    fn rates_and_mix_follow_the_spec() {
        let spec = find("write_mixed").unwrap();
        let p = plan(spec, 3, 4.0);
        let rung = &p.reference;
        let expected = spec.reference_rate * 4.0 * spec.reference_share;
        let n = rung.ops.len() as f64;
        assert!((n - expected).abs() < 0.2 * expected, "{n} vs {expected}");
        let gets = rung.ops.iter().filter(|o| matches!(o, Op::Get(_))).count() as f64;
        assert!((gets / n - 0.5).abs() < 0.08, "get share {}", gets / n);
        assert!(rung.due_ns.windows(2).all(|w| w[0] <= w[1]));
        let loaded: std::collections::BTreeSet<Key> = p.records.iter().map(|r| r.key).collect();
        let fresh = rung
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Put { key, .. } if !loaded.contains(key)))
            .count() as f64;
        assert!(
            (fresh / n - 0.25).abs() < 0.08,
            "insert share {}",
            fresh / n
        );
    }
}
