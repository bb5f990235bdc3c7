//! Crash-recovery property tests: random operation sequences, a simulated
//! kill at an arbitrary write boundary (fault-injected WAL damage), then
//! recovery — whose result must equal a `BTreeMap` oracle's state at the
//! prefix of operations the store proves durable. Never a panic, never a
//! record the oracle had not yet acknowledged ("no silent data invention").

use csv_btree::BPlusTree;
use csv_common::key::identity_records;
use csv_common::sync::{AtomicUsize, Ordering};
use csv_common::{Key, KeyValue, Value};
use csv_concurrent::{
    MaintenanceAction, MaintenanceConfig, MaintenanceEngine, ReadPath, ShardedIndex,
    ShardingConfig, WriteOp,
};
use csv_core::{CsvConfig, CsvOptimizer};
use csv_durability::{
    read_manifest, recover, DurabilityConfig, Fault, FileSink, Recovered, MANIFEST_NAME,
};
use csv_lipp::LippIndex;
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// A unique, empty temp directory per test case.
fn test_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "csv-crash-recovery-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the test dir");
    dir
}

fn sharding(shards: usize) -> ShardingConfig {
    // A small overlay capacity forces folds — and therefore mid-sequence
    // checkpoints with WAL truncation — inside even short op sequences.
    ShardingConfig::with_shards(shards)
        .with_read_path(ReadPath::Rcu)
        .with_overlay_capacity(8)
}

/// One generated operation: upsert `key -> value` or remove `key`.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(Key, Value),
    Remove(Key),
}

/// Strategy for an op over a deliberately small key universe, so inserts
/// overwrite, removes hit, and removes miss — all three sequence behaviours.
fn op() -> impl Strategy<Value = Op> {
    (0u64..120, 0u64..4).prop_map(|(key, kind)| {
        if kind == 3 {
            Op::Remove(key)
        } else {
            Op::Insert(key, 1_000 + key * 7 + kind)
        }
    })
}

/// Strategy for the fault applied to the live WAL after the "crash":
/// nothing, a torn tail, a hard truncation, or a flipped bit.
fn wal_fault() -> impl Strategy<Value = Option<Fault>> {
    (0u64..4, 0u64..600, 0u8..8).prop_map(|(kind, offset, bit)| match kind {
        0 => None,
        1 => Some(Fault::DropTail(offset % 64)),
        2 => Some(Fault::TruncateAt(offset)),
        _ => Some(Fault::BitFlip { offset, bit }),
    })
}

/// Applies `op` to the oracle and reports whether it consumes a sequence
/// number (everything except removing an absent key does).
fn apply_to_oracle(oracle: &mut BTreeMap<Key, Value>, op: Op) -> bool {
    match op {
        Op::Insert(key, value) => {
            oracle.insert(key, value);
            true
        }
        Op::Remove(key) => oracle.remove(&key).is_some(),
    }
}

fn apply_to_index(index: &ShardedIndex<BPlusTree>, op: Op) {
    match op {
        Op::Insert(key, value) => {
            index.insert(key, value);
        }
        Op::Remove(key) => {
            index.remove(key);
        }
    }
}

fn as_records(oracle: &BTreeMap<Key, Value>) -> Vec<KeyValue> {
    oracle
        .iter()
        .map(|(&key, &value)| KeyValue::new(key, value))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole property. Single shard, so the shard's `last_seq` is a
    /// global clock: every acknowledged op except a remove-of-absent
    /// consumes exactly one sequence number (folds absorb the triggering
    /// write's number into the checkpoint), so the recovered state must be
    /// *bit-equal* to the oracle's snapshot at the recovered sequence — not
    /// merely some plausible subset.
    #[test]
    fn recovered_state_is_an_exact_oracle_prefix(
        ops in pvec(op(), 1..100),
        fault in wal_fault(),
    ) {
        let dir = test_dir("prefix");
        // Oracle snapshots indexed by sequence number: snapshots[s] is the
        // state after the first s sequence-consuming ops (bulk load is
        // sequence 0).
        let mut oracle: BTreeMap<Key, Value> =
            (0..60u64).map(|i| (i * 2, i * 2)).collect();
        let mut snapshots = vec![oracle.clone()];
        {
            let sink = Arc::new(FileSink::create(DurabilityConfig::new(&dir)).unwrap());
            let index: ShardedIndex<BPlusTree> = ShardedIndex::bulk_load_durable(
                &as_records(&oracle),
                sharding(1),
                sink,
            );
            for &op in &ops {
                apply_to_index(&index, op);
                if apply_to_oracle(&mut oracle, op) {
                    snapshots.push(oracle.clone());
                }
            }
            // Crash: the index and its sink are dropped mid-flight, no
            // shutdown protocol exists to miss.
        }
        // Damage the live WAL the way a kill at an arbitrary write
        // boundary (or bit rot) would.
        if let Some(fault) = fault {
            let entries = read_manifest(&dir.join(MANIFEST_NAME)).unwrap().unwrap();
            let wal = dir.join(format!("wal-{}.wal", entries[0].1));
            fault.apply_to(&wal).unwrap();
        }
        let recovered: Recovered<BPlusTree> =
            recover(DurabilityConfig::new(&dir), sharding(1)).unwrap();
        prop_assert_eq!(recovered.report.shards.len(), 1);
        let last = recovered.report.shards[0].last_seq as usize;
        prop_assert!(
            last < snapshots.len(),
            "recovery must never report sequences past what was acknowledged (last={}, acked={})",
            last,
            snapshots.len() - 1
        );
        if fault.is_none() {
            // Nothing was damaged: the full sequence must survive.
            prop_assert_eq!(last, snapshots.len() - 1);
            prop_assert_eq!(recovered.report.torn_shards(), 0);
        }
        let expected = &snapshots[last];
        // Both read paths over the recovered index must agree with the
        // oracle's durable prefix: the range scan...
        prop_assert_eq!(recovered.index.range(0, Key::MAX), as_records(expected));
        // ...and point lookups across the whole key universe (hits and
        // misses).
        for key in 0..120u64 {
            prop_assert_eq!(recovered.index.get(key), expected.get(&key).copied());
        }
        prop_assert_eq!(recovered.report.keys, expected.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Live-fault variant: the WAL file itself swallows every byte past a
    /// random offset while the store believes its writes landed — a crash
    /// *during* the op sequence rather than after it. Recovery must still
    /// produce an exact oracle prefix.
    #[test]
    fn live_wal_truncation_still_recovers_a_prefix(
        ops in pvec(op(), 1..80),
        cut in 0u64..400,
    ) {
        let dir = test_dir("live-cut");
        let mut oracle: BTreeMap<Key, Value> =
            (0..40u64).map(|i| (i * 3, i)).collect();
        let mut snapshots = vec![oracle.clone()];
        {
            let config = DurabilityConfig::new(&dir).with_wal_fault(Fault::TruncateAt(cut));
            let sink = Arc::new(FileSink::create(config).unwrap());
            let index: ShardedIndex<BPlusTree> =
                ShardedIndex::bulk_load_durable(&as_records(&oracle), sharding(1), sink);
            for &op in &ops {
                apply_to_index(&index, op);
                if apply_to_oracle(&mut oracle, op) {
                    snapshots.push(oracle.clone());
                }
            }
        }
        // Recover with a clean config: the fault modelled the dying
        // process, not the disk.
        let recovered: Recovered<BPlusTree> =
            recover(DurabilityConfig::new(&dir), sharding(1)).unwrap();
        let last = recovered.report.shards[0].last_seq as usize;
        prop_assert!(last < snapshots.len());
        let expected = &snapshots[last];
        prop_assert_eq!(recovered.index.range(0, Key::MAX), as_records(expected));
        for key in 0..120u64 {
            prop_assert_eq!(recovered.index.get(key), expected.get(&key).copied());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Multi-shard: each shard recovers its own durable prefix
    /// independently. One shard's WAL is damaged; the others must lose
    /// nothing, and the damaged one must roll back to a per-shard oracle
    /// prefix.
    #[test]
    fn each_shard_recovers_its_own_prefix(
        ops in pvec(op(), 1..120),
        drop_tail in 1u64..80,
        victim_pick in 0usize..4,
    ) {
        let dir = test_dir("multi");
        let initial: BTreeMap<Key, Value> =
            (0..120u64).map(|k| (k, k + 1)).collect();
        {
            let sink = Arc::new(FileSink::create(DurabilityConfig::new(&dir)).unwrap());
            let index: ShardedIndex<BPlusTree> =
                ShardedIndex::bulk_load_durable(&as_records(&initial), sharding(4), sink);
            for &op in &ops {
                apply_to_index(&index, op);
            }
        }
        // The durable layout's shard bounds, from the manifest itself.
        let entries = read_manifest(&dir.join(MANIFEST_NAME)).unwrap().unwrap();
        let bounds: Vec<Key> = entries.iter().map(|&(lower, _)| lower).collect();
        let route = |key: Key| bounds.partition_point(|&b| b <= key) - 1;
        // Replay the ops against per-shard oracles, snapshotting each shard
        // at every sequence-consuming op it receives.
        let mut oracles: Vec<BTreeMap<Key, Value>> = vec![BTreeMap::new(); bounds.len()];
        for (&key, &value) in &initial {
            oracles[route(key)].insert(key, value);
        }
        let mut snapshots: Vec<Vec<BTreeMap<Key, Value>>> =
            oracles.iter().map(|o| vec![o.clone()]).collect();
        for &op in &ops {
            let shard = route(match op { Op::Insert(k, _) | Op::Remove(k) => k });
            if apply_to_oracle(&mut oracles[shard], op) {
                let snap = oracles[shard].clone();
                snapshots[shard].push(snap);
            }
        }
        let victim = victim_pick % bounds.len();
        let wal = dir.join(format!("wal-{}.wal", entries[victim].1));
        Fault::DropTail(drop_tail).apply_to(&wal).unwrap();
        let recovered: Recovered<BPlusTree> =
            recover(DurabilityConfig::new(&dir), sharding(4)).unwrap();
        prop_assert_eq!(recovered.report.shards.len(), bounds.len());
        let mut expected_all: Vec<KeyValue> = Vec::new();
        for (shard, report) in recovered.report.shards.iter().enumerate() {
            let last = report.last_seq as usize;
            prop_assert!(last < snapshots[shard].len(), "shard {} over-recovered", shard);
            if shard != victim {
                // Undamaged shards lose nothing.
                prop_assert_eq!(last, snapshots[shard].len() - 1, "shard {} under-recovered", shard);
            }
            expected_all.extend(as_records(&snapshots[shard][last]));
        }
        prop_assert_eq!(recovered.index.range(0, Key::MAX), expected_all);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// After recovery the maintenance engine resumes warm: the replayed
/// structural writes are visible as staleness, the engine drains them to
/// quiescence, and the background thread stays healthy end to end.
#[test]
fn recovered_index_rearms_maintenance() {
    let dir = test_dir("rearm");
    let keys: Vec<Key> = (0..4_000u64).map(|i| i * 5).collect();
    {
        let sink = Arc::new(FileSink::create(DurabilityConfig::new(&dir)).unwrap());
        let index: ShardedIndex<LippIndex> =
            ShardedIndex::bulk_load_durable(&identity_records(&keys), sharding(4), sink);
        // Drain the fresh staleness, then add structural writes that will
        // live only in the WAL at crash time.
        let engine = MaintenanceEngine::new(
            CsvOptimizer::new(CsvConfig::for_lipp(0.1)),
            MaintenanceConfig::default(),
        );
        engine.run_until_idle(&index, 100);
        for i in 0..200u64 {
            index.insert(i * 5 + 1, i);
        }
    }
    let recovered: Recovered<LippIndex> =
        recover(DurabilityConfig::new(&dir), sharding(4)).unwrap();
    assert!(
        recovered.report.replayed() > 0,
        "the burst must replay from the WAL"
    );
    // The replayed structural writes re-armed the counters...
    let writes: usize = recovered
        .index
        .write_counters()
        .iter()
        .map(|&(writes, _)| writes)
        .sum();
    assert!(writes >= 1, "recovery must re-arm staleness, got {writes}");
    // ...and the background engine picks them up and quiesces, healthily.
    let index = Arc::new(recovered.index);
    let engine = MaintenanceEngine::new(
        CsvOptimizer::new(CsvConfig::for_lipp(0.1)),
        MaintenanceConfig::default(),
    );
    let handle = engine.spawn(Arc::clone(&index));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !index
        .write_counters()
        .iter()
        .all(|&(writes, maintained)| maintained && writes == 0)
    {
        assert!(
            std::time::Instant::now() < deadline,
            "engine never quiesced"
        );
        assert!(
            handle.is_healthy(),
            "engine wedged during recovery catch-up"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let stats = handle.shutdown().expect("no tick may panic");
    assert!(stats.maintain_passes + stats.checkpoints > 0);
    for i in (0..200u64).step_by(17) {
        assert_eq!(index.get(i * 5 + 1), Some(i));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite pin: a crash mid-group-commit recovers either *all* of a
/// batch's WAL frame or *none* of it, never a proper subset. A point write
/// then a `write_batch` land in one shard's WAL; cutting that WAL at every
/// byte must recover exactly one of the three acknowledged states — bulk
/// only, bulk + point write, or bulk + point write + whole batch — and both
/// non-trivial states must actually occur across the cuts.
#[test]
fn group_commits_recover_all_or_nothing() {
    let dir = test_dir("group-commit");
    let initial: BTreeMap<Key, Value> = (0..40u64).map(|i| (i * 3, i)).collect();
    // Fresh insert, tombstone, overwrite, fresh insert: every record shape
    // a batch frame can carry.
    let batch = [
        WriteOp::Insert { key: 1, value: 100 },
        WriteOp::Remove { key: 3 },
        WriteOp::Insert { key: 6, value: 600 },
        WriteOp::Insert {
            key: 121,
            value: 700,
        },
    ];
    {
        let sink = Arc::new(FileSink::create(DurabilityConfig::new(&dir)).unwrap());
        let index: ShardedIndex<BPlusTree> =
            ShardedIndex::bulk_load_durable(&as_records(&initial), sharding(1), sink);
        index.insert(0, 50);
        let outcome = index.write_batch(&batch);
        assert_eq!(outcome.fresh_inserts, 2);
        assert_eq!(outcome.removed, 1);
        // Crash: five buffered writes stay well under the capacity-8 fold,
        // so the WAL holds exactly one point record and one batch frame.
    }
    let mut pre = initial.clone();
    pre.insert(0, 50);
    let mut post = pre.clone();
    post.insert(1, 100);
    post.remove(&3);
    post.insert(6, 600);
    post.insert(121, 700);
    let states = [as_records(&initial), as_records(&pre), as_records(&post)];

    let entries = read_manifest(&dir.join(MANIFEST_NAME)).unwrap().unwrap();
    let wal_name = format!("wal-{}.wal", entries[0].1);
    let wal_len = std::fs::metadata(dir.join(&wal_name)).unwrap().len() as usize;
    let (mut seen_pre, mut seen_post) = (false, false);
    for cut in 0..=wal_len {
        // Recovery re-checkpoints the store, so each cut replays against a
        // fresh copy of the crashed directory.
        let scratch = test_dir("group-commit-cut");
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), scratch.join(entry.file_name())).unwrap();
        }
        Fault::TruncateAt(cut as u64)
            .apply_to(&scratch.join(&wal_name))
            .unwrap();
        let recovered: Recovered<BPlusTree> =
            recover(DurabilityConfig::new(&scratch), sharding(1)).unwrap();
        let got = recovered.index.range(0, Key::MAX);
        if got == states[2] {
            seen_post = true;
        } else if got == states[1] {
            seen_pre = true;
        } else {
            assert_eq!(
                got, states[0],
                "cut={cut} recovered a state no acknowledged prefix ever held \
                 (a partial batch?)"
            );
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
    assert!(
        seen_pre,
        "some cut must land between the point write and the batch"
    );
    assert!(seen_post, "the uncut tail must recover the whole batch");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A maintenance pass plans with no lock held, so writes keep landing in
/// the shard's log while it runs, and its install writes no checkpoint. A
/// crash right after (the index dropped without a shutdown) must still
/// recover every acknowledged write — from the pre-pass checkpoint plus
/// the un-truncated log — with no shard torn.
#[test]
fn writes_acked_during_a_maintenance_pass_survive_a_crash() {
    use csv_common::sync::AtomicBool;

    /// Caps the racing writes below the default overlay capacity of either
    /// shard, so no fold replaces a base and every pass installs.
    const MAX_WRITES: u64 = 6_000;
    let dir = test_dir("pass-crash");
    let initial: BTreeMap<Key, Value> = (0..20_000u64).map(|i| (i * 7, i)).collect();
    let config = ShardingConfig::with_shards(2).with_read_path(ReadPath::Rcu);
    let (oracle, acked_during_passes) = {
        let sink = Arc::new(FileSink::create(DurabilityConfig::new(&dir)).unwrap());
        let index: ShardedIndex<LippIndex> =
            ShardedIndex::bulk_load_durable(&as_records(&initial), config, sink);
        let engine = MaintenanceEngine::new(
            CsvOptimizer::new(CsvConfig::for_lipp(0.1)),
            MaintenanceConfig {
                checkpoint_backlog: None,
                ..MaintenanceConfig::default()
            },
        );
        let (writing, passing, passed) = (
            AtomicBool::new(false),
            AtomicBool::new(false),
            AtomicBool::new(false),
        );
        let outcome = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut oracle = initial.clone();
                let mut during = 0usize;
                for i in 0..MAX_WRITES {
                    if passed.load(Ordering::SeqCst) {
                        break;
                    }
                    let racing = passing.load(Ordering::SeqCst);
                    // Fresh inserts into the gaps, overwrites, removals.
                    match i % 3 {
                        0 => {
                            let key = (i * 13 % 20_000) * 7 + 3;
                            index.insert(key, i);
                            oracle.insert(key, i);
                        }
                        1 => {
                            let key = (i * 17 % 20_000) * 7;
                            index.insert(key, i + 1);
                            oracle.insert(key, i + 1);
                        }
                        _ => {
                            let key = (i * 19 % 20_000) * 7;
                            assert_eq!(index.remove(key), oracle.remove(&key));
                        }
                    }
                    writing.store(true, Ordering::SeqCst);
                    during += usize::from(racing && !passed.load(Ordering::SeqCst));
                }
                (oracle, during)
            });
            // Start the passes with the writer already mid-stream.
            while !writing.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            passing.store(true, Ordering::SeqCst);
            // One pass per (never maintained) shard.
            for _ in 0..2 {
                assert!(matches!(
                    engine.run_once(&index),
                    MaintenanceAction::Maintained {
                        completed: true,
                        ..
                    }
                ));
            }
            passed.store(true, Ordering::SeqCst);
            writer.join().expect("the writer must not panic")
        });
        assert_eq!(index.range(0, Key::MAX), as_records(&outcome.0));
        // Crash: the index and its sink are dropped with no shutdown.
        outcome
    };
    assert!(
        acked_during_passes > 0,
        "no write was acknowledged while the passes ran"
    );
    let recovered: Recovered<LippIndex> = recover(DurabilityConfig::new(&dir), config).unwrap();
    assert_eq!(recovered.report.torn_shards(), 0);
    assert_eq!(
        recovered.index.range(0, Key::MAX),
        as_records(&oracle),
        "recovery lost or invented a write acknowledged around a pass"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
