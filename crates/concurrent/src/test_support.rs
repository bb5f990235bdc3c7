//! Fixtures shared by the crate's unit suites.

use core::ops::ControlFlow;
use csv_common::metrics::CostCounters;
use csv_common::sync::{AtomicBool, Ordering};
use csv_common::traits::{IndexStats, LearnedIndex, RangeIndex, RemovableIndex, SnapshotIndex};
use csv_common::{Key, KeyValue, Value};
use csv_core::cost::SubtreeCostStats;
use csv_core::csv::{RebuildRefusal, SubtreeRef};
use csv_core::layout::SmoothedLayout;
use csv_core::CsvIntegrable;
use csv_lipp::LippIndex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long either side of a [`PlanGate`] waits for the other before
/// failing the test instead of hanging it.
const GATE_TIMEOUT: Duration = Duration::from_secs(30);

/// A one-shot rendezvous that parks the next maintenance pass inside its
/// plan phase, so a test can act on the index while the pass holds a
/// captured snapshot and no lock.
#[derive(Debug, Default)]
pub(crate) struct PlanGate {
    armed: AtomicBool,
    parked: AtomicBool,
    released: AtomicBool,
}

impl PlanGate {
    /// Parks the next pass that starts planning on a [`GatedLipp`] holding
    /// this gate.
    pub(crate) fn arm(&self) {
        self.parked.store(false, Ordering::SeqCst);
        self.released.store(false, Ordering::SeqCst);
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Blocks until an armed pass is parked in its plan phase.
    pub(crate) fn wait_parked(&self) {
        wait_for(&self.parked, "no maintenance pass reached its plan phase");
    }

    /// Lets the parked pass carry on.
    pub(crate) fn release(&self) {
        self.released.store(true, Ordering::SeqCst);
    }

    /// The plan-phase hook: parks the first caller after [`PlanGate::arm`]
    /// until [`PlanGate::release`].
    fn park(&self) {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.parked.store(true, Ordering::SeqCst);
            wait_for(&self.released, "the parked pass was never released");
        }
    }
}

fn wait_for(flag: &AtomicBool, timeout_message: &str) {
    let deadline = Instant::now() + GATE_TIMEOUT;
    while !flag.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "{timeout_message}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A LIPP index whose maintenance passes can be parked by a [`PlanGate`]:
/// the optimizer's first call into a pass's private successor
/// (`csv_max_level`, from `sweep_levels`) waits on the gate. Clones share
/// the gate, so it survives the clone-and-replay fold every pass starts
/// from; a bulk load (a tombstone fold) drops it.
#[derive(Clone)]
pub(crate) struct GatedLipp {
    index: LippIndex,
    gate: Option<Arc<PlanGate>>,
}

impl GatedLipp {
    /// Attaches `gate` to this index and every clone made from it.
    pub(crate) fn attach(&mut self, gate: &Arc<PlanGate>) {
        self.gate = Some(Arc::clone(gate));
    }
}

impl LearnedIndex for GatedLipp {
    fn name(&self) -> &'static str {
        "GatedLIPP"
    }
    fn bulk_load(records: &[KeyValue]) -> Self {
        Self {
            index: LippIndex::bulk_load(records),
            gate: None,
        }
    }
    fn get(&self, key: Key) -> Option<Value> {
        self.index.get(key)
    }
    fn get_counted(&self, key: Key, counters: &mut CostCounters) -> Option<Value> {
        self.index.get_counted(key, counters)
    }
    fn insert(&mut self, key: Key, value: Value) -> bool {
        self.index.insert(key, value)
    }
    fn len(&self) -> usize {
        self.index.len()
    }
    fn stats(&self) -> IndexStats {
        self.index.stats()
    }
    fn level_of_key(&self, key: Key) -> Option<usize> {
        self.index.level_of_key(key)
    }
}

impl RangeIndex for GatedLipp {
    fn range(&self, lo: Key, hi: Key) -> Vec<KeyValue> {
        self.index.range(lo, hi)
    }
    fn range_visit(
        &self,
        lo: Key,
        hi: Key,
        f: &mut dyn FnMut(Key, Value) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.index.range_visit(lo, hi, f)
    }
}

impl RemovableIndex for GatedLipp {
    fn remove(&mut self, key: Key) -> Option<Value> {
        self.index.remove(key)
    }
}

impl SnapshotIndex for GatedLipp {}

impl CsvIntegrable for GatedLipp {
    fn csv_max_level(&self) -> usize {
        if let Some(gate) = &self.gate {
            gate.park();
        }
        self.index.csv_max_level()
    }
    fn csv_subtrees_at_level(&self, level: usize) -> Vec<SubtreeRef> {
        self.index.csv_subtrees_at_level(level)
    }
    fn csv_collect_keys_into(&self, subtree: &SubtreeRef, buf: &mut Vec<Key>) {
        self.index.csv_collect_keys_into(subtree, buf);
    }
    fn csv_subtree_cost(&self, subtree: &SubtreeRef) -> SubtreeCostStats {
        self.index.csv_subtree_cost(subtree)
    }
    fn csv_rebuild_subtree(
        &mut self,
        subtree: &SubtreeRef,
        layout: &SmoothedLayout,
    ) -> Result<(), RebuildRefusal> {
        self.index.csv_rebuild_subtree(subtree, layout)
    }
    fn csv_tracks_dirty(&self) -> bool {
        self.index.csv_tracks_dirty()
    }
    fn csv_dirty_subtrees_at_level(&self, level: usize) -> Vec<SubtreeRef> {
        self.index.csv_dirty_subtrees_at_level(level)
    }
    fn csv_mark_clean(&mut self) {
        self.index.csv_mark_clean();
    }
}
