//! The response checker. It keeps the latest acked version of every key
//! and holds each response to it: one connection sees its own writes
//! exactly, so any difference is a wrong answer, never noise.

use crate::gen::Op;
use csv_common::key::{Key, KeyValue, Value};
use csv_server::Response;
use std::collections::BTreeMap;

/// What a correct server holds after every acked op so far.
#[derive(Debug, Clone)]
pub struct Checker {
    live: BTreeMap<Key, Value>,
    /// Writes acked so far.
    pub acked_writes: u64,
}

/// Outcome of one response that was not a wrong answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The server answered with a typed error: a failure, not a wrong
    /// answer.
    Failed,
}

impl Checker {
    pub fn new(records: &[KeyValue]) -> Self {
        Self {
            live: records.iter().map(|r| (r.key, r.value)).collect(),
            acked_writes: 0,
        }
    }

    pub fn live(&self) -> &BTreeMap<Key, Value> {
        &self.live
    }

    /// The records a correct `Range` returns.
    pub fn expected_range(&self, lo: Key, hi: Key, limit: u32) -> Vec<KeyValue> {
        let take = if limit == 0 {
            usize::MAX
        } else {
            limit as usize
        };
        self.live
            .range(lo..=hi)
            .take(take)
            .map(|(&key, &value)| KeyValue { key, value })
            .collect()
    }

    /// Checks `response` against `op` and applies the op's effect. An
    /// `Err` names the wrong answer.
    pub fn check(&mut self, op: &Op, response: &Response) -> Result<Verdict, String> {
        if let Response::Error(_) = response {
            // The op's effect is unknown; a later read of the key would
            // surface any divergence as a wrong answer.
            return Ok(Verdict::Failed);
        }
        match (op, response) {
            (Op::Get(key), Response::Value(got)) => {
                let want = self.live.get(key).copied();
                if *got != want {
                    return Err(format!("get {key}: got {got:?}, want {want:?}"));
                }
            }
            (Op::MultiGet(keys), Response::Values(got)) => {
                if got.len() != keys.len() {
                    return Err(format!(
                        "multi_get of {} keys answered {} values",
                        keys.len(),
                        got.len()
                    ));
                }
                for (key, got) in keys.iter().zip(got) {
                    let want = self.live.get(key).copied();
                    if *got != want {
                        return Err(format!("multi_get key {key}: got {got:?}, want {want:?}"));
                    }
                }
            }
            (Op::Put { key, value }, Response::Inserted(fresh)) => {
                let want = !self.live.contains_key(key);
                if *fresh != want {
                    return Err(format!(
                        "insert {key}: got fresh={fresh}, want fresh={want}"
                    ));
                }
                self.live.insert(*key, *value);
                self.acked_writes += 1;
            }
            (Op::Range { lo, hi, limit }, Response::Records { records, truncated }) => {
                check_scan_shape(*lo, *hi, *limit, records)?;
                let want = self.expected_range(*lo, *hi, *limit);
                if *truncated || records != &want {
                    let first_diff = records
                        .iter()
                        .zip(&want)
                        .position(|(a, b)| a != b)
                        .unwrap_or(records.len().min(want.len()));
                    return Err(format!(
                        "range [{lo}, {hi}] limit {limit}: got {} records (truncated={truncated}), \
                         want {}; first difference at position {first_diff}",
                        records.len(),
                        want.len()
                    ));
                }
            }
            (op, response) => {
                return Err(format!("{op:?} answered with {response:?}"));
            }
        }
        Ok(Verdict::Ok)
    }

    /// Checks a recovered store against every acked write: each live key
    /// present at its latest acked version and nothing else.
    pub fn check_recovered(
        &self,
        len: usize,
        get: impl Fn(Key) -> Option<Value>,
    ) -> Result<(), String> {
        for (&key, &value) in &self.live {
            let got = get(key);
            if got != Some(value) {
                return Err(format!(
                    "recovered store lost an acked write: key {key} reads {got:?}, acked {value}"
                ));
            }
        }
        if len != self.live.len() {
            return Err(format!(
                "recovered store holds {len} keys, acked state holds {}",
                self.live.len()
            ));
        }
        Ok(())
    }
}

/// The shape every scan answer must have, whatever the data: ascending,
/// inside `[lo, hi]` and no longer than `limit`.
fn check_scan_shape(lo: Key, hi: Key, limit: u32, records: &[KeyValue]) -> Result<(), String> {
    if limit != 0 && records.len() > limit as usize {
        return Err(format!(
            "range [{lo}, {hi}]: {} records exceed limit {limit}",
            records.len()
        ));
    }
    if let Some(r) = records.iter().find(|r| r.key < lo || r.key > hi) {
        return Err(format!("range [{lo}, {hi}]: key {} is outside", r.key));
    }
    if let Some(w) = records.windows(2).find(|w| w[0].key >= w[1].key) {
        return Err(format!(
            "range [{lo}, {hi}]: keys not ascending ({} then {})",
            w[0].key, w[1].key
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> Checker {
        Checker::new(&[10, 20, 30, 40].map(KeyValue::identity))
    }

    #[test]
    fn accepts_right_answers_and_tracks_writes() {
        let mut c = checker();
        let put = Op::Put { key: 25, value: 7 };
        assert_eq!(c.check(&put, &Response::Inserted(true)), Ok(Verdict::Ok));
        assert_eq!(
            c.check(&Op::Get(25), &Response::Value(Some(7))),
            Ok(Verdict::Ok)
        );
        let scan = Op::Range {
            lo: 15,
            hi: 100,
            limit: 2,
        };
        let records = vec![KeyValue::identity(20), KeyValue::new(25, 7)];
        let answer = Response::Records {
            records,
            truncated: false,
        };
        assert_eq!(c.check(&scan, &answer), Ok(Verdict::Ok));
        assert_eq!(c.acked_writes, 1);
    }

    #[test]
    fn rejects_an_injected_wrong_value() {
        let mut c = checker();
        assert!(c.check(&Op::Get(20), &Response::Value(Some(21))).is_err());
        assert!(c.check(&Op::Get(21), &Response::Value(Some(21))).is_err());
        let batch = Op::MultiGet(vec![10, 30]);
        assert!(c
            .check(&batch, &Response::Values(vec![Some(10), None]))
            .is_err());
        // A write the connection made must be read back exactly.
        c.check(&Op::Put { key: 30, value: 99 }, &Response::Inserted(false))
            .unwrap();
        assert!(c.check(&Op::Get(30), &Response::Value(Some(30))).is_err());
    }

    #[test]
    fn rejects_bad_scans() {
        let mut c = checker();
        let scan = Op::Range {
            lo: 10,
            hi: 40,
            limit: 3,
        };
        let out_of_order = Response::Records {
            records: [10, 30, 20].map(KeyValue::identity).to_vec(),
            truncated: false,
        };
        let err = c.check(&scan, &out_of_order).unwrap_err();
        assert!(err.contains("ascending"), "{err}");
        let missing = Response::Records {
            records: [10, 30, 40].map(KeyValue::identity).to_vec(),
            truncated: false,
        };
        assert!(c.check(&scan, &missing).is_err());
        let over_limit = Response::Records {
            records: [10, 20, 30, 40].map(KeyValue::identity).to_vec(),
            truncated: false,
        };
        assert!(c.check(&scan, &over_limit).unwrap_err().contains("limit"));
        let outside = Op::Range {
            lo: 15,
            hi: 35,
            limit: 0,
        };
        let answer = Response::Records {
            records: [10, 20, 30].map(KeyValue::identity).to_vec(),
            truncated: false,
        };
        assert!(c.check(&outside, &answer).unwrap_err().contains("outside"));
    }

    #[test]
    fn rejects_a_missing_acked_write() {
        let mut c = checker();
        c.check(&Op::Put { key: 35, value: 5 }, &Response::Inserted(true))
            .unwrap();
        let mut recovered = c.live().clone();
        assert!(c
            .check_recovered(recovered.len(), |k| recovered.get(&k).copied())
            .is_ok());
        recovered.remove(&35);
        let err = c
            .check_recovered(recovered.len(), |k| recovered.get(&k).copied())
            .unwrap_err();
        assert!(err.contains("35"), "{err}");
        // An acked overwrite recovered at its old version is also lost.
        c.check(&Op::Put { key: 10, value: 6 }, &Response::Inserted(false))
            .unwrap();
        let stale = checker();
        let mut old = stale.live().clone();
        old.insert(35, 5);
        assert!(c
            .check_recovered(old.len(), |k| old.get(&k).copied())
            .is_err());
    }

    #[test]
    fn typed_errors_count_as_failures_not_wrong_answers() {
        let mut c = checker();
        let verdict = c.check(&Op::Get(10), &Response::Error("busy".into()));
        assert_eq!(verdict, Ok(Verdict::Failed));
    }
}
