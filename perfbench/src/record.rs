//! The run record: a small JSON writer, the host stamp and the summary
//! statistics every metric is reported with.

use std::fmt::Write as _;
use std::path::Path;

/// A JSON value, enough for the run record and the result line.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(fields: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => {
                if x.fract() == 0.0 && x.abs() < 9e15 {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// One reported metric: value, unit and how many samples it rests on.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// The `q`-quantile of `values` (sorted in place), nearest rank.
pub fn quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Cumulative CPU jiffies from `/proc/stat`: (steal, total).
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = *fields.get(7)?;
    // guest and guest_nice are already counted in user and nice.
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// Share of CPU time the host stole between two `cpu_jiffies` readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// CPU time in nanoseconds that this process's thread named `name` has
/// run for, from its scheduler statistics.
pub fn thread_cpu_ns(name: &str) -> Option<u64> {
    std::fs::read_dir("/proc/self/task")
        .ok()?
        .flatten()
        .find_map(|task| {
            let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
            if comm.trim() != name {
                return None;
            }
            let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse().ok()
        })
}

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The commit the benchmark runs from, read from `.git` in the working
/// directory when there is one (never from a repository above it).
fn git_rev() -> (String, Json) {
    let Some(head) = read_trimmed(".git/HEAD") else {
        return ("unknown".into(), Json::Null);
    };
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => read_trimmed(Path::new(".git").join(reference))
            .or_else(|| {
                read_trimmed(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
        None => head,
    };
    let dirty = std::process::Command::new("git")
        .args(["--git-dir=.git", "--work-tree=.", "status", "--porcelain"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or(Json::Null, |o| Json::Bool(!o.stdout.is_empty()));
    (rev, dirty)
}

/// The host and build a run was measured on.
pub fn stamp(seed: u64, fsync: &str) -> Json {
    let (rev, dirty) = git_rev();
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cache = |level: u32| {
        (0..8)
            .map(|i| format!("/sys/devices/system/cpu/cpu0/cache/index{i}"))
            .find(|dir| read_trimmed(format!("{dir}/level")) == Some(level.to_string()))
            .and_then(|dir| read_trimmed(format!("{dir}/size")))
            .map_or(Json::Null, Json::Str)
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("git_rev", Json::Str(rev)),
        ("git_dirty", dirty),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("l2_cache", cache(2)),
        ("l3_cache", cache(3)),
        (
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Json::Num(seed as f64)),
        ("fsync_policy", Json::str(fsync)),
    ])
}

pub fn metrics_json(metrics: &[Metric], with_samples: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::str(m.unit)),
                ];
                if with_samples {
                    fields.push(("samples".to_string(), Json::Num(m.samples as f64)));
                }
                (m.name.to_string(), Json::Obj(fields))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_and_quantiles() {
        let j = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::str("x\"y")),
            ("c", Json::Num(3.0)),
        ]);
        assert_eq!(j.to_string(), r#"{"a": 1.5, "b": "x\"y", "c": 3}"#);
        let mut v = vec![5, 1, 4, 2, 3];
        assert_eq!(quantile(&mut v, 0.5), 3);
        assert_eq!(quantile(&mut v, 0.99), 5);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
