//! What one workload run is asked to do and what it reports.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::inputs::Scale;
use crate::spec::{MetricSpec, Workload, END_TO_END, PER_LAYER};

/// One run of one workload, as the benchmark contract's flags describe it.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input and schedule.
    pub seed: u64,
    /// How long to measure, in seconds.
    pub seconds: f64,
    /// Traced mode: report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory (inside the checkout) for store files; each run works in
    /// its own subdirectory and removes it.
    pub scratch: PathBuf,
}

/// The result of one run: the contract's `correct` / `attempted` /
/// `failed` / `metrics`, plus the output digest.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (all of them when an output check fails).
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// FNV-1a digest of the workload's final output.
    pub digest: u64,
    /// What went wrong, for humans (empty when `correct`).
    pub problems: Vec<String>,
}

impl Outcome {
    /// The value reported under `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The contract's result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json_line(&self, specs: &[MetricSpec]) -> String {
        let metrics: Vec<String> = specs
            .iter()
            .map(|spec| {
                let value = self.metric(spec.name).unwrap_or(f64::NAN);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    spec.name,
                    json_number(value),
                    spec.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The metric list a mode reports.
pub fn specs_for(trace: bool) -> &'static [MetricSpec] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// A float as a JSON number with all its digits (non-finite values have no
/// JSON form and render as `null`, which fails the reader loudly).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `0.0` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A directory under the run's scratch root that is removed on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a fresh, uniquely named directory under `root`.
    pub fn create(root: &Path, tag: &str) -> std::io::Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failed removal here.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_full_digits() {
        let outcome = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: END_TO_END.iter().map(|m| (m.name, 0.1 + 0.2)).collect(),
            digest: 7,
            problems: Vec::new(),
        };
        let line = outcome.to_json_line(&END_TO_END);
        assert!(!line.contains('\n'));
        let json = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = json.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = json.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = json.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").and_then(|u| u.as_str()), Some("s"));
        assert!(line.contains("0.30000000000000004"), "{line}");
    }

    #[test]
    fn scratch_dirs_are_unique_and_removed_on_drop() {
        let root = std::env::temp_dir().join(format!("lakebench-scratch-{}", std::process::id()));
        let (a, b) =
            (ScratchDir::create(&root, "t").unwrap(), ScratchDir::create(&root, "t").unwrap());
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        assert!(kept.is_dir());
        drop(a);
        assert!(!kept.exists());
        drop(b);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 1.0);
        }
    }
}
