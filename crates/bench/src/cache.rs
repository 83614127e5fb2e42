//! Deterministic run cache.
//!
//! The simulation is fully deterministic, so a (workload, system,
//! platform, iterations, seed) combination always produces the same
//! [`RunReport`]. Several experiments share runs (Fig. 9 feeds Tables 4
//! and 5); caching reports as JSON under `results/cache/` lets each
//! binary stay self-contained without re-simulating shared cells.

use std::path::{Path, PathBuf};

use deepum_baselines::report::{RunError, RunReport};
use serde::{Deserialize, Serialize};

/// Cache format version; bump when simulator semantics or the report
/// schema change enough to invalidate stored reports. v16: `RunReport`
/// gains the optional `wear` section (omitted when absent) for ECC page
/// retirement and multi-generation checkpoint recovery.
const VERSION: &str = "v16";

#[derive(Debug, Serialize, Deserialize)]
enum Cached {
    Ok(Box<RunReport>),
    Err(RunError),
}

/// A JSON-file cache for run reports.
#[derive(Debug, Clone)]
pub struct RunCache {
    dir: PathBuf,
    /// Disable to force re-simulation.
    pub enabled: bool,
}

impl RunCache {
    /// Cache living under `out_dir/cache`.
    pub fn new(out_dir: &Path) -> Self {
        RunCache {
            dir: out_dir.join("cache"),
            enabled: true,
        }
    }

    fn path(&self, key: &str) -> PathBuf {
        let safe: String = key
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.dir.join(format!("{VERSION}-{safe}.json"))
    }

    /// Returns the cached result for `key`, or computes and stores it.
    pub fn run<F>(&self, key: &str, f: F) -> Result<RunReport, RunError>
    where
        F: FnOnce() -> Result<RunReport, RunError>,
    {
        let path = self.path(key);
        if self.enabled {
            if let Ok(body) = std::fs::read_to_string(&path) {
                if let Ok(cached) = serde_json::from_str::<Cached>(&body) {
                    eprintln!("[cache hit] {key}");
                    return match cached {
                        Cached::Ok(r) => Ok(*r),
                        Cached::Err(e) => Err(e),
                    };
                }
            }
        }
        eprintln!("[running]  {key}");
        let started = std::time::Instant::now();
        let result = f();
        eprintln!(
            "[done]     {key} ({:.1}s wall)",
            started.elapsed().as_secs_f64()
        );
        if self.enabled {
            std::fs::create_dir_all(&self.dir).ok();
            let cached = match &result {
                Ok(r) => Cached::Ok(Box::new(r.clone())),
                Err(e) => Cached::Err(e.clone()),
            };
            if let Ok(body) = serde_json::to_string(&cached) {
                std::fs::write(&path, body).ok();
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepum_sim::metrics::Counters;
    use deepum_sim::time::Ns;

    fn dummy() -> RunReport {
        RunReport {
            workload: "w".into(),
            system: "s".into(),
            iters: vec![],
            total: Ns::from_secs(1),
            energy_joules: 1.0,
            counters: Counters::default(),
            table_bytes: None,
            health: None,
            recovery: None,
            trace: None,
            pressure: None,
            tenants: None,
            serving: None,
            wear: None,
        }
    }

    #[test]
    fn caches_ok_results() {
        let dir = std::env::temp_dir().join(format!("deepum-cache-{}", std::process::id()));
        let cache = RunCache::new(&dir);
        let mut calls = 0;
        for _ in 0..2 {
            let r = cache
                .run("k1", || {
                    calls += 1;
                    Ok(dummy())
                })
                .unwrap();
            assert_eq!(r.workload, "w");
        }
        assert_eq!(calls, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn caches_errors_too() {
        let dir = std::env::temp_dir().join(format!("deepum-cache-e-{}", std::process::id()));
        let cache = RunCache::new(&dir);
        let mut calls = 0;
        for _ in 0..2 {
            let e = cache
                .run("oom", || {
                    calls += 1;
                    Err(RunError::OutOfMemory("x".into()))
                })
                .unwrap_err();
            assert!(matches!(e, RunError::OutOfMemory(_)));
        }
        assert_eq!(calls, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_cache_recomputes() {
        let dir = std::env::temp_dir().join(format!("deepum-cache-d-{}", std::process::id()));
        let mut cache = RunCache::new(&dir);
        cache.enabled = false;
        let mut calls = 0;
        for _ in 0..2 {
            cache
                .run("k", || {
                    calls += 1;
                    Ok(dummy())
                })
                .unwrap();
        }
        assert_eq!(calls, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keys_sanitize_to_filenames() {
        let cache = RunCache::new(Path::new("/tmp"));
        let p = cache.path("gpt2-xl/b7 um@32GB");
        let name = p.file_name().unwrap().to_str().unwrap();
        assert!(!name.contains('/') && !name.contains(' '));
    }

    #[test]
    fn cache_filenames_pin_the_format_version() {
        // Decode-compat guard: cache files are namespaced by VERSION, so
        // a report-schema change must bump it or stale files would parse
        // under the new schema. v16 = the optional wear section.
        assert_eq!(VERSION, "v16");
        let cache = RunCache::new(Path::new("/tmp"));
        let name = cache
            .path("k")
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .to_string();
        assert!(name.starts_with("v16-"), "{name}");
        // And the v16 minimal report really has no null members.
        let body = serde_json::to_string(&dummy()).unwrap();
        assert!(!body.contains("null"), "{body}");
    }
}
