//! Host fingerprint, process memory and the order statistics every
//! metric is reported with.

use hetsolve::obs::Json;

/// What a result was measured on: a later run can only be compared with
/// one whose fingerprint matches.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub profile: &'static str,
    pub rustc: &'static str,
    /// Threads the kernels' pool runs (`rayon::current_num_threads`).
    pub kernel_threads: usize,
    /// OS threads of this process, sampled at the end of the run.
    pub process_threads: usize,
}

impl Fingerprint {
    pub fn capture() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            profile: env!("HOSTBENCH_PROFILE"),
            rustc: env!("HOSTBENCH_RUSTC"),
            kernel_threads: rayon::current_num_threads(),
            process_threads: proc_status_kb("Threads:").unwrap_or(0) as usize,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::from(self.nproc)),
            ("cpu_model", Json::from(self.cpu_model.as_str())),
            ("profile", Json::from(self.profile)),
            ("rustc", Json::from(self.rustc)),
            ("kernel_threads", Json::from(self.kernel_threads)),
            ("process_threads", Json::from(self.process_threads)),
            (
                "note",
                Json::from(if self.kernel_threads == 1 {
                    "kernel pool runs one thread: a speed-up here is not parallelism"
                } else {
                    "kernel pool runs several threads"
                }),
            ),
        ])
    }
}

/// A numeric field of `/proc/self/status` (`VmHWM:` is in kB, `Threads:`
/// is a count).
fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 * 1024.0)
}

/// Median of `v` (mean of the middle pair for an even count); 0 for an
/// empty slice.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile `q` in [0, 1] of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
