//! Host memory readings from `/proc/self`.

use std::fs;

/// Reads one `kB` field (such as `VmHWM` or `VmRSS`) of `/proc/self/status`.
fn status_kb(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

fn kb_to_mb(kb: u64) -> f64 {
    kb as f64 * 1024.0 / 1e6
}

/// The process's peak resident set (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM").map(kb_to_mb)
}

/// Resets the process's high-water mark to its current resident set, where
/// the kernel permits; returns whether it did.
fn reset_peak() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// How [`measure_rss`] attributed memory to a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RssMethod {
    /// The high-water mark was reset through `/proc/self/clear_refs`, so the
    /// reading is the call's peak above the resident set it started from.
    HwmReset,
    /// The kernel refused the reset; the reading is the resident-set growth
    /// across the call, which misses memory freed before it returned.
    RssDelta,
}

/// Runs `f` and returns its result with the resident memory it added, in MB.
///
/// This resets the high-water mark, so callers use it only in runs that do
/// not report [`peak_rss_mb`].
pub fn measure_rss<T>(f: impl FnOnce() -> T) -> (T, f64, RssMethod) {
    let method = if reset_peak() {
        RssMethod::HwmReset
    } else {
        RssMethod::RssDelta
    };
    let before = status_kb("VmRSS").unwrap_or(0);
    let out = f();
    let after = match method {
        RssMethod::HwmReset => status_kb("VmHWM"),
        RssMethod::RssDelta => status_kb("VmRSS"),
    }
    .unwrap_or(before);
    (out, kb_to_mb(after.saturating_sub(before)), method)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_shows_up_in_the_measured_growth() {
        let (v, mb, _) = measure_rss(|| vec![1u8; 64 << 20]);
        assert_eq!(v.len(), 64 << 20);
        assert!(mb > 32.0, "64 MiB touched, measured {mb} MB");
        assert!(peak_rss_mb().expect("VmHWM readable") >= mb);
    }
}
