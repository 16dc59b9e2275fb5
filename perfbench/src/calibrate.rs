//! Host-speed calibration in a separate process.
//!
//! The host the benchmark was built on is shared, and the memory bandwidth
//! other tenants leave to it changes by tens of percent over seconds to
//! minutes. The simulator is memory-bound, so its wall-clock times swing with
//! it, by more than the changes worth detecting. The benchmark therefore
//! times a fixed memory sweep before and after every timed interval and
//! scales the interval by how much slower than [`REFERENCE_S`] the sweep ran
//! around it.
//!
//! The sweep runs in a child process (this binary, started with
//! [`CHILD_FLAG`]) over a buffer of its own that it faults in once when it
//! starts. The program's heap, page state and peak memory therefore cannot
//! change the sweep's speed. The buffer is larger than the host's last-level
//! cache (300 MiB), and each sweep covers the window touched longest ago, so
//! the sweep reads from memory whatever the program left in the cache.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::Instant;

/// The flag that makes the binary run as the calibration child.
pub const CHILD_FLAG: &str = "--calibration-child";

/// The sweep's typical time on the host the baseline was recorded on
/// (x86-64 Xeon, 2 vCPUs). Scaled times are wall-clock seconds on that host
/// at that memory bandwidth.
pub const REFERENCE_S: f64 = 0.012;

/// Words in the child's buffer (512 MiB), swept one window at a time.
const WORDS: usize = 64 << 20;
const WINDOWS: usize = 8;

/// Scales `secs`, measured between sweeps that took `before` and `after`
/// seconds, to the reference host's speed.
pub fn scale(secs: f64, before: f64, after: f64) -> f64 {
    secs * REFERENCE_S * 2.0 / (before + after)
}

/// A running calibration child. Dropping it stops the child and waits for
/// it to end.
pub struct Calibrator {
    child: Child,
    to_child: ChildStdin,
    from_child: BufReader<ChildStdout>,
}

impl Calibrator {
    /// Starts the child and waits until its buffer is faulted in.
    pub fn start() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find the binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg(CHILD_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the calibration child: {e}"))?;
        let to_child = child.stdin.take().expect("piped stdin");
        let from_child = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut cal = Calibrator {
            child,
            to_child,
            from_child,
        };
        cal.read_line()?;
        Ok(cal)
    }

    /// Runs one sweep in the child and returns its wall-clock seconds.
    pub fn sample(&mut self) -> Result<f64, String> {
        self.to_child
            .write_all(b"\n")
            .and_then(|()| self.to_child.flush())
            .map_err(|e| format!("calibration child: {e}"))?;
        let line = self.read_line()?;
        line.trim()
            .parse()
            .map_err(|_| format!("calibration child sent '{}'", line.trim()))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.from_child.read_line(&mut line) {
            Ok(0) => Err("calibration child ended early".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("calibration child: {e}")),
        }
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The child's main loop: fault the buffer in, report ready, then answer
/// every request line with one sweep's seconds until standard input closes.
pub fn child_main() -> ExitCode {
    let mut buf = vec![1u64; WORDS];
    let mut out = std::io::stdout().lock();
    if writeln!(out, "ready").and_then(|()| out.flush()).is_err() {
        return ExitCode::FAILURE;
    }
    let window = WORDS / WINDOWS;
    let mut stdin = std::io::stdin().lock();
    let mut byte = [0u8; 1];
    let mut at = 0;
    loop {
        if !matches!(stdin.read(&mut byte), Ok(1)) {
            return ExitCode::SUCCESS;
        }
        let secs = sweep(&mut buf[at * window..(at + 1) * window]);
        if writeln!(out, "{secs}").and_then(|()| out.flush()).is_err() {
            return ExitCode::FAILURE;
        }
        at = (at + 1) % WINDOWS;
    }
}

/// Reads and rewrites every word once, in order.
fn sweep(words: &mut [u64]) -> f64 {
    let t = Instant::now();
    let mut sum = 0u64;
    for (i, w) in words.iter_mut().enumerate() {
        sum = sum.wrapping_add(*w);
        *w = i as u64 ^ sum;
    }
    std::hint::black_box(sum);
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_undoes_a_uniform_slowdown() {
        // A host with half the reference bandwidth doubles both the interval
        // and the sweep.
        assert_eq!(scale(2.0, 2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 1.0);
        assert!(sweep(&mut [1, 2, 3]) >= 0.0);
    }
}
