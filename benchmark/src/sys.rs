//! What the operating system says about this process and host (Linux
//! `/proc` and the process CPU clock). Everything degrades to `None`
//! elsewhere.

use std::fs;

/// User + system CPU time of the whole process — all threads, exited ones
/// included — in seconds.
///
/// `/proc/self/stat` would give the same figure without a foreign call,
/// but in 10 ms ticks: a quarter-second segment would be measured to 4 %,
/// and equal tick counts would make runs read exactly alike.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> Option<f64> {
    /// `struct timespec` of 64-bit Linux: two C `long`s.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    /// `CLOCK_PROCESS_CPUTIME_ID` in `<time.h>` on Linux.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut spec = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer and keeps nothing; `spec` is a live, exclusively borrowed
    // value whose layout is that struct's on the targets this is compiled
    // for (the `cfg` above).
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut spec) };
    (status == 0).then_some(spec.tv_sec as f64 + spec.tv_nsec as f64 * 1e-9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> Option<f64> {
    None
}

fn status_kb(key: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb / 1024.0)
}

/// Hand freed heap back to the system, so that memory the harness needed
/// earlier (the oracle's graph) is not resident while the product is
/// measured. Nothing happens where the allocator has no such call.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer and only releases memory
        // the allocator holds free.
        unsafe { malloc_trim(0) };
    }
}

/// Start `VmHWM` again from what is resident now. `false` where that
/// cannot be done; [`peak_rss_mb`] then keeps covering the whole process.
pub fn reset_peak_rss() -> bool {
    // "5" resets the peak resident set size (proc(5), Linux 4.0).
    cfg!(target_os = "linux") && fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Current resident set size (`VmRSS`) in bytes.
pub fn rss_bytes() -> Option<f64> {
    status_kb("VmRSS:").map(|kb| kb * 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's output, or `unknown`.
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_work_on_linux() {
        if !cfg!(target_os = "linux") {
            return;
        }
        let before = cpu_seconds().expect("cpu time");
        let mut x = 0u64;
        while cpu_seconds().expect("cpu time") - before < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(peak_rss_mb().expect("VmHWM") > 0.5);
        assert!(rss_bytes().expect("VmRSS") > 500_000.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn the_peak_can_be_started_again() {
        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        drop(big);
        trim_heap();
        let before = peak_rss_mb().unwrap_or(0.0);
        if reset_peak_rss() {
            let after = peak_rss_mb().expect("VmHWM");
            assert!(after < before - 32.0, "{before} MB, then {after} MB");
        }
    }
}
