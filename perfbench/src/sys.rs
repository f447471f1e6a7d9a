//! Host facts the benchmark records as provenance, read through libc
//! calls so that the benchmark opens no file outside its checkout.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Worker threads the host offers (`std::thread::available_parallelism`).
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(target_os = "linux")]
mod ffi {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
    #[repr(C)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    /// glibc's `struct mallinfo2`: ten `size_t` fields.
    #[repr(C)]
    pub struct Mallinfo2 {
        pub arena: usize,
        pub ordblks: usize,
        pub smblks: usize,
        pub hblks: usize,
        pub hblkhd: usize,
        pub usmblks: usize,
        pub fsmblks: usize,
        pub uordblks: usize,
        pub fordblks: usize,
        pub keepcost: usize,
    }

    unsafe extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        pub fn sysconf(name: i32) -> i64;
        pub fn mallinfo2() -> Mallinfo2;
    }

    pub const RUSAGE_SELF: i32 = 0;
    pub const SC_LEVEL3_CACHE_SIZE: i32 = 194;
}

/// Peak resident set size of this process so far, MiB (0 when unknown).
pub fn peak_rss_mb() -> f64 {
    #[cfg(target_os = "linux")]
    {
        let mut ru = ffi::Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
        // SAFETY: `ru` is a properly sized, writable `struct rusage`.
        if unsafe { ffi::getrusage(ffi::RUSAGE_SELF, &mut ru) } == 0 {
            return ru.maxrss as f64 / 1024.0; // ru_maxrss is in KiB
        }
    }
    0.0
}

/// Size of the last-level (L3) cache in bytes, if the C library knows it.
pub fn llc_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: sysconf has no memory-safety preconditions.
        let v = unsafe { ffi::sysconf(ffi::SC_LEVEL3_CACHE_SIZE) };
        if v > 0 {
            return Some(v as u64);
        }
    }
    None
}

/// Heap bytes the program holds right now: glibc's in-use chunks plus
/// its mmapped blocks (0 when unknown).
pub fn heap_in_use_bytes() -> usize {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // SAFETY: mallinfo2 has no preconditions and returns by value.
        let m = unsafe { ffi::mallinfo2() };
        return m.uordblks + m.hblkhd;
    }
    #[allow(unreachable_code)]
    0
}

/// Samples [`heap_in_use_bytes`] every 10 ms on a background
/// thread until [`stop`](HeapSampler::stop).
pub struct HeapSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<(f64, usize)>,
}

impl HeapSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let (mut sum, mut max, mut k) = (0.0, 0usize, 0u64);
            loop {
                let b = heap_in_use_bytes();
                sum += b as f64;
                max = max.max(b);
                k += 1;
                if flag.load(Ordering::Relaxed) {
                    return (sum / k as f64, max);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        HeapSampler { stop, thread }
    }

    /// Stops sampling; returns (mean, max) heap in use, MiB.
    pub fn stop(self) -> (f64, f64) {
        self.stop.store(true, Ordering::Relaxed);
        let (mean, max) = self.thread.join().expect("heap sampler");
        (mean / MIB, max as f64 / MIB)
    }
}

const MIB: f64 = 1024.0 * 1024.0;
