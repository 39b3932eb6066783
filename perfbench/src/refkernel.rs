//! The reference kernel: fixed work that no change to the program can
//! speed up, timed once in every repetition. The host's speed drifts by
//! tens of percent over minutes (README, "Host drift"), and what drifts
//! is the cost of memory management: fresh pages and allocation, not
//! arithmetic or cache misses. `run.py` divides host times by this
//! kernel's time so that they follow the program, not the machine.

use std::hint::black_box;
use std::time::Instant;

/// Host seconds of the kernel: fault in and fill fresh memory, then
/// allocate, touch and free many small blocks.
pub fn seconds() -> f64 {
    let t = Instant::now();
    // 64 MiB is above glibc's largest mmap threshold, so every round
    // maps, faults in and unmaps new pages.
    for _ in 0..2 {
        black_box(vec![1u8; 64 << 20]);
    }
    let blocks: Vec<Box<[u64; 6]>> = (0..400_000u64).map(|i| Box::new([i; 6])).collect();
    black_box(blocks.iter().step_by(7).map(|b| b[3]).sum::<u64>());
    drop(blocks);
    t.elapsed().as_secs_f64()
}
