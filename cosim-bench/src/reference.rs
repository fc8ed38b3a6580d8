//! The host-speed reference: a fixed piece of work, timed between runs.
//!
//! On a shared host the same coupled run can take 90 ms or 165 ms
//! depending on what neighbouring machines do, in phases of seconds to
//! minutes. A closed loop of runs cannot average that away within a
//! window, so the benchmark times this reference after every run and
//! scales the run's times by `REFERENCE_NS / measured`: the gated figures
//! read what the run would have taken on a host that does the reference in
//! [`REFERENCE_NS`].
//!
//! The work imitates the program's own mix — an event queue, hashed
//! lookups into boxed records, and a FIFO of freshly allocated cell-sized
//! buffers — because a tight arithmetic loop does not slow down with the
//! program when the host is contended. It is the benchmark's own code and
//! calls nothing in the repository, so a change to the program does not
//! move it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Reference time of an uncontended host, in ns (the reference took
/// 13–15 ms on an uncontended Xeon Sapphire Rapids vCPU and 18–20 ms in
/// the host's slow phases).
pub const REFERENCE_NS: f64 = 15e6;

const STEPS: usize = 100_000;

fn work() -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut heap = BinaryHeap::new();
    let mut records: HashMap<u64, Box<[u8; 64]>> = HashMap::new();
    let mut fifo: VecDeque<Vec<u8>> = VecDeque::new();
    let mut acc = 0u64;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse((x % 100_000, i)));
        if heap.len() > 512 {
            if let Some(Reverse((t, _))) = heap.pop() {
                acc = acc.wrapping_add(t);
            }
        }
        let record = records.entry(x % 4096).or_insert_with(|| Box::new([0; 64]));
        record[(x >> 20) as usize % 64] ^= x as u8;
        acc ^= u64::from(record[(x >> 30) as usize % 64]);
        fifo.push_back(vec![x as u8; 53]);
        if fifo.len() > 256 {
            acc = acc.wrapping_add(fifo.pop_front().map_or(0, |c| u64::from(c[7])));
        }
    }
    acc
}

/// Runs the reference once; returns the host-speed factor
/// `REFERENCE_NS / measured` (below 1 on a slower host).
#[must_use]
pub fn host_speed() -> f64 {
    let start = Instant::now();
    black_box(work());
    REFERENCE_NS / start.elapsed().as_nanos() as f64
}
