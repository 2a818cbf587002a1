//! Idle spinners: one lowest-priority busy thread per CPU for the length
//! of a run, so the machine's virtual CPUs never halt while it measures.
//!
//! On a shared virtual machine a halted vCPU gives its physical core back
//! to the host, and waking it (for every reply a blocked thread waits on)
//! waits until the host schedules it again. When the host is busy that
//! wait shows as steal time and stretches every hand-off between the
//! client, reactor and service threads: runs of the same seed measured
//! 2-3x slower in such phases. A spinner under `SCHED_IDLE` only ever
//! runs on an otherwise idle CPU and is preempted at once by any program
//! thread, so the program keeps its CPUs and the figures measure it, not
//! the host's wake-up latency. Where `SCHED_IDLE` cannot be set the
//! spinner exits at once rather than compete with the program.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `SCHED_IDLE` from `<sched.h>` (Linux).
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Put the calling thread under `SCHED_IDLE`; false if refused.
fn make_idle() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 names the calling thread, and `param` is a valid
    // `struct sched_param` that outlives the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

pub struct IdleSpinners {
    stop: Arc<AtomicBool>,
    running: Arc<AtomicUsize>,
    handles: Vec<JoinHandle<()>>,
}

impl IdleSpinners {
    /// One spinner per CPU the process may use.
    pub fn start() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let running = Arc::new(AtomicUsize::new(0));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let handles = (0..cpus)
            .map(|_| {
                let (stop, running, ready) = (stop.clone(), running.clone(), ready_tx.clone());
                std::thread::spawn(move || {
                    let idle = make_idle();
                    if idle {
                        running.fetch_add(1, Ordering::Relaxed);
                    }
                    let _ = ready.send(());
                    while idle && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        // Report only once every spinner has settled its policy.
        for _ in 0..cpus {
            let _ = ready_rx.recv();
        }
        Self {
            stop,
            running,
            handles,
        }
    }

    /// Spinners running under `SCHED_IDLE`.
    pub fn running(&self) -> usize {
        self.running.load(Ordering::Relaxed)
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}
