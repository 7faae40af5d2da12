//! The host's own speed. On a shared virtual machine the same work runs
//! up to 1.7 times slower for minutes at a time as neighbours load the
//! shared last-level cache and memory bus. A fixed piece of the
//! benchmark's own work, the control, runs before every timed unit; every
//! host-time figure is divided by the host's current slowdown (the
//! control's recent time over its reference time), so a slow spell slows
//! unit and control alike and cancels out, while a change to the program
//! moves only the unit.

use std::collections::VecDeque;

use crate::inputs::Rng;

/// Seconds the control takes at the reference host speed: about its
/// median on a 2-vCPU Xeon VM (Sapphire Rapids, 2 MB L2 per core, 105 MB
/// shared L3) in a fast spell. Normalised figures read as on that host
/// then; the traced run reports the control's own time as
/// `host.control_us`.
pub const REFERENCE_CONTROL_SECS: f64 = 0.3e-3;

/// Seconds of CPU time the calling thread has used. Unlike wall time it
/// leaves out the time the hypervisor ran other guests on this vCPU.
pub fn thread_cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The control: a sparse matrix-vector product in the benchmark's own
/// code, over a fixed random matrix larger than a core's L2, so it meets
/// the same cache and memory contention as the program's stages. One
/// control run is noisy; the host's speed is read as the median of the
/// last [`RECENT`] runs, which follows the spells of a slow or fast host
/// (seconds to minutes) but not the jitter of a single run.
pub struct Control {
    ptr: Vec<u32>,
    idx: Vec<u32>,
    val: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    recent: VecDeque<f64>,
    /// Every reading of the run, seconds.
    pub all: Vec<f64>,
}

/// Control runs the host speed is read over.
pub const RECENT: usize = 15;

/// Rows of the control matrix (3.5 MB with its vectors), and nonzeros
/// per row.
const ROWS: usize = 1 << 15;
const PER_ROW: usize = 8;

impl Control {
    /// The fixed control input (the same in every run, whatever the seed).
    pub fn new() -> Control {
        let mut rng = Rng::new(0xc0_47_01);
        let nnz = ROWS * PER_ROW;
        Control {
            ptr: (0..=ROWS).map(|r| (r * PER_ROW) as u32).collect(),
            idx: (0..nnz).map(|_| rng.below(ROWS) as u32).collect(),
            val: (0..nnz).map(|_| rng.unit() - 0.5).collect(),
            x: (0..ROWS).map(|_| rng.unit()).collect(),
            y: vec![0.0; ROWS],
            recent: VecDeque::with_capacity(RECENT),
            all: Vec::new(),
        }
    }

    /// Runs the control twice and records the second run's time, so the
    /// reading does not depend on what the stage before it left in cache.
    pub fn sample(&mut self) {
        self.run();
        let secs = self.run();
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(secs);
        self.all.push(secs);
    }

    /// Seconds of one control run at the host's current speed: the median
    /// of the recent runs (NaN before the first).
    pub fn secs(&self) -> f64 {
        let v: Vec<f64> = self.recent.iter().copied().collect();
        crate::clock::median(&v)
    }

    /// How many times slower than the reference the host currently runs.
    pub fn slowdown(&self) -> f64 {
        self.secs() / REFERENCE_CONTROL_SECS
    }

    /// How many times slower than the reference the host ran over the
    /// whole run so far: the median of every reading. For work too short
    /// or too rare to pair with a recent reading of its own.
    pub fn run_slowdown(&self) -> f64 {
        crate::clock::median(&self.all) / REFERENCE_CONTROL_SECS
    }

    /// Runs the control once; returns its thread CPU seconds.
    fn run(&mut self) -> f64 {
        let t = thread_cpu_secs();
        for (r, y) in self.y.iter_mut().enumerate() {
            let (lo, hi) = (self.ptr[r] as usize, self.ptr[r + 1] as usize);
            *y = self.idx[lo..hi]
                .iter()
                .zip(&self.val[lo..hi])
                .map(|(&c, &v)| v * self.x[c as usize])
                .sum();
        }
        std::hint::black_box(&self.y);
        thread_cpu_secs() - t
    }
}

impl Default for Control {
    fn default() -> Control {
        Control::new()
    }
}

/// Keeps every CPU busy at the lowest scheduling priority while it lives.
/// An idle virtual CPU halts, and waking a halted one goes through the
/// hypervisor, which on a shared host takes anywhere from microseconds to
/// milliseconds; a CPU running a `SCHED_IDLE` spinner does not halt, and
/// any ordinary thread that wakes preempts the spinner at once. Served
/// latency then measures the server, not the hypervisor's wake-ups.
pub struct KeepAwake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    spinners: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one spinner per CPU.
    pub fn start() -> KeepAwake {
        use std::sync::atomic::{AtomicBool, Ordering};
        #[repr(C)]
        struct SchedParam {
            priority: i32,
        }
        extern "C" {
            fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        }
        const SCHED_IDLE: i32 = 5;
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spinners = (0..cpus)
            .map(|_| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    // SAFETY: a valid parameter block; pid 0 is this thread.
                    let rc =
                        unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { priority: 0 }) };
                    if rc != 0 {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for s in self.spinners.drain(..) {
            let _ = s.join();
        }
    }
}
