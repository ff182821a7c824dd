//! A deterministic work-stealing scoped-thread pool.
//!
//! Tasks are identified by index into a fixed, deterministically ordered
//! task list. Each worker owns a deque seeded round-robin; it pops its
//! own work from the front and, when empty, steals from the *back* of a
//! victim chosen by its private [`Xoshiro256`] stream (seeded from the
//! run seed and the worker id). Results are written into slots keyed by
//! task index, so the output vector — and anything computed from it — is
//! bit-identical regardless of which worker ran which task, how many
//! workers ran, or how the OS scheduled them: `run_indexed(n, k, seed,
//! f)` equals `(0..n).map(f)` for every `k`. The stealing only perturbs
//! *wall-clock*, never *values*, because every task is a pure function of
//! its index.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use mc_prng::{SplitMix64, Xoshiro256};

/// The default worker count: the machine's available parallelism, capped
/// at 8 (the lattice sizes here saturate well before that).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .min(8)
}

/// Runs `f(0..tasks)` on up to `threads` scoped worker threads with
/// work-stealing, returning the results in task order. Deterministic: the
/// returned vector is identical to the sequential `(0..tasks).map(f)`.
///
/// # Panics
///
/// Propagates a panic from `f` when the scope joins.
pub fn run_indexed<T, F>(tasks: usize, threads: usize, seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, tasks.max(1));
    if threads <= 1 {
        return (0..tasks)
            .map(|i| {
                let _span = mc_trace::span("pool.task");
                mc_trace::count("pool.tasks", 1);
                f(i)
            })
            .collect();
    }
    // Round-robin initial distribution: worker w owns tasks w, w+k, ...
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| Mutex::new((w..tasks).step_by(threads).collect()))
        .collect();
    let results: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    let completed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..threads {
            let (queues, results, completed, f) = (&queues, &results, &completed, &f);
            scope.spawn(move || {
                let mut rng =
                    Xoshiro256::seed_from_u64(SplitMix64::new(seed ^ (w as u64 + 1)).next_u64());
                loop {
                    // Own queue first, front-out (cache-friendly order)...
                    let mut task = queues[w].lock().expect("queue lock").pop_front();
                    // ...then steal from the back of random victims.
                    if task.is_none() {
                        for _ in 0..threads * 2 {
                            let victim = rng.below(threads as u64) as usize;
                            if victim == w {
                                continue;
                            }
                            task = queues[victim].lock().expect("queue lock").pop_back();
                            if task.is_some() {
                                // Scheduling-dependent by nature: which
                                // worker drains first varies run to run.
                                mc_trace::count_runtime("pool.steals", 1);
                                break;
                            }
                        }
                    }
                    match task {
                        Some(i) => {
                            let _span = mc_trace::span("pool.task");
                            mc_trace::count("pool.tasks", 1);
                            let out = f(i);
                            *results[i].lock().expect("result lock") = Some(out);
                            completed.fetch_add(1, Ordering::SeqCst);
                        }
                        None => {
                            if completed.load(Ordering::SeqCst) >= tasks {
                                break;
                            }
                            // Stragglers still running elsewhere; the pool
                            // is for coarse tasks, so a yield is cheap.
                            std::thread::yield_now();
                        }
                    }
                }
                // Must be explicit: the scope counts this worker as done
                // when the closure returns, before thread-local
                // destructors run, so a take() after the scope joins
                // would race the automatic flush-on-exit.
                mc_trace::flush();
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result lock")
                .expect("every task ran exactly once")
        })
        .collect()
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent bounded worker pool over the same scoped-thread
/// discipline as [`run_indexed`], for long-lived consumers (the `mcpm
/// serve` connection handlers) that submit work one job at a time instead
/// of as a fixed task list.
///
/// Jobs drain from one shared queue into `threads` workers; dropping (or
/// [`WorkerPool::join`]ing) the pool closes the queue, lets every already
/// submitted job finish, and joins the workers — a graceful drain, never
/// an abort. Each job runs under the usual `pool.task` span and
/// `pool.tasks` counter, and workers flush their trace buffers after
/// every job and before exiting (the same hand-off contract
/// `run_indexed` documents), so a job's events are visible to
/// `mc_trace::take` as soon as the job is done. A
/// panicking job is caught and discarded so one bad request cannot shrink
/// the pool.
pub struct WorkerPool {
    sender: Option<mpsc::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (floored at 1) draining a shared queue.
    #[must_use]
    pub fn new(threads: usize) -> WorkerPool {
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads.max(1))
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                std::thread::spawn(move || {
                    loop {
                        // Hold the lock only for the dequeue, not the job.
                        let job = receiver.lock().expect("pool queue lock").recv();
                        match job {
                            Ok(job) => {
                                {
                                    let _span = mc_trace::span("pool.task");
                                    mc_trace::count("pool.tasks", 1);
                                    // A panic must not kill the worker: the
                                    // pool outlives any single job.
                                    let _ =
                                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                                }
                                // Hand the job's events off now: a worker
                                // of a long-lived pool may not exit before
                                // the consumer reads the trace.
                                mc_trace::flush();
                            }
                            Err(_) => break, // queue closed: drain complete
                        }
                    }
                    mc_trace::flush();
                })
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Queues a job; some worker runs it as soon as one is free. Returns
    /// `false` if the pool is already shutting down.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> bool {
        match &self.sender {
            Some(tx) => tx.send(Box::new(job)).is_ok(),
            None => false,
        }
    }

    /// Closes the queue, waits for every submitted job to finish, and
    /// joins the workers.
    pub fn join(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.sender.take(); // closes the channel once all clones drop
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn matches_sequential_for_every_thread_count() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(13);
        let expected: Vec<u64> = (0..97).map(f).collect();
        for threads in [1, 2, 3, 4, 7, 16] {
            assert_eq!(run_indexed(97, threads, 42, f), expected, "k={threads}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let _ = run_indexed(64, 4, 7, |i| counts[i].fetch_add(1, Ordering::SeqCst));
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "task {i}");
        }
    }

    #[test]
    fn stealing_keeps_results_in_task_order_under_skew() {
        // Front-load one worker's queue with slow tasks so others steal.
        let f = |i: usize| {
            if i.is_multiple_of(4) {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * 3 + 1
        };
        let expected: Vec<usize> = (0..32).map(f).collect();
        assert_eq!(run_indexed(32, 4, 1, f), expected);
    }

    #[test]
    fn degenerate_sizes() {
        assert!(run_indexed(0, 4, 0, |i| i).is_empty());
        assert_eq!(run_indexed(1, 8, 0, |i| i + 10), vec![10]);
        assert_eq!(run_indexed(3, 200, 0, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn default_threads_is_sane() {
        let t = default_threads();
        assert!((1..=8).contains(&t));
    }

    #[test]
    fn worker_pool_runs_every_submitted_job() {
        let pool = WorkerPool::new(4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let done = Arc::clone(&done);
            assert!(pool.submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn worker_pool_survives_panicking_job() {
        let pool = WorkerPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        pool.submit(|| panic!("bad job"));
        for _ in 0..8 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn worker_pool_drop_drains_queue() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1);
            for _ in 0..16 {
                let done = Arc::clone(&done);
                pool.submit(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // Drop must wait for all 16, not abort mid-queue.
        assert_eq!(done.load(Ordering::SeqCst), 16);
    }
}
