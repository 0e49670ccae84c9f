//! A persistent worker team: the executors' only source of parallelism.
//!
//! A [`Team`] splits one entity range into contiguous parts by weight. The
//! calling thread runs part 0; part `i ≥ 1` runs on long-lived worker `i`,
//! which spins briefly and then parks on a `Condvar` between calls, so a
//! range op costs a hand-off, not a thread spawn. Because every
//! part owns a disjoint window of the output, a range-convention kernel
//! computes each index with the same arithmetic whichever part owns it, and
//! a split result is bitwise-equal to the serial one. An output field may
//! carry `k` lanes per entity (`field[entity * k + lane]`); the team splits
//! the entities, so a part's window holds whole entities with all their
//! lanes. A one-part team spawns no thread and runs every op inline.
//!
//! A panic in any part is caught, the other parts are waited out, and the
//! first payload is re-raised in the caller, so a call never hangs and never
//! returns while a worker still borrows its arguments. Dropping the team
//! joins every worker thread.

use std::any::Any;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// One published call: "run part `p`". The `'static` is a lie the caller
/// upholds by not returning from [`Team::dispatch`] before every worker is
/// done with it.
type Job = &'static (dyn Fn(usize) + Sync);

struct Slot {
    job: Option<Job>,
    panic: Option<Box<dyn Any + Send>>,
    started: Instant,
    /// Per part: when it finished, as an offset from `started`.
    finished: Vec<Duration>,
    shutdown: bool,
}

/// State shared by the caller and the workers. `generation` and `pending`
/// change only under `slot`'s lock (so a parked thread never misses a
/// wake-up) but are atomics so a waiting thread can spin on them first.
/// Orderings: the caller stores `pending` and the job, then bumps
/// `generation` with `Release`, which a worker reads with `Acquire`; a
/// worker's `AcqRel` decrement of `pending` pairs with the caller's
/// `Acquire` load, so once it reads 0 it sees every part's output writes.
struct Shared {
    /// Bumped once per published call.
    generation: AtomicU64,
    /// Worker parts of the current call still running.
    pending: AtomicUsize,
    slot: Mutex<Slot>,
    work: Condvar,
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        // Parts never run under the lock, so it cannot be poisoned by one.
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Park on `cv` until notified.
fn park<'a>(cv: &Condvar, slot: MutexGuard<'a, Slot>) -> MutexGuard<'a, Slot> {
    cv.wait(slot).unwrap_or_else(PoisonError::into_inner)
}

/// Spin until `ready()` for at most [`SPIN`] before the caller parks on a
/// `Condvar`: back-to-back range ops follow each other within
/// microseconds, sooner than a parked thread wakes up.
fn spin_until(ready: impl Fn() -> bool) {
    let start = Instant::now();
    while !ready() && start.elapsed() < SPIN {
        std::hint::spin_loop();
    }
}

/// How long a waiting thread spins before it parks.
const SPIN: Duration = Duration::from_micros(50);

/// A fixed set of weighted parts, run by the caller plus `parts − 1`
/// persistent worker threads.
pub struct Team {
    /// `cuts[p]` is the fraction of the range before part `p + 1`.
    cuts: Vec<f64>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Team {
    /// `parts` equally weighted parts.
    pub fn equal(parts: usize) -> Self {
        let parts = parts.max(1);
        Self::new(&vec![1.0 / parts as f64; parts])
    }

    /// One part per weight. Weights are fractions of the range and should
    /// sum to 1; the last part absorbs any rounding.
    ///
    /// # Panics
    /// If `weights` is empty or holds a negative or non-finite weight.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "a team needs at least one part");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "team weights must be finite and non-negative: {weights:?}"
        );
        let cuts = weights[..weights.len() - 1]
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        let shared = Arc::new(Shared {
            generation: AtomicU64::new(0),
            pending: AtomicUsize::new(0),
            slot: Mutex::new(Slot {
                job: None,
                panic: None,
                started: Instant::now(),
                finished: vec![Duration::ZERO; weights.len()],
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..weights.len())
            .map(|part| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("team-{part}"))
                    .spawn(move || work(&shared, part))
                    .expect("spawn team worker")
            })
            .collect();
        Team {
            cuts,
            shared,
            workers,
        }
    }

    /// Number of parts (the caller's included).
    pub fn parts(&self) -> usize {
        self.cuts.len() + 1
    }

    /// Part bounds for a range of `n` items: part `p` owns
    /// `bounds[p]..bounds[p + 1]`. They tile `[0, n)` with no gap or overlap.
    pub fn bounds(&self, n: usize) -> Vec<usize> {
        let mut bounds = Vec::with_capacity(self.parts() + 1);
        bounds.push(0);
        for cut in &self.cuts {
            let prev = *bounds.last().unwrap();
            bounds.push(((cut * n as f64) as usize).clamp(prev, n));
        }
        bounds.push(n);
        bounds
    }

    /// Seconds from the start of the last call until the last of `parts`
    /// finished: one device's share of the call when `parts` are its parts.
    pub fn finish_secs(&self, parts: Range<usize>) -> f64 {
        let slot = self.shared.lock();
        slot.finished[parts]
            .iter()
            .max()
            .map_or(0.0, Duration::as_secs_f64)
    }

    /// Run a range op writing one output of `k` lanes per entity:
    /// `f(entities, &mut out[entities.start * k..entities.end * k])` for
    /// each part.
    pub fn run<F>(&mut self, k: usize, out: &mut [f64], f: F)
    where
        F: Fn(Range<usize>, &mut [f64]) + Sync,
    {
        let out = Carve::new(out, k);
        // SAFETY: `split` hands each part a disjoint range.
        self.split(out.entities(), &|r| f(r.clone(), unsafe { out.window(r) }));
    }

    /// Run a range op writing two equal-length outputs.
    pub fn run2<F>(&mut self, k: usize, a: &mut [f64], b: &mut [f64], f: F)
    where
        F: Fn(Range<usize>, &mut [f64], &mut [f64]) + Sync,
    {
        assert_eq!(a.len(), b.len(), "outputs differ in length");
        let (a, b) = (Carve::new(a, k), Carve::new(b, k));
        self.split(a.entities(), &|r| {
            // SAFETY: `split` hands each part a disjoint range.
            let (x, y) = unsafe { (a.window(r.clone()), b.window(r.clone())) };
            f(r, x, y)
        });
    }

    /// Run a range op writing three equal-length outputs.
    pub fn run3<F>(&mut self, k: usize, a: &mut [f64], b: &mut [f64], c: &mut [f64], f: F)
    where
        F: Fn(Range<usize>, &mut [f64], &mut [f64], &mut [f64]) + Sync,
    {
        assert!(
            a.len() == b.len() && b.len() == c.len(),
            "outputs differ in length"
        );
        let (a, b, c) = (Carve::new(a, k), Carve::new(b, k), Carve::new(c, k));
        self.split(a.entities(), &|r| {
            // SAFETY: `split` hands each part a disjoint range.
            let (x, y, z) = unsafe {
                (
                    a.window(r.clone()),
                    b.window(r.clone()),
                    c.window(r.clone()),
                )
            };
            f(r, x, y, z)
        });
    }

    /// Run `part(range)` for the range of every part of `0..n`.
    fn split(&mut self, n: usize, part: &(dyn Fn(Range<usize>) + Sync)) {
        let bounds = self.bounds(n);
        self.dispatch(&|p| part(bounds[p]..bounds[p + 1]));
    }

    /// Run `part(p)` for every part and return once all have finished,
    /// re-raising the first panic.
    fn dispatch(&mut self, part: &(dyn Fn(usize) + Sync)) {
        let started = Instant::now();
        if self.workers.is_empty() {
            part(0);
            let mut slot = self.shared.lock();
            slot.started = started;
            slot.finished[0] = started.elapsed();
            return;
        }
        // SAFETY: only the lifetime is erased. The job is cleared below,
        // after `pending` reached 0, i.e. after every worker stopped using
        // it, and before this function returns or unwinds; `&mut self`
        // rules out a second call publishing over it meanwhile.
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Job>(part) };
        let shared = &*self.shared;
        {
            let mut slot = shared.lock();
            slot.job = Some(job);
            slot.started = started;
            shared.pending.store(self.workers.len(), Ordering::Relaxed);
            shared.generation.fetch_add(1, Ordering::Release);
        }
        shared.work.notify_all();
        let mine = panic::catch_unwind(AssertUnwindSafe(|| part(0)));
        let mine_done = started.elapsed();
        spin_until(|| shared.pending.load(Ordering::Acquire) == 0);
        let mut slot = shared.lock();
        slot.finished[0] = mine_done;
        while shared.pending.load(Ordering::Acquire) > 0 {
            slot = park(&shared.done, slot);
        }
        slot.job = None;
        let theirs = slot.panic.take();
        drop(slot);
        if let Some(payload) = mine.err().or(theirs) {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            // Parts' panics are caught, so a worker only ends by returning.
            let _ = worker.join();
        }
    }
}

/// The loop of the worker that runs part `part` of every call.
fn work(shared: &Shared, part: usize) {
    let mut seen = 0;
    loop {
        spin_until(|| shared.generation.load(Ordering::Acquire) != seen);
        let job = {
            let mut slot = shared.lock();
            while shared.generation.load(Ordering::Acquire) == seen && !slot.shutdown {
                slot = park(&shared.work, slot);
            }
            if slot.shutdown {
                return;
            }
            seen = shared.generation.load(Ordering::Acquire);
            slot.job.expect("a new generation carries a job")
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| job(part)));
        let end = Instant::now();
        let mut slot = shared.lock();
        slot.finished[part] = end.saturating_duration_since(slot.started);
        if let Err(payload) = result {
            slot.panic.get_or_insert(payload);
        }
        if shared.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            shared.done.notify_one();
        }
    }
}

/// An exclusively borrowed output slice of `k` lanes per entity that
/// parts carve disjoint entity windows from.
struct Carve<'a> {
    ptr: *mut f64,
    len: usize,
    k: usize,
    _out: PhantomData<&'a mut [f64]>,
}

// SAFETY: `ptr` and `len` describe an exclusively borrowed `[f64]` (and
// `f64` is `Send + Sync`); sharing `&Carve` across threads only lets them
// call `window`, whose callers guarantee the windows are disjoint.
unsafe impl Sync for Carve<'_> {}

impl<'a> Carve<'a> {
    fn new(out: &'a mut [f64], k: usize) -> Self {
        assert!(
            k >= 1 && out.len().is_multiple_of(k),
            "output of {} values does not hold whole entities of {k} lanes",
            out.len()
        );
        Carve {
            ptr: out.as_mut_ptr(),
            len: out.len(),
            k,
            _out: PhantomData,
        }
    }

    /// Number of entities the output holds.
    fn entities(&self) -> usize {
        self.len / self.k
    }

    /// The lanes of entities `r`.
    ///
    /// # Safety
    /// No two windows alive at the same time may overlap.
    #[allow(clippy::mut_from_ref)]
    unsafe fn window(&self, r: Range<usize>) -> &mut [f64] {
        let (start, end) = (r.start * self.k, r.end * self.k);
        assert!(start <= end && end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), end - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNEVEN: [f64; 4] = [0.1, 0.45, 0.05, 0.4];

    #[test]
    fn bounds_tile_the_range_under_uneven_weights() {
        let team = Team::new(&UNEVEN);
        for n in [0, 1, team.parts() - 1, 122_880] {
            let b = team.bounds(n);
            assert_eq!(b.len(), team.parts() + 1);
            assert_eq!((b[0], b[team.parts()]), (0, n), "n = {n}");
            assert!(b.windows(2).all(|w| w[0] <= w[1]), "n = {n}: {b:?}");
        }
        // And the parts really write every index exactly once.
        let mut team = team;
        let mut out = vec![0.0; 122_880];
        team.run(1, &mut out, |r, o| {
            for (i, x) in r.zip(o.iter_mut()) {
                *x += i as f64;
            }
        });
        assert!(out.iter().enumerate().all(|(i, x)| *x == i as f64));
    }

    #[test]
    fn hybrid_host_parts_end_at_the_old_split_point() {
        // A `hybrid:1:a` team: one host part, then `a` accelerator parts.
        for acc_fraction in [0.5, 0.6875, 0.75, 0.843_750_1] {
            for acc_threads in [1, 3] {
                let mut w = vec![1.0 - acc_fraction];
                w.extend(vec![acc_fraction / acc_threads as f64; acc_threads]);
                let team = Team::new(&w);
                for n in [1, 7, 40_962, 122_880] {
                    let old = ((1.0 - acc_fraction) * n as f64) as usize;
                    assert_eq!(team.bounds(n)[1], old, "a = {acc_fraction}, n = {n}");
                }
            }
        }
    }

    #[test]
    fn run2_and_run3_write_every_output() {
        let mut team = Team::new(&UNEVEN);
        let (mut a, mut b, mut c) = (vec![0.0; 1000], vec![0.0; 1000], vec![0.0; 1000]);
        team.run2(1, &mut a, &mut b, |r, a, b| {
            for (k, i) in r.enumerate() {
                (a[k], b[k]) = (i as f64, -(i as f64));
            }
        });
        team.run3(1, &mut a, &mut b, &mut c, |r, a, b, c| {
            for (k, i) in r.enumerate() {
                c[k] = a[k] + b[k] + i as f64;
            }
        });
        assert!(c.iter().enumerate().all(|(i, x)| *x == i as f64));
    }

    #[test]
    fn a_panic_in_any_part_reaches_the_caller() {
        let mut team = Team::equal(3);
        let mut out = vec![0.0; 300];
        // Index 0 lies in the caller's own part, index 299 in a worker's.
        for i in [0, 299] {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                team.run(1, &mut out, |r, _| assert!(!r.contains(&i), "part fails"))
            }));
            assert!(caught.is_err(), "the panic at index {i} was lost");
            // The team survives the panic and still runs every part.
            team.run(1, &mut out, |_, o| o.fill(i as f64));
            assert!(out.iter().all(|x| *x == i as f64));
        }
    }

    #[test]
    fn lanes_split_whole_entities() {
        // Three lanes per entity: each part gets all lanes of its entities.
        let mut team = Team::new(&UNEVEN);
        let mut out = vec![0.0; 3 * 1001];
        team.run(3, &mut out, |r, o| {
            assert_eq!(o.len(), 3 * r.len());
            for (i, lanes) in r.zip(o.chunks_mut(3)) {
                for (l, x) in lanes.iter_mut().enumerate() {
                    *x = (3 * i + l) as f64;
                }
            }
        });
        assert!(out.iter().enumerate().all(|(i, x)| *x == i as f64));
    }

    #[test]
    fn one_part_team_runs_inline() {
        let mut team = Team::equal(1);
        assert!(team.workers.is_empty());
        let caller = thread::current().id();
        let mut out = vec![0.0; 10];
        team.run(1, &mut out, |_, o| {
            assert_eq!(thread::current().id(), caller);
            o.fill(1.0);
        });
        assert!(out.iter().all(|x| *x == 1.0));
    }

    #[test]
    fn drop_joins_every_worker() {
        let team = Team::equal(4);
        // Each worker holds the shared state until its thread returns.
        let shared = Arc::downgrade(&team.shared);
        drop(team);
        assert!(shared.upgrade().is_none(), "a worker outlived its team");
    }
}
