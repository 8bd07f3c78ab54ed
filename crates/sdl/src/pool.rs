//! Order-preserving parallel map over scoped threads.
//!
//! The paper runs the RAMANI Cloud Analytics containers under Kubernetes
//! ("we used Kubernetes for managing the containerized applications across
//! multiple hosts"); at laptop scale the equivalent is a few worker threads
//! draining a shared job list, which is what [`run_parallel`] does for
//! [`Sdl::get_animation`](crate::Sdl::get_animation).

use std::sync::{Mutex, PoisonError};

/// Run `jobs` on `workers` threads, preserving input order in the output.
pub fn run_parallel<T, R, F>(workers: usize, jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if workers <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    let n = jobs.len();
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // A statement of its own, so the guard drops before the job runs.
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((i, job)) = next else { return done };
                        done.push((i, f(job)));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, r) in done {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter().map(|r| r.expect("every job ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_parallel_preserves_order() {
        let jobs: Vec<u64> = (0..100).collect();
        let out = run_parallel(4, jobs.clone(), |x| x * 2);
        assert_eq!(out, jobs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_parallel_single_worker() {
        let out = run_parallel(1, vec![1, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn run_parallel_empty() {
        let out: Vec<u64> = run_parallel(4, Vec::<u64>::new(), |x| x);
        assert!(out.is_empty());
    }
}
