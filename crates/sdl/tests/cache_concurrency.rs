//! `SubsetCache` under concurrency: `evict_expired` interleaved with
//! `get_or_fetch` callers, including the stale-grace degraded path.
//!
//! Eviction is housekeeping — correctness must never depend on when (or
//! whether) it runs, even while other threads fetch, hit, refresh and
//! stale-serve the same keys.

use applab_array::{NdArray, Variable};
use applab_dap::clock::ManualClock;
use applab_dap::DapError;
use applab_sdl::SubsetCache;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// A one-cell variable tagged with `value`, so tests can tell entries
/// apart.
fn tagged(value: f64) -> Vec<Variable> {
    vec![Variable::new(
        "v",
        vec!["i".to_string()],
        NdArray::from_vec(vec![1], vec![value]).expect("static shape"),
    )]
}

fn tag_of(vars: &[Variable]) -> f64 {
    vars[0].data.data()[0]
}

#[test]
fn eviction_races_concurrent_fetchers() {
    let clock = ManualClock::new();
    let cache = SubsetCache::new(Duration::from_secs(10), clock.clone());
    let stop = AtomicBool::new(false);
    // Published by the evictor so workers can wait for its first sweep:
    // otherwise all of them may finish before the evictor is scheduled.
    let sweeps = AtomicU64::new(0);
    const WORKERS: usize = 8;
    const ITERS: usize = 2000;
    const KEYS: usize = 4;

    std::thread::scope(|s| {
        let cache = &cache;
        let stop = &stop;
        let sweeps = &sweeps;
        let evictor = s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                cache.evict_expired();
                sweeps.fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
            }
            sweeps.load(Ordering::Relaxed)
        });
        let advancer = {
            let clock = clock.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    clock.advance(Duration::from_secs(3));
                    std::thread::yield_now();
                }
            })
        };
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                s.spawn(move || {
                    for i in 0..ITERS {
                        if i == ITERS / 2 {
                            while sweeps.load(Ordering::Relaxed) == 0 {
                                std::thread::yield_now();
                            }
                        }
                        let k = (w + i) % KEYS;
                        let key = format!("k{k}");
                        let vars = cache
                            .get_or_fetch(&key, || Ok(tagged(k as f64)))
                            .expect("fetch never fails here");
                        // Whatever the eviction/expiry interleaving, the
                        // caller always gets the full, correct value.
                        assert_eq!(tag_of(&vars), k as f64);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        stop.store(true, Ordering::Relaxed);
        let sweeps = evictor.join().expect("evictor");
        advancer.join().expect("advancer");
        assert!(sweeps > 0, "eviction must actually have interleaved");
    });
    // Push the clock safely past the window: a final sweep leaves nothing
    // behind.
    clock.advance(Duration::from_secs(60));
    cache.evict_expired();
    assert!(cache.is_empty());
}

#[test]
fn stale_grace_survives_concurrent_eviction() {
    let clock = ManualClock::new();
    let cache = SubsetCache::new(Duration::from_secs(10), clock.clone())
        .with_stale_grace(Duration::from_secs(1000));
    cache.get_or_fetch("k", || Ok(tagged(7.0))).expect("seed");
    // Expired, but inside the grace window; the upstream is down.
    clock.advance(Duration::from_secs(11));
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let cache = &cache;
        let stop = &stop;
        let evictor = s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                cache.evict_expired();
                std::thread::yield_now();
            }
        });
        let workers: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(move || {
                    let scope = applab_obs::querystats::Scope::begin();
                    for _ in 0..500 {
                        let (vars, degraded) = cache
                            .get_or_fetch_degraded("k", || {
                                Err(DapError::Transport("upstream down".into()))
                            })
                            .expect("inside grace the stale entry is served");
                        assert!(degraded, "stale serves must be flagged");
                        assert_eq!(tag_of(&vars), 7.0, "stale value stays intact");
                    }
                    // Degradation is visible on the serving thread.
                    assert!(scope.snapshot().degraded);
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        stop.store(true, Ordering::Relaxed);
        evictor.join().expect("evictor");
    });
    assert!(cache.stale_serves() >= 8 * 500);

    // Past window + grace the entry is gone for good: eviction drops it
    // and the failure finally propagates, typed.
    clock.advance(Duration::from_secs(1001));
    cache.evict_expired();
    assert!(cache.is_empty());
    let err = cache
        .get_or_fetch_degraded("k", || Err(DapError::Transport("upstream down".into())))
        .expect_err("no stale entry left");
    assert_eq!(err, DapError::Transport("upstream down".into()));

    // And a healthy upstream repopulates the cache as usual.
    let (vars, degraded) = cache
        .get_or_fetch_degraded("k", || Ok(tagged(9.0)))
        .expect("healthy refetch");
    assert!(!degraded);
    assert_eq!(tag_of(&vars), 9.0);
}

#[test]
fn refresh_races_stale_serves_without_torn_values() {
    // One key flips between refreshable and down while eviction runs:
    // every observed value must be one of the two complete generations,
    // never empty and never an error while a grace copy exists.
    let clock = ManualClock::new();
    let cache = SubsetCache::new(Duration::from_secs(10), clock.clone())
        .with_stale_grace(Duration::from_secs(1000));
    cache.get_or_fetch("k", || Ok(tagged(1.0))).expect("seed");
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let cache = &cache;
        let stop = &stop;
        let clock_ref = &clock;
        let evictor = s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                cache.evict_expired();
                std::thread::yield_now();
            }
        });
        let workers: Vec<_> = (0..6)
            .map(|w| {
                s.spawn(move || {
                    for i in 0..400 {
                        // Even workers refresh successfully (generation 2),
                        // odd workers hit a down upstream.
                        let healthy = w % 2 == 0;
                        let out = cache.get_or_fetch_degraded("k", || {
                            if healthy {
                                Ok(tagged(2.0))
                            } else {
                                Err(DapError::Transport("down".into()))
                            }
                        });
                        let (vars, _) = out.expect("a cached generation always exists");
                        let tag = tag_of(&vars);
                        assert!(tag == 1.0 || tag == 2.0, "torn value: {tag}");
                        if i % 50 == 0 {
                            clock_ref.advance(Duration::from_secs(11));
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        stop.store(true, Ordering::Relaxed);
        evictor.join().expect("evictor");
    });
}
