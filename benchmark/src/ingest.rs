//! The `ingest` workload: the materialized workflow's write path, in
//! process. One operation is one *job*: the four tables go through
//! `parse_mappings` → `process_parallel` → insert → seal into a fresh
//! store, and the job is done when the first query against it is answered.
//! Jobs run back to back (closed loop, one at a time — `process_parallel`
//! already uses the cores), so the same end-to-end metrics apply as for
//! the served workloads; the traced run also has them arrive on a fixed
//! schedule (open loop) and takes them apart span by span.

use crate::layers::{self, Fixture};
use crate::load::{due_offset, wait_until, Meter, PhaseResult, Sample};
use crate::oracle::Expected;
use crate::queries::AGGREGATION_COUNT_PER_CLASS;
use crate::run::{end_to_end_metrics, open_loop_metrics, out_dir, Output, Settings};
use crate::stats;
use crate::sys;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// A job's world has two fifths of the side of the served workloads'
/// world (40 cells, 17.5k triples, 60 ms): small enough that a run holds
/// some two hundred jobs, ten beyond the 95th percentile; large enough
/// that the 2 MB by which the allocator's state differs from one process
/// to the next are 5 % of `rss_peak_mb` and not 10, as they were with 33
/// cells. The traced run adds one job at five times the side for the
/// scale point.
fn job_cells(settings: &Settings) -> usize {
    settings.cells() * 2 / 5
}

/// What every job must produce.
struct JobOracle {
    triples: usize,
    first_answer: Expected,
}

fn job_oracle(fixture: &Fixture) -> Result<JobOracle, String> {
    let graph = fixture.oracle_graph();
    Ok(JobOracle {
        triples: graph.len(),
        first_answer: Expected::Exactly(graph.answer(AGGREGATION_COUNT_PER_CLASS)?),
    })
}

/// One job; returns the triples made queryable and when the first answer
/// was in. Verification happens after the clock is read.
fn job(fixture: &Fixture, oracle: &JobOracle) -> Result<(usize, Instant), String> {
    let workflow = layers::load_materialized(fixture)?;
    let first = layers::endpoint_query(&workflow, AGGREGATION_COUNT_PER_CLASS)?;
    let done = Instant::now();
    let triples = layers::triple_count(&workflow);
    if triples != oracle.triples {
        return Err(format!(
            "{triples} triples loaded, oracle has {}",
            oracle.triples
        ));
    }
    oracle.first_answer.check(&first.answer())?;
    Ok((triples, done))
}

/// Generate the fixture and run one verified job: what a fresh process
/// has to do before the first timed job.
fn set_up(settings: &Settings) -> Result<(Fixture, JobOracle, f64), String> {
    let started = Instant::now();
    let fixture = Fixture::generate(settings.seed, job_cells(settings));
    let oracle = job_oracle(&fixture)?;
    job(&fixture, &oracle)?;
    Ok((fixture, oracle, started.elapsed().as_secs_f64()))
}

/// Jobs in one phase; `due` gives job `i`'s arrival (closed loop: none).
fn run_jobs(
    fixture: &Fixture,
    oracle: &JobOracle,
    mut more: impl FnMut(usize, Instant) -> bool,
    due: impl Fn(usize, Instant) -> Option<Instant>,
) -> PhaseResult {
    let mut result = PhaseResult::default();
    let meter = Meter::start();
    let started = meter.started();
    let mut i = 0;
    while more(i, started) {
        let arrival = due(i, started);
        let lag = arrival.map_or(Duration::ZERO, wait_until);
        let begun = Instant::now();
        result.attempted += 1;
        match job(fixture, oracle) {
            Ok((_, done)) => {
                result
                    .samples
                    .push(Sample::new(i, done - arrival.unwrap_or(begun)));
                if arrival.is_some() {
                    result.lags_us.push((lag.as_secs_f64() * 1e6) as f32);
                }
            }
            Err(what) => {
                result.failed += 1;
                result.failures.push(what);
            }
        }
        i += 1;
        // Every job is a lap of its own.
        meter.lap_done();
    }
    (result.wall, result.cpu_s, result.peaks_mb) = meter.finish();
    result
}

pub fn plain(settings: &Settings, out: &mut Output) -> Result<(), String> {
    let (fixture, oracle, first) = set_up(settings)?;
    sys::trim_heap();
    let length = Duration::from_secs_f64(settings.seconds);
    let closed = run_jobs(
        &fixture,
        &oracle,
        |_, started| started.elapsed() < length,
        |_, _| None,
    );
    end_to_end_metrics(out, &closed);
    drop((fixture, oracle));

    // As in a served run, the other set-ups come after the timed phase.
    let mut setup_s = vec![first];
    for _ in 1..settings.setup_reps() {
        setup_s.push(set_up(settings)?.2);
    }
    out.set("setup_s", stats::median(&setup_s));
    Ok(())
}

/// Jobs arriving on the fixed schedule, for the traced run.
fn open_loop(rate: f64, fixture: &Fixture, oracle: &JobOracle, length: Duration) -> PhaseResult {
    let jobs = ((rate * length.as_secs_f64()).round() as usize).max(1);
    run_jobs(
        fixture,
        oracle,
        |i, _| i < jobs,
        |i, started| Some(started + due_offset(i, rate)),
    )
}

/// Root span of a traced job.
const JOB: &str = "ingest.job";

/// The job again, one public call per span, sealing after each table as
/// `MaterializedWorkflow::load_table` does.
fn replay(tracer: &mut Tracer, request: u32, root: u32, fixture: &Fixture) -> ReplayTotals {
    let mut totals = ReplayTotals::default();
    let (mappings, id) = tracer.time(request, Some(root), "geotriples.parse_mappings", || {
        layers::parse_all_mappings(fixture)
    });
    totals.parse_mappings_s = tracer.spans()[id as usize].duration().as_secs_f64();
    let (batches, id) = tracer.time(request, Some(root), "geotriples.process_parallel", || {
        layers::transform_tables(fixture, &mappings)
    });
    totals.process_s = tracer.spans()[id as usize].duration().as_secs_f64();
    totals.triples = batches.triples();

    let mut store = layers::new_store();
    for table in 0..batches.tables() {
        let (_, id) = tracer.time(request, Some(root), "store.insert", || {
            layers::insert_batch(&mut store, &batches, table)
        });
        totals.insert_s += tracer.spans()[id as usize].duration().as_secs_f64();
        let (_, id) = tracer.time(request, Some(root), "store.finish_load", || {
            layers::finish_load(&mut store)
        });
        totals.finish_load_s += tracer.spans()[id as usize].duration().as_secs_f64();
    }
    totals
}

#[derive(Default)]
struct ReplayTotals {
    triples: usize,
    parse_mappings_s: f64,
    process_s: f64,
    insert_s: f64,
    finish_load_s: f64,
}

/// Resident bytes per stored triple. Measured first thing in the process,
/// while the allocator has nothing freed to hand back: later, a new store
/// would be built in memory an earlier one released, and the resident
/// size would not move.
fn store_footprint(settings: &Settings) -> Option<f64> {
    let fixture = Fixture::generate(settings.seed, job_cells(settings));
    let batches = layers::transform_tables(&fixture, &layers::parse_all_mappings(&fixture));
    let before = sys::rss_bytes()?;
    let mut store = layers::new_store();
    for table in 0..batches.tables() {
        layers::insert_batch(&mut store, &batches, table);
        layers::finish_load(&mut store);
    }
    let grown = sys::rss_bytes()? - before;
    drop(store);
    Some(grown / batches.triples() as f64)
}

pub fn traced(settings: &Settings, out: &mut Output) -> Result<(), String> {
    if let Some(bytes) = store_footprint(settings) {
        out.set("store.bytes_per_triple", bytes);
    }
    let (fixture, oracle, setup_s) = set_up(settings)?;
    out.set("setup.build_s", setup_s);
    if let Some(rate) = settings.workload.rate_rps() {
        let quarter = Duration::from_secs_f64(settings.seconds / 4.0);
        open_loop_metrics(out, &open_loop(rate, &fixture, &oracle, quarter));
    }
    let mut tracer = Tracer::new();
    let budget = Duration::from_secs_f64(settings.seconds / 2.0);
    let started = Instant::now();
    let mut request = 0u32;
    let mut replays = Vec::new();
    let mut shares = Vec::new();
    let mut job_ms = Vec::new();
    let mut rates = Vec::new();
    while request == 0 || started.elapsed() < budget {
        let begun = Instant::now();
        out.attempted += 1;
        let done = match job(&fixture, &oracle) {
            Ok((triples, done)) => {
                rates.push(triples as f64 / 1e3 / (done - begun).as_secs_f64());
                done
            }
            Err(what) => {
                out.failed += 1;
                out.errors.push(format!("traced job: {what}"));
                break;
            }
        };
        let root = tracer.record(request, None, JOB, begun, done);
        let totals = replay(&mut tracer, request, root, &fixture);
        let job_s = (done - begun).as_secs_f64();
        shares.push(
            (totals.parse_mappings_s + totals.process_s + totals.insert_s + totals.finish_load_s)
                / job_s,
        );
        job_ms.push(job_s * 1e3);
        replays.push(totals);
        request += 1;
    }
    out.set("trace.requests", f64::from(request));
    if !replays.is_empty() {
        let median = |f: &dyn Fn(&ReplayTotals) -> f64| {
            stats::median(&replays.iter().map(f).collect::<Vec<_>>())
        };
        out.set(
            "geotriples.parse_mappings_us",
            median(&|t| t.parse_mappings_s * 1e6),
        );
        out.set(
            "geotriples.process_ktriples_s",
            median(&|t| t.triples as f64 / 1e3 / t.process_s),
        );
        out.set(
            "store.insert_ktriples_s",
            median(&|t| t.triples as f64 / 1e3 / t.insert_s),
        );
        out.set("store.finish_load_s", median(&|t| t.finish_load_s));
        out.set("ingest.ktriples_s", stats::median(&rates));
        out.set("ingest.store_geotriples_share", stats::median(&shares));
        out.notes.push(format!(
            "traced jobs: median {:.1} ms",
            stats::median(&job_ms)
        ));
        // For a job the ladder is the write path: what the replay's
        // public calls cover of the real job.
        out.set("trace.accounted_share", stats::median(&shares));
    }

    // One job on a world of five times the side (twenty-five times the
    // triples): the write path is super-linear, and this is where that
    // gets a number.
    let big = Fixture::generate(settings.seed, job_cells(settings) * 5);
    let begun = Instant::now();
    let workflow = layers::load_materialized(&big)?;
    let seconds = begun.elapsed().as_secs_f64();
    out.set(
        "ingest.scale_ktriples_s",
        layers::triple_count(&workflow) as f64 / 1e3 / seconds,
    );
    drop(workflow);

    let path = out_dir().join("trace-ingest.jsonl");
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.notes.push(format!(
        "{} spans written to {}",
        tracer.spans().len(),
        path.display()
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Answer;
    use crate::workloads::Workload;

    #[test]
    fn a_job_is_verified_against_the_oracle() {
        let fixture = Fixture::generate(5, 8);
        let oracle = job_oracle(&fixture).unwrap();
        let (triples, _) = job(&fixture, &oracle).unwrap();
        assert_eq!(triples, oracle.triples);
        assert!(triples > 500);
        // A job measured against another world's oracle is a failure.
        let other = job_oracle(&Fixture::generate(6, 9)).unwrap();
        assert!(job(&fixture, &other).is_err());
        let wrong_answer = JobOracle {
            triples,
            first_answer: Expected::Exactly(Answer::Rows(vec![1, 2, 3])),
        };
        assert!(job(&fixture, &wrong_answer).unwrap_err().contains("rows"));
    }

    #[test]
    fn phases_report_every_end_to_end_metric() {
        let settings = Settings {
            workload: Workload::Ingest,
            seed: 3,
            seconds: 0.2,
            smoke: true,
        };
        let out = crate::run::checked(|out| plain(&settings, out));
        assert!(out.correct(), "{:?}", out.errors);
        assert!(out.attempted >= 2);
        for def in crate::metrics::end_to_end() {
            let value = out.metrics.get(&def.name).copied().unwrap_or(0.0);
            assert!(value > 0.0, "{} = {value}", def.name);
        }
    }
}
