//! The load generator: a closed loop (each connection sends its next
//! request when the previous answer is in) and an open loop (requests are
//! due on a fixed schedule whether or not the server keeps up). Both walk
//! whole laps of a fixed schedule, so every run of a workload does the
//! same work, and both check every response.

use crate::client::HttpClient;
use crate::json::count_result_rows;
use crate::sys;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One distinct request and what its response must look like.
#[derive(Debug, Clone)]
pub struct Op {
    pub class: usize,
    /// The exact bytes sent.
    pub request: Vec<u8>,
    pub expect_rows: usize,
    /// Pinned from the response that was verified against the oracle
    /// during the warm-up lap.
    pub expect_len: usize,
}

impl Op {
    /// `Err` says what was wrong with a response.
    pub fn check(&self, status: u16, body: &[u8]) -> Result<(), String> {
        if status != 200 {
            return Err(format!("status {status}"));
        }
        if body.len() != self.expect_len {
            return Err(format!(
                "body of {} bytes, expected {}",
                body.len(),
                self.expect_len
            ));
        }
        let rows = count_result_rows(body);
        if rows != self.expect_rows {
            return Err(format!("{rows} rows, expected {}", self.expect_rows));
        }
        Ok(())
    }
}

/// One verified response, kept to eight bytes: `wire_small` collects
/// 800,000 of them in a run, in the process whose `rss_peak_mb` is
/// reported (`f32` carries seven significant digits at any scale). What
/// was sent is known from the slot.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Position in the phase's schedule.
    pub slot: u32,
    /// Closed loop: send → last byte parsed. Open loop: *due* instant →
    /// last byte parsed.
    pub latency_ms: f32,
}

impl Sample {
    pub fn new(slot: usize, latency: Duration) -> Self {
        Sample {
            slot: u32::try_from(slot).expect("a phase has fewer than 2^32 slots"),
            latency_ms: (latency.as_secs_f64() * 1e3) as f32,
        }
    }
}

#[derive(Debug, Default)]
pub struct PhaseResult {
    pub samples: Vec<Sample>,
    /// Open loop only: how long after its due instant each request left,
    /// in microseconds.
    pub lags_us: Vec<f32>,
    pub attempted: usize,
    pub failed: usize,
    /// First few failure descriptions, for the operator.
    pub failures: Vec<String>,
    pub wall: Duration,
    /// Process CPU time the phase took, in seconds.
    pub cpu_s: f64,
    /// Peak resident size of each stretch of the phase (see [`Meter`]).
    pub peaks_mb: Vec<f64>,
    pub body_bytes: u64,
}

impl PhaseResult {
    pub fn ok(&self) -> usize {
        self.samples.len()
    }
}

const MAX_FAILURE_NOTES: usize = 5;

/// Where and what to send.
pub struct Plan<'a> {
    pub addr: SocketAddr,
    pub ops: &'a [Op],
    /// Indexes into `ops`: a whole number of laps of `lap_len` slots,
    /// walked round and round.
    pub schedule: &'a [usize],
    pub lap_len: usize,
    pub connections: usize,
    /// Open a fresh connection before every n-th request of a connection.
    pub reconnect_every: Option<usize>,
    /// Runs before each request leaves (the virtual workload moves its
    /// manual clock here).
    pub before_each: &'a (dyn Fn() + Sync),
}

/// What one connection thread collected.
#[derive(Default)]
struct Tally {
    samples: Vec<Sample>,
    lags_us: Vec<f32>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    body_bytes: u64,
}

impl Tally {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_NOTES {
            self.failures.push(note);
        }
    }
}

/// A connection with its reconnect policy and reusable body buffer.
struct Conn<'a> {
    plan: &'a Plan<'a>,
    client: Option<HttpClient>,
    sent: usize,
    body: Vec<u8>,
}

impl<'a> Conn<'a> {
    fn new(plan: &'a Plan<'a>) -> Self {
        Conn {
            plan,
            client: HttpClient::connect(plan.addr).ok(),
            sent: 0,
            body: Vec::new(),
        }
    }

    /// Send schedule slot `slot`; returns the instant the response was
    /// complete, or notes the failure.
    fn send(&mut self, slot: usize, tally: &mut Tally) -> Option<Instant> {
        let op = &self.plan.ops[self.plan.schedule[slot % self.plan.schedule.len()]];
        tally.attempted += 1;
        self.sent += 1;
        let renew = self
            .plan
            .reconnect_every
            .is_some_and(|n| self.sent.is_multiple_of(n));
        if renew || self.client.is_none() {
            // Connection set-up is part of the request that needs it.
            self.client = HttpClient::connect(self.plan.addr).ok();
        }
        let Some(client) = self.client.as_mut() else {
            tally.fail("connect refused".to_string());
            return None;
        };
        match client.send(&op.request, &mut self.body) {
            Ok(status) => {
                let done = Instant::now();
                tally.body_bytes += self.body.len() as u64;
                match op.check(status, &self.body) {
                    Ok(()) => Some(done),
                    Err(what) => {
                        tally.fail(format!("class {}: {what}", op.class));
                        None
                    }
                }
            }
            Err(e) => {
                tally.fail(format!("class {}: transport: {e}", op.class));
                self.client = None;
                None
            }
        }
    }
}

fn collect(tallies: Mutex<Vec<Tally>>, meter: Meter) -> PhaseResult {
    let (wall, cpu_s, peaks_mb) = meter.finish();
    let mut result = PhaseResult {
        wall,
        cpu_s,
        peaks_mb,
        ..PhaseResult::default()
    };
    for tally in tallies.into_inner().expect("connection thread panicked") {
        result.samples.extend(tally.samples);
        result.lags_us.extend(tally.lags_us);
        result.attempted += tally.attempted;
        result.failed += tally.failed;
        result.failures.extend(tally.failures);
        result.body_bytes += tally.body_bytes;
    }
    result.failures.truncate(MAX_FAILURE_NOTES);
    result
}

// ---------------------------------------------------------------------
// What a phase costs the process
// ---------------------------------------------------------------------

/// A stretch is at least this long: a lap or two of the slower workloads.
const MIN_STRETCH: Duration = Duration::from_millis(250);

/// Wall time, CPU time and peak resident size of a phase.
///
/// The peak is taken per *stretch* — from one lap's end to the first lap's
/// end at least [`MIN_STRETCH`] later — by starting `VmHWM` again each
/// time, and the run reports the median stretch's. Over a whole phase the
/// peak is the one moment at which the largest requests in flight were all
/// at their largest: 260 MB on `store_mix` in some runs and 215 MB in
/// others, while every lap is the same work and the median stretch peaks
/// at 211 MB in all of them. A change that makes requests need more memory
/// moves every stretch.
pub struct Meter {
    started: Instant,
    cpu_at_start: f64,
    /// When the current stretch began, and the peaks of the finished ones.
    stretches: Mutex<(Duration, Vec<f64>)>,
}

impl Meter {
    pub fn start() -> Self {
        sys::reset_peak_rss();
        Meter {
            started: Instant::now(),
            cpu_at_start: sys::cpu_seconds().unwrap_or(0.0),
            stretches: Mutex::new((Duration::ZERO, Vec::new())),
        }
    }

    pub fn started(&self) -> Instant {
        self.started
    }

    /// A lap ended: close the stretch if it is long enough.
    pub fn lap_done(&self) {
        let at = self.started.elapsed();
        let mut stretches = self.stretches.lock().expect("meter lock");
        if at >= stretches.0 + MIN_STRETCH {
            stretches.0 = at;
            stretches.1.extend(sys::peak_rss_mb());
            sys::reset_peak_rss();
        }
    }

    /// End of the phase: wall seconds, CPU seconds, and the peaks (the
    /// last stretch's too, however short: it is one value among dozens).
    pub fn finish(self) -> (Duration, f64, Vec<f64>) {
        let wall = self.started.elapsed();
        let cpu_s = sys::cpu_seconds().unwrap_or(0.0) - self.cpu_at_start;
        let (_, mut peaks) = self.stretches.into_inner().expect("meter lock");
        peaks.extend(sys::peak_rss_mb());
        (wall, cpu_s, peaks)
    }
}

/// Closed loop: `plan.connections` connections, each sending its next
/// request as soon as its previous answer is verified. Runs for at least
/// `duration`, then on to the end of the lap in progress.
pub fn closed_loop(plan: &Plan<'_>, duration: Duration) -> PhaseResult {
    let lap_len = plan.lap_len;
    let cursor = AtomicUsize::new(0);
    let stop_at = AtomicUsize::new(usize::MAX);
    let tallies = Mutex::new(Vec::new());
    let meter = Meter::start();
    let started = meter.started();
    let deadline = started + duration;
    std::thread::scope(|scope| {
        for _ in 0..plan.connections {
            scope.spawn(|| {
                let mut conn = Conn::new(plan);
                let mut tally = Tally::default();
                loop {
                    let slot = cursor.fetch_add(1, Ordering::Relaxed);
                    if slot >= stop_at.load(Ordering::Relaxed) {
                        break;
                    }
                    (plan.before_each)();
                    let sent = Instant::now();
                    if let Some(done) = conn.send(slot, &mut tally) {
                        tally.samples.push(Sample::new(slot, done - sent));
                    }
                    if (slot + 1).is_multiple_of(lap_len) {
                        meter.lap_done();
                    }
                    if Instant::now() >= deadline && stop_at.load(Ordering::Relaxed) == usize::MAX {
                        let handed_out = cursor.load(Ordering::Relaxed);
                        let boundary = handed_out.div_ceil(lap_len) * lap_len;
                        // Whoever gets here first fixes the boundary.
                        let _ = stop_at.compare_exchange(
                            usize::MAX,
                            boundary,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        );
                    }
                }
                tallies.lock().expect("tally lock").push(tally);
            });
        }
    });
    collect(tallies, meter)
}

/// How many requests an open-loop phase of `duration` at `rate_rps`
/// sends: whole laps, at least one.
pub fn open_loop_requests(rate_rps: f64, duration: Duration, lap_len: usize) -> usize {
    let laps = (rate_rps * duration.as_secs_f64() / lap_len as f64)
        .round()
        .max(1.0);
    laps as usize * lap_len
}

/// When request `i` of an open loop at `rate_rps` is due.
pub fn due_offset(i: usize, rate_rps: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate_rps)
}

/// Sleep until `due` and say how late the wake-up was. A sleeping thread
/// wakes tens of microseconds late — more than a `wire_small` request
/// takes — and that lateness is part of the open-loop latency (it counts
/// from `due`) and reported as `client.sched_lag_p95_us`. Spinning through
/// the last stretch instead was tried: on a host where generator and
/// server share two cores it made the latencies bimodal, because a
/// spinning generator sits on the core the server's worker wants to wake
/// up on.
pub fn wait_until(due: Instant) -> Duration {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due)
}

/// Open loop: request `i` is due at `i / rate_rps`; whichever connection
/// is free takes the next due request. Latency counts from the due
/// instant, so time a request spent waiting for a free connection (a
/// stalled server) is charged to it.
pub fn open_loop(plan: &Plan<'_>, rate_rps: f64, duration: Duration) -> PhaseResult {
    let lap_len = plan.lap_len;
    let total = open_loop_requests(rate_rps, duration, lap_len);
    let cursor = AtomicUsize::new(0);
    let tallies = Mutex::new(Vec::new());
    let meter = Meter::start();
    let started = meter.started();
    std::thread::scope(|scope| {
        for _ in 0..plan.connections {
            scope.spawn(|| {
                let mut conn = Conn::new(plan);
                let mut tally = Tally::default();
                loop {
                    let slot = cursor.fetch_add(1, Ordering::Relaxed);
                    if slot >= total {
                        break;
                    }
                    let due = started + due_offset(slot, rate_rps);
                    let lag = wait_until(due);
                    (plan.before_each)();
                    if let Some(done) = conn.send(slot, &mut tally) {
                        tally.samples.push(Sample::new(slot, done - due));
                        tally.lags_us.push((lag.as_secs_f64() * 1e6) as f32);
                    }
                    if (slot + 1).is_multiple_of(lap_len) {
                        meter.lap_done();
                    }
                }
                tallies.lock().expect("tally lock").push(tally);
            });
        }
    });
    collect(tallies, meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A server that answers every request head with a fixed 3-row body
    /// after `service` of work, one connection at a time.
    fn stub_server(
        service: Duration,
        connections: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut workers = Vec::new();
            for _ in 0..connections {
                let (mut stream, _) = listener.accept().unwrap();
                workers.push(std::thread::spawn(move || {
                    let mut buf = [0u8; 4096];
                    let mut pending = Vec::new();
                    loop {
                        match stream.read(&mut buf) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => pending.extend_from_slice(&buf[..n]),
                        }
                        while let Some(end) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
                            pending.drain(..end + 4);
                            std::thread::sleep(service);
                            let body = STUB_BODY;
                            // One write: head and body in separate segments
                            // would wait out Nagle and the delayed ACK.
                            let response = format!(
                                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                                body.len()
                            );
                            if stream.write_all(response.as_bytes()).is_err() {
                                return;
                            }
                        }
                    }
                }));
            }
            for w in workers {
                w.join().unwrap();
            }
        });
        (addr, handle)
    }

    const STUB_BODY: &str = r#"{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"uri","value":"a"}},{"s":{"type":"uri","value":"b"}},{"s":{"type":"uri","value":"c"}}]}}"#;

    fn stub_op(class: usize) -> Op {
        Op {
            class,
            request: crate::client::encode_get("/x"),
            expect_rows: 3,
            expect_len: STUB_BODY.len(),
        }
    }

    #[test]
    fn closed_loop_runs_whole_laps_and_checks_every_response() {
        let (addr, server) = stub_server(Duration::from_millis(1), 1);
        let ops = [
            stub_op(0),
            stub_op(1),
            Op {
                expect_rows: 4,
                ..stub_op(2)
            },
        ];
        let lap = [0, 1, 1, 2, 0];
        let plan = Plan {
            addr,
            ops: &ops,
            schedule: &lap,
            lap_len: lap.len(),
            connections: 1,
            reconnect_every: None,
            before_each: &|| {},
        };
        let result = closed_loop(&plan, Duration::from_millis(30));
        assert!(
            result.attempted >= 10,
            "ran for the duration: {}",
            result.attempted
        );
        assert_eq!(result.attempted % lap.len(), 0, "stops on a lap boundary");
        let laps = result.attempted / lap.len();
        assert_eq!(
            result.failed, laps,
            "the op with the wrong row count fails once per lap"
        );
        assert_eq!(result.ok(), 4 * laps);
        assert!(
            result.failures[0].contains("3 rows, expected 4"),
            "{:?}",
            result.failures
        );
        assert!(result.samples.iter().all(|s| s.latency_ms >= 1.0));
        server.join().unwrap();
    }

    #[test]
    fn open_loop_times_from_the_due_instant_and_reports_lag() {
        // 10 ms of service, one request due every 2.5 ms, one connection:
        // the server falls behind, so request i waits for i * 7.5 ms of
        // backlog — which only shows when latency counts from the due time.
        let (addr, server) = stub_server(Duration::from_millis(10), 1);
        let ops = [stub_op(0)];
        let lap = [0; 8];
        let plan = Plan {
            addr,
            ops: &ops,
            schedule: &lap,
            lap_len: lap.len(),
            connections: 1,
            reconnect_every: None,
            before_each: &|| {},
        };
        let result = open_loop(&plan, 400.0, Duration::from_millis(20));
        assert_eq!(result.attempted, 8, "whole laps: 400/s * 20 ms = 8");
        assert_eq!(result.failed, 0);
        let last = result.samples.last().unwrap();
        // Due at 17.5 ms, done no earlier than 80 ms.
        assert!(last.latency_ms >= 60.0, "latency {:?}", last.latency_ms);
        assert_eq!(result.lags_us.len(), 8);
        assert!(result.lags_us[7] >= 50_000.0, "lag {:?}", result.lags_us);
        assert!(result.lags_us[0] < 5_000.0, "first request leaves on time");
        server.join().unwrap();
    }

    #[test]
    fn meter_takes_a_peak_per_stretch() {
        let meter = Meter::start();
        meter.lap_done(); // at once: too short to be a stretch
        std::thread::sleep(MIN_STRETCH + Duration::from_millis(5));
        let burn = sys::cpu_seconds().unwrap_or(0.0);
        while sys::cpu_seconds().is_some_and(|now| now - burn < 0.01) {}
        meter.lap_done();
        meter.lap_done(); // too soon after the last one
        let (wall, cpu_s, peaks) = meter.finish();
        assert!(wall >= MIN_STRETCH);
        if cfg!(target_os = "linux") {
            assert!(cpu_s >= 0.01 && cpu_s < wall.as_secs_f64() * 8.0, "{cpu_s}");
            // One finished stretch and the tail.
            assert_eq!(peaks.len(), 2);
            assert!(peaks.iter().all(|&mb| mb > 0.5));
        }
    }

    #[test]
    fn open_loop_schedule_arithmetic() {
        assert_eq!(
            open_loop_requests(90.0, Duration::from_secs(7), 31),
            20 * 31
        );
        assert_eq!(
            open_loop_requests(1.0, Duration::from_secs(1), 31),
            31,
            "at least one lap"
        );
        assert_eq!(due_offset(45, 90.0), Duration::from_millis(500));
        let due = Instant::now() + Duration::from_millis(5);
        let lag = wait_until(due);
        assert!(Instant::now() >= due);
        assert!(lag < Duration::from_millis(50));
        assert!(wait_until(Instant::now() - Duration::from_millis(3)) >= Duration::from_millis(3));
    }

    #[test]
    fn reconnects_on_the_configured_request() {
        let (addr, server) = stub_server(Duration::ZERO, 3);
        let ops = [stub_op(0)];
        let lap = [0; 6];
        let plan = Plan {
            addr,
            ops: &ops,
            schedule: &lap,
            lap_len: lap.len(),
            connections: 1,
            reconnect_every: Some(3),
            before_each: &|| {},
        };
        // 6 requests: connections are opened at start, before the 3rd and
        // before the 6th — three in all, which is what the stub accepts.
        let result = closed_loop(&plan, Duration::ZERO);
        assert_eq!((result.attempted, result.failed), (6, 0));
        server.join().unwrap();
    }
}
