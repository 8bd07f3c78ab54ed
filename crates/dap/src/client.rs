//! The DAP client used by the SDL and by the OBDA `opendap` virtual table.
//!
//! Every call goes through the configured [`Transport`], which charges the
//! simulated WAN cost — so downstream timings (bench B1) reflect the
//! remote-access behaviour the paper describes.
//!
//! Two defensive layers sit around the wire:
//!
//! * **Integrity** — every response is length- and CRC-32-checked across
//!   [`Transport::deliver`] (modelled on DAP4's response checksums), so a
//!   truncated or corrupted payload surfaces as a typed
//!   [`DapError::Truncated`]/[`DapError::Transport`] instead of a silently
//!   wrong answer.
//! * **Resilience** (optional, [`DapClient::enable_resilience`]) — a
//!   [`crate::resilience::RetryPolicy`] plus per-dataset circuit breaker;
//!   see [`crate::resilience`] for the taxonomy and metrics.

use crate::clock::Clock;
use crate::constraint::Constraint;
use crate::resilience::{ResilienceConfig, ResilienceState};
use crate::server::DapServer;
use crate::transport::Transport;
use crate::{das, dds, dods, DapError};
use applab_array::Variable;
use std::sync::{Arc, PoisonError, RwLock};

/// CRC-32 (IEEE 802.3, reflected) — the checksum DAP4 attaches to data
/// responses. Every exchange checksums its payload twice (as sent and as
/// delivered), so it runs over every byte of a grid fetch: table-driven,
/// one lookup per byte instead of eight shift-and-mask rounds.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// `CRC32_TABLE[b]`: the register after eight bitwise rounds from `b`.
const CRC32_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

fn utf8(payload: Vec<u8>) -> Result<String, DapError> {
    String::from_utf8(payload)
        .map_err(|_| DapError::Wire("response is not valid UTF-8".to_string()))
}

/// A client bound to one server through a transport.
pub struct DapClient {
    server: Arc<DapServer>,
    transport: Arc<dyn Transport>,
    token: Option<String>,
    /// Instance-labeled handle into the global metrics registry; the
    /// [`bytes_received`](Self::bytes_received) getter reads it back.
    bytes_received: Arc<applab_obs::Counter>,
    /// Retry + breaker state; `None` (the default) keeps the legacy
    /// fail-on-first-error behaviour with zero overhead.
    resilience: RwLock<Option<Arc<ResilienceState>>>,
}

impl DapClient {
    pub fn new(server: Arc<DapServer>, transport: Arc<dyn Transport>) -> Self {
        let instance = applab_obs::next_instance_id().to_string();
        DapClient {
            server,
            transport,
            token: None,
            bytes_received: applab_obs::global().counter_with(
                "applab_dap_bytes_received_total",
                &[("instance", &instance)],
            ),
            resilience: RwLock::new(None),
        }
    }

    /// Use an access token for every request (RAMANI registration scheme).
    pub fn with_token(mut self, token: impl Into<String>) -> Self {
        self.token = Some(token.into());
        self
    }

    /// Turn on retry + circuit breaking for all requests. `clock` drives
    /// the breaker cooldown (use a `ManualClock` in deterministic tests);
    /// `seed` drives the backoff jitter.
    pub fn enable_resilience(&self, config: ResilienceConfig, clock: Arc<dyn Clock>, seed: u64) {
        *self
            .resilience
            .write()
            .unwrap_or_else(PoisonError::into_inner) =
            Some(Arc::new(ResilienceState::new(config, clock, seed)));
    }

    /// The active resilience state, if any (tests, diagnostics).
    pub fn resilience(&self) -> Option<Arc<ResilienceState>> {
        self.resilience
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Total payload bytes received so far.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.get()
    }

    /// Round trips performed so far (from the transport).
    pub fn round_trips(&self) -> u64 {
        self.transport.round_trips()
    }

    /// One integrity-checked wire exchange: checksum the authoritative
    /// server payload, push it through the transport, and verify what
    /// arrived, so wire damage can never reach a parser unnoticed.
    fn exchange(&self, payload: Vec<u8>) -> Result<Vec<u8>, DapError> {
        let expected_len = payload.len();
        let expected_crc = crc32(&payload);
        let delivered = self.transport.deliver(payload)?;
        if delivered.len() != expected_len {
            return Err(DapError::Truncated {
                expected: expected_len,
                delivered: delivered.len(),
            });
        }
        if crc32(&delivered) != expected_crc {
            return Err(DapError::Transport(
                "payload integrity check failed: checksum mismatch".to_string(),
            ));
        }
        self.bytes_received.add(delivered.len() as u64);
        Ok(delivered)
    }

    /// The shared request path: produce the server payload, move it across
    /// the wire with integrity checks, parse — all under the retry policy
    /// and breaker when resilience is enabled, and under one `dap.request`
    /// span either way.
    fn fetch<T>(
        &self,
        dataset: &str,
        kind: &'static str,
        produce: &dyn Fn() -> Result<Vec<u8>, DapError>,
        parse: &dyn Fn(Vec<u8>) -> Result<T, DapError>,
    ) -> Result<T, DapError> {
        let mut span = applab_obs::span("dap.request");
        span.record("kind", kind);
        let run = || {
            let payload = produce()?;
            let delivered = self.exchange(payload)?;
            let bytes = delivered.len();
            let value = parse(delivered)?;
            Ok((value, bytes))
        };
        let resilience = self
            .resilience
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let outcome = match resilience {
            Some(state) => state.execute(dataset, &run),
            None => run(),
        };
        match outcome {
            Ok((value, bytes)) => {
                span.record("bytes", bytes);
                applab_obs::querystats::dap_round_trip(bytes as u64);
                Ok(value)
            }
            Err(e) => {
                span.record("error", e.to_string());
                Err(e)
            }
        }
    }

    /// Fetch and parse the DDS.
    pub fn get_dds(&self, dataset: &str) -> Result<dds::Dds, DapError> {
        self.fetch(
            dataset,
            "dds",
            &|| {
                self.server
                    .dds(dataset, self.token.as_deref())
                    .map(String::into_bytes)
            },
            &|payload| dds::parse(&utf8(payload)?),
        )
    }

    /// Fetch and parse the DAS.
    pub fn get_das(&self, dataset: &str) -> Result<das::Das, DapError> {
        self.fetch(
            dataset,
            "das",
            &|| {
                self.server
                    .das(dataset, self.token.as_deref())
                    .map(String::into_bytes)
            },
            &|payload| das::parse(&utf8(payload)?),
        )
    }

    /// Fetch a data subset.
    pub fn get_data(
        &self,
        dataset: &str,
        constraint: &Constraint,
    ) -> Result<Vec<Variable>, DapError> {
        self.fetch(
            dataset,
            "dods",
            &|| self.server.dods(dataset, constraint, self.token.as_deref()),
            &|payload| dods::decode(&payload),
        )
    }

    /// Dataset names visible on the server; fallible and instrumented
    /// like every other request (span kind `catalog`).
    pub fn try_list_datasets(&self) -> Result<Vec<String>, DapError> {
        self.fetch(
            "_catalog",
            "catalog",
            &|| Ok(self.server.dataset_names().join("\n").into_bytes()),
            &|payload| {
                let text = utf8(payload)?;
                Ok(if text.is_empty() {
                    Vec::new()
                } else {
                    text.split('\n').map(String::from).collect()
                })
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, ChaosTransport};
    use crate::clock::ManualClock;
    use crate::resilience::BreakerState;
    use crate::server::grid_dataset;
    use crate::transport::{Local, SimulatedWan};
    use applab_array::Range;
    use std::time::Duration;

    fn setup() -> Arc<DapServer> {
        let s = DapServer::new();
        s.publish(grid_dataset(
            "lai",
            &[0.0, 86_400.0],
            &[48.0, 48.5],
            &[2.0, 2.5],
            |t, la, lo| (t + la + lo) as f64,
        ));
        Arc::new(s)
    }

    #[test]
    fn crc32_test_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bitwise CRC-32, one shift-and-mask round per bit: the oracle
    /// for the table-driven one.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_table_matches_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        for _ in 0..200 {
            let len = rng.gen_range(0..=4096usize);
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(crc32(&payload), crc32_bitwise(&payload), "len {len}");
        }
    }

    #[test]
    fn fetch_metadata_and_data() {
        let client = DapClient::new(setup(), Arc::new(Local::new()));
        let dds = client.get_dds("lai").unwrap();
        assert_eq!(dds.dataset, "lai");
        let das = client.get_das("lai").unwrap();
        assert!(das.contains_key("NC_GLOBAL"));
        let vars = client
            .get_data(
                "lai",
                &Constraint::variable("LAI", vec![Range::index(1), Range::all(2), Range::all(2)]),
            )
            .unwrap();
        assert_eq!(vars[0].data.shape(), &[1, 2, 2]);
        assert_eq!(vars[0].data.get(&[0, 1, 1]).unwrap(), 3.0);
        assert!(client.bytes_received() > 0);
        assert_eq!(client.round_trips(), 3);
        assert_eq!(client.try_list_datasets().unwrap(), vec!["lai".to_string()]);
    }

    #[test]
    fn wan_transport_accounts_cost() {
        let wan = Arc::new(SimulatedWan::new(Duration::from_millis(10), 1e6, false));
        let client = DapClient::new(setup(), wan.clone());
        client.get_dds("lai").unwrap();
        client.get_data("lai", &Constraint::all()).unwrap();
        assert_eq!(wan.round_trips(), 2);
        assert!(wan.total_charged() >= Duration::from_millis(20));
    }

    #[test]
    fn token_flows_through() {
        let server = setup();
        server.register_token("t", "bob");
        let denied = DapClient::new(server.clone(), Arc::new(Local::new()));
        assert!(denied.get_dds("lai").is_err());
        let ok = DapClient::new(server.clone(), Arc::new(Local::new())).with_token("t");
        assert!(ok.get_dds("lai").is_ok());
        assert_eq!(server.access_log()["bob"]["lai"], 1);
    }

    #[test]
    fn damaged_payloads_are_typed_errors_never_wrong_answers() {
        // 100% truncation: every request fails with Truncated or a wire
        // parse error — never a short read that decodes "successfully".
        let truncating = ChaosTransport::new(
            Arc::new(Local::new()),
            ChaosConfig {
                truncate_rate: 1.0,
                ..ChaosConfig::default()
            },
            11,
        );
        let client = DapClient::new(setup(), Arc::new(truncating));
        for _ in 0..8 {
            match client.get_data("lai", &Constraint::all()) {
                Err(DapError::Truncated {
                    expected,
                    delivered,
                }) => {
                    assert!(delivered < expected)
                }
                other => panic!("expected Truncated, got {other:?}"),
            }
        }
        // 100% corruption: CRC catches every flipped payload.
        let corrupting = ChaosTransport::new(
            Arc::new(Local::new()),
            ChaosConfig {
                corrupt_rate: 1.0,
                ..ChaosConfig::default()
            },
            11,
        );
        let client = DapClient::new(setup(), Arc::new(corrupting));
        for _ in 0..8 {
            match client.get_data("lai", &Constraint::all()) {
                Err(DapError::Transport(msg)) => assert!(msg.contains("checksum")),
                other => panic!("expected checksum failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn resilient_client_rides_through_faults() {
        // 40% transient failures, 4 attempts: P(all four attempts fail) ≈
        // 2.6% per request — with a fixed seed the sequence below is known
        // to succeed, and determinism makes this exact, not flaky.
        let chaos = ChaosTransport::new(
            Arc::new(Local::new()),
            ChaosConfig {
                transient_rate: 0.4,
                ..ChaosConfig::default()
            },
            21,
        );
        let client = DapClient::new(setup(), Arc::new(chaos));
        client.enable_resilience(ResilienceConfig::no_sleep(), ManualClock::new(), 3);
        for _ in 0..16 {
            client
                .get_data("lai", &Constraint::all())
                .expect("retries absorb faults");
        }
        let state = client.resilience().expect("resilience enabled");
        assert!(state.retries_total() > 0, "some retries must have fired");
        assert_eq!(state.breaker().state("lai"), BreakerState::Closed);
    }

    #[test]
    fn dead_upstream_trips_breaker_and_fails_fast() {
        let chaos = ChaosTransport::new(
            Arc::new(Local::new()),
            ChaosConfig {
                transient_rate: 1.0,
                ..ChaosConfig::default()
            },
            5,
        );
        let chaos = Arc::new(chaos);
        let client = DapClient::new(setup(), chaos.clone());
        let clock = ManualClock::new();
        client.enable_resilience(ResilienceConfig::no_sleep(), clock.clone(), 3);
        // Exhaust retries twice: 8 consecutive failures trip the breaker.
        for _ in 0..2 {
            match client.get_data("lai", &Constraint::all()) {
                Err(DapError::Unavailable { dataset, retries }) => {
                    assert_eq!(dataset, "lai");
                    assert_eq!(retries, 3);
                }
                other => panic!("expected Unavailable, got {other:?}"),
            }
        }
        let state = client.resilience().expect("resilience enabled");
        assert_eq!(state.breaker().state("lai"), BreakerState::Open);
        // Open breaker: fail fast, the wire is not even touched.
        let trips_before = client.round_trips();
        assert!(matches!(
            client.get_data("lai", &Constraint::all()),
            Err(DapError::Unavailable { retries: 0, .. })
        ));
        assert_eq!(client.round_trips(), trips_before);
        // After the cooldown the probe goes through (and fails again here,
        // since the transport still faults 100%).
        clock.advance(Duration::from_secs(31));
        assert!(client.get_data("lai", &Constraint::all()).is_err());
        assert!(client.round_trips() > trips_before);
    }
}
