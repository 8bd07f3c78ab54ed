//! Deterministic socket-level fault injection for the wire plane.
//!
//! The *downstream* data plane has a seeded fault model
//! (`applab_dap::chaos`); this module extends the same discipline up to
//! the listening socket. [`ChaosListener`] decorates accepted
//! [`TcpStream`]s with [`ChaosStream`], which injects the hostile-client
//! behaviours an internet-facing SPARQL endpoint actually meets:
//!
//! | kind            | effect on the wire                                  | server must produce            |
//! |-----------------|-----------------------------------------------------|--------------------------------|
//! | `reset`         | connection torn down mid-response (FIN truncation)  | clean connection error         |
//! | `read_stall`    | first request read delayed                          | slow but correct response      |
//! | `write_stall`   | first response write delayed                        | slow but correct response      |
//! | `slowloris`     | request head dribbles in one byte at a time         | correct response or typed 408  |
//! | `partial_write` | every response write accepts only half its buffer   | correct response (slower)      |
//! | `corrupt`       | one early request byte gets its high bit set        | typed 400 / 408, never a silently wrong answer |
//!
//! Scheduling is deterministic in *accept order*: the listener draws
//! exactly one `u64` from a seeded splitmix64 generator
//! ([`applab_obs::DetRng`]) per accepted connection and derives the whole
//! per-connection fault plan from that sub-seed. Replaying the same seed
//! against the same connection sequence replays the same faults — the
//! chaos suite (`tests/http_chaos.rs`) leans on this for per-seed replay.
//!
//! The corruption fault sets the high bit (`^= 0x80`) of one byte in the
//! first [`CORRUPT_WINDOW`] bytes of the request. A high-bit byte can
//! never be valid UTF-8 in a request line or header, and never a valid
//! head terminator — so a corrupted request always surfaces as a typed
//! 4xx (or a 408 when the terminator itself was hit), never as a
//! *different valid query* answered silently.

use applab_obs::DetRng;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Byte window (from the start of the request stream) in which the
/// corruption fault flips a bit: always inside the request line or the
/// first header, so the damage is detected at parse time.
pub const CORRUPT_WINDOW: usize = 48;

/// Per-connection fault rates and fault parameters for [`ChaosListener`].
/// Rates are probabilities in `[0, 1]`, applied cumulatively from one
/// uniform draw per connection, so their sum should stay ≤ 1.
#[derive(Debug, Clone)]
pub struct SocketChaos {
    /// Seed for the accept-order fault schedule.
    pub seed: u64,
    /// Connection torn down after a bounded number of response bytes.
    pub reset_rate: f64,
    /// First request read delayed by [`SocketChaos::stall`].
    pub read_stall_rate: f64,
    /// First response write delayed by [`SocketChaos::stall`].
    pub write_stall_rate: f64,
    /// Request head dribbles in one byte per read, each
    /// [`SocketChaos::drip_delay`] late.
    pub slowloris_rate: f64,
    /// Every response write accepts at most half its buffer.
    pub partial_write_rate: f64,
    /// One early request byte gets its high bit set.
    pub corrupt_rate: f64,
    /// The delay charged by a read/write stall.
    pub stall: Duration,
    /// The per-byte delay of a slowloris drip.
    pub drip_delay: Duration,
}

impl Default for SocketChaos {
    fn default() -> Self {
        SocketChaos {
            seed: 0,
            reset_rate: 0.0,
            read_stall_rate: 0.0,
            write_stall_rate: 0.0,
            slowloris_rate: 0.0,
            partial_write_rate: 0.0,
            corrupt_rate: 0.0,
            stall: Duration::from_millis(25),
            drip_delay: Duration::from_millis(2),
        }
    }
}

impl SocketChaos {
    /// Split `rate` evenly across the six fault kinds — the shape the
    /// chaos suite uses ("30% fault rate" → 5% of each kind).
    pub fn uniform(rate: f64, seed: u64) -> Self {
        let each = rate / 6.0;
        SocketChaos {
            seed,
            reset_rate: each,
            read_stall_rate: each,
            write_stall_rate: each,
            slowloris_rate: each,
            partial_write_rate: each,
            corrupt_rate: each,
            ..SocketChaos::default()
        }
    }
}

/// The per-connection fault plan, fully derived at accept time.
#[derive(Debug, Clone)]
enum Plan {
    /// Let `threshold` response bytes through, then shut the socket down.
    Reset {
        threshold: u64,
    },
    ReadStall {
        delay: Duration,
        fired: bool,
    },
    WriteStall {
        delay: Duration,
        fired: bool,
    },
    /// The first `bytes` request bytes arrive one per read, `delay` late.
    Slowloris {
        bytes: u64,
        delay: Duration,
    },
    PartialWrite,
    /// Set the high bit of the request byte at this absolute offset.
    Corrupt {
        offset: u64,
    },
}

impl Plan {
    /// Derive a plan from one per-connection sub-seed. `None` means the
    /// connection is a healthy passthrough.
    fn derive(config: &SocketChaos, subseed: u64) -> Option<Plan> {
        let mut rng = DetRng::new(subseed);
        // Indexes follow the order of `rates`.
        let rates = [
            config.reset_rate,
            config.read_stall_rate,
            config.write_stall_rate,
            config.slowloris_rate,
            config.partial_write_rate,
            config.corrupt_rate,
        ];
        Some(match rng.pick(&rates)? {
            // Small thresholds reset inside the response head, larger
            // ones mid-body or a few keep-alive responses in.
            0 => Plan::Reset {
                threshold: 1 + rng.next_below(2048) as u64,
            },
            1 => Plan::ReadStall {
                delay: config.stall,
                fired: false,
            },
            2 => Plan::WriteStall {
                delay: config.stall,
                fired: false,
            },
            3 => Plan::Slowloris {
                bytes: 8 + rng.next_below(25) as u64,
                delay: config.drip_delay,
            },
            4 => Plan::PartialWrite,
            _ => Plan::Corrupt {
                offset: rng.next_below(CORRUPT_WINDOW) as u64,
            },
        })
    }

    fn kind(&self) -> &'static str {
        match self {
            Plan::Reset { .. } => "reset",
            Plan::ReadStall { .. } => "read_stall",
            Plan::WriteStall { .. } => "write_stall",
            Plan::Slowloris { .. } => "slowloris",
            Plan::PartialWrite => "partial_write",
            Plan::Corrupt { .. } => "corrupt",
        }
    }
}

/// Fault state shared between the read and write halves of one
/// connection (the connection handler clones the stream for buffered
/// reading; both halves must see one byte-offset view of the wire).
#[derive(Debug)]
struct FaultState {
    plan: Plan,
    /// Request bytes read so far, across both halves.
    read_offset: u64,
    /// Response bytes written so far.
    written: u64,
}

/// A seeded fault-plan dispenser over accepted connections.
///
/// One `u64` is drawn per accept — in accept order — and the whole
/// per-connection plan derives from it, so the fault schedule is a pure
/// function of `(seed, accept index)`.
#[derive(Debug)]
pub struct ChaosListener {
    config: SocketChaos,
    rng: Mutex<DetRng>,
    instance: String,
}

impl ChaosListener {
    /// A listener-side decorator injecting faults per `config`.
    pub fn new(config: SocketChaos) -> Self {
        let rng = Mutex::new(DetRng::new(config.seed));
        ChaosListener {
            config,
            rng,
            instance: applab_obs::next_instance_id().to_string(),
        }
    }

    /// Decorate one accepted connection with its derived fault plan
    /// (most connections pass through untouched at low rates).
    pub fn wrap(&self, tcp: TcpStream) -> ChaosStream {
        let subseed = self.rng.lock().expect("chaos rng lock").next_u64();
        let plan = Plan::derive(&self.config, subseed);
        let fault = plan.map(|plan| {
            applab_obs::global()
                .counter_with(
                    "applab_http_socket_faults_total",
                    &[("kind", plan.kind()), ("instance", &self.instance)],
                )
                .inc();
            Arc::new(Mutex::new(FaultState {
                plan,
                read_offset: 0,
                written: 0,
            }))
        });
        ChaosStream { tcp, fault }
    }
}

/// A [`TcpStream`] decorated with at most one injected fault. With no
/// fault attached (the common case, and every connection of a chaos-free
/// server) reads and writes delegate straight to the socket.
#[derive(Debug)]
pub struct ChaosStream {
    tcp: TcpStream,
    fault: Option<Arc<Mutex<FaultState>>>,
}

impl ChaosStream {
    /// A fault-free wrapper — the no-chaos configuration's stream type,
    /// so the server has exactly one connection type either way.
    pub fn passthrough(tcp: TcpStream) -> Self {
        ChaosStream { tcp, fault: None }
    }

    /// Clone the stream; both clones share one fault state, so the
    /// read half and write half of a connection see a single plan.
    pub fn try_clone(&self) -> io::Result<ChaosStream> {
        Ok(ChaosStream {
            tcp: self.tcp.try_clone()?,
            fault: self.fault.clone(),
        })
    }

    /// A raw handle onto the underlying socket for out-of-band shutdown
    /// (the drain-deadline abort path) — it bypasses fault injection.
    pub fn shutdown_handle(&self) -> io::Result<TcpStream> {
        self.tcp.try_clone()
    }

    /// See [`TcpStream::peer_addr`].
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.tcp.peer_addr()
    }

    /// See [`TcpStream::set_read_timeout`].
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.tcp.set_read_timeout(dur)
    }

    /// See [`TcpStream::set_write_timeout`].
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.tcp.set_write_timeout(dur)
    }

    /// See [`TcpStream::set_nodelay`].
    pub fn set_nodelay(&self, nodelay: bool) -> io::Result<()> {
        self.tcp.set_nodelay(nodelay)
    }

    /// See [`TcpStream::shutdown`].
    pub fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        self.tcp.shutdown(how)
    }
}

impl Read for ChaosStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(fault) = &self.fault else {
            return self.tcp.read(buf);
        };
        // One worker thread owns both halves of a connection, so holding
        // the lock across the (bounded) stall sleeps contends with
        // nothing.
        let mut st = fault.lock().expect("chaos fault lock");
        let read_offset = st.read_offset;
        let n = match &mut st.plan {
            Plan::ReadStall { delay, fired } => {
                if !*fired {
                    *fired = true;
                    std::thread::sleep(*delay);
                }
                self.tcp.read(buf)?
            }
            Plan::Slowloris { bytes, delay } if read_offset < *bytes && !buf.is_empty() => {
                std::thread::sleep(*delay);
                self.tcp.read(&mut buf[..1])?
            }
            Plan::Corrupt { offset } => {
                let offset = *offset;
                let n = self.tcp.read(buf)?;
                if (read_offset..read_offset + n as u64).contains(&offset) {
                    buf[(offset - read_offset) as usize] ^= 0x80;
                }
                n
            }
            _ => self.tcp.read(buf)?,
        };
        st.read_offset += n as u64;
        Ok(n)
    }
}

impl Write for ChaosStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let Some(fault) = &self.fault else {
            return self.tcp.write(buf);
        };
        let mut st = fault.lock().expect("chaos fault lock");
        let written = st.written;
        match &mut st.plan {
            Plan::Reset { threshold } => {
                if written >= *threshold {
                    // Past the byte budget: tear the connection down so
                    // the client sees a truncated response. `shutdown`
                    // sends a FIN; the client's framing check (missing
                    // Content-Length bytes / missing terminator chunk)
                    // turns the truncation into a connection error.
                    let _ = self.tcp.shutdown(Shutdown::Both);
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "chaos: injected connection reset",
                    ));
                }
                let allowed = ((*threshold - written) as usize).min(buf.len());
                let n = self.tcp.write(&buf[..allowed])?;
                st.written += n as u64;
                Ok(n)
            }
            Plan::WriteStall { delay, fired } => {
                if !*fired {
                    *fired = true;
                    std::thread::sleep(*delay);
                }
                let n = self.tcp.write(buf)?;
                st.written += n as u64;
                Ok(n)
            }
            Plan::PartialWrite if !buf.is_empty() => {
                let n = self.tcp.write(&buf[..buf.len().div_ceil(2)])?;
                st.written += n as u64;
                Ok(n)
            }
            _ => {
                let n = self.tcp.write(buf)?;
                st.written += n as u64;
                Ok(n)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.tcp.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn with_plan(plan: Plan, tcp: TcpStream) -> ChaosStream {
        ChaosStream {
            tcp,
            fault: Some(Arc::new(Mutex::new(FaultState {
                plan,
                read_offset: 0,
                written: 0,
            }))),
        }
    }

    #[test]
    fn plans_are_deterministic_in_accept_order() {
        let kinds = |seed| {
            let listener = ChaosListener::new(SocketChaos::uniform(0.5, seed));
            (0..64)
                .map(|_| {
                    let subseed = listener.rng.lock().unwrap().next_u64();
                    Plan::derive(&listener.config, subseed).map(|p| p.kind())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(kinds(7), kinds(7), "same seed, same schedule");
        // Pinned from the generator the schedule was first recorded with;
        // every seeded socket-chaos run replays from these draws.
        assert_eq!(
            kinds(7)[..16],
            [
                None,
                None,
                None,
                None,
                None,
                Some("corrupt"),
                None,
                None,
                Some("reset"),
                None,
                Some("read_stall"),
                None,
                Some("reset"),
                None,
                None,
                Some("reset"),
            ]
        );
        assert_ne!(kinds(7), kinds(8), "different seed, different schedule");
        let hit = kinds(7).iter().filter(|k| k.is_some()).count();
        assert!((10..=54).contains(&hit), "~50% fault rate, got {hit}/64");
    }

    #[test]
    fn zero_rate_never_faults_and_full_rate_always_does() {
        let quiet = ChaosListener::new(SocketChaos::uniform(0.0, 3));
        let loud = ChaosListener::new(SocketChaos::uniform(1.0, 3));
        for _ in 0..32 {
            let subseed = quiet.rng.lock().unwrap().next_u64();
            assert!(Plan::derive(&quiet.config, subseed).is_none());
            let subseed = loud.rng.lock().unwrap().next_u64();
            assert!(Plan::derive(&loud.config, subseed).is_some());
        }
    }

    #[test]
    fn reset_plan_truncates_the_response() {
        let (mut client, server) = tcp_pair();
        let mut chaos = with_plan(Plan::Reset { threshold: 4 }, server);
        assert_eq!(chaos.write(b"abcdef").unwrap(), 4, "capped at the budget");
        let err = chaos.write(b"ef").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"abcd", "client sees a strict prefix, then FIN");
    }

    #[test]
    fn slowloris_plan_drips_one_byte_per_read() {
        let (mut client, server) = tcp_pair();
        client.write_all(b"GET / HTTP/1.1").unwrap();
        let mut chaos = with_plan(
            Plan::Slowloris {
                bytes: 3,
                delay: Duration::ZERO,
            },
            server,
        );
        let mut buf = [0u8; 8];
        assert_eq!(chaos.read(&mut buf).unwrap(), 1);
        assert_eq!(chaos.read(&mut buf).unwrap(), 1);
        assert_eq!(chaos.read(&mut buf).unwrap(), 1);
        let n = chaos.read(&mut buf).unwrap();
        assert!(n > 1, "past the drip window reads flow normally, got {n}");
    }

    #[test]
    fn corrupt_plan_sets_one_high_bit_at_its_offset() {
        let (mut client, server) = tcp_pair();
        client.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut chaos = with_plan(Plan::Corrupt { offset: 4 }, server);
        // Read in two small slices to cross the offset boundary.
        let mut a = [0u8; 3];
        chaos.read_exact(&mut a).unwrap();
        assert_eq!(&a, b"GET");
        let mut b = [0u8; 4];
        chaos.read_exact(&mut b).unwrap();
        assert_eq!(&b, &[b' ', b'/' ^ 0x80, b'h', b'e']);
    }

    #[test]
    fn partial_write_plan_halves_every_write() {
        let (mut client, server) = tcp_pair();
        let mut chaos = with_plan(Plan::PartialWrite, server);
        chaos.write_all(b"hello world").unwrap();
        drop(chaos);
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"hello world", "write_all loops through the halves");
    }

    #[test]
    fn clones_share_one_fault_state() {
        let (mut client, server) = tcp_pair();
        let chaos = with_plan(Plan::Reset { threshold: 4 }, server);
        let mut write_half = chaos.try_clone().unwrap();
        assert_eq!(write_half.write(b"abcd").unwrap(), 4);
        drop(write_half);
        let mut chaos = chaos;
        assert!(chaos.write(b"x").is_err(), "budget spent on the clone");
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"abcd");
    }
}
