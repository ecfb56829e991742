//! The TCP server: accept loop, per-connection handlers, and a permit
//! gate bounding concurrent dispatches.
//!
//! Concurrency discipline: every accepted connection gets a handler
//! thread (connections are cheap — they mostly block on reads), but a
//! dispatch only runs while holding one of `workers` permits from the
//! `Gate`, so at most `workers` simulations are in flight however many
//! clients are connected. Inside a dispatch the usual
//! [`memcomm_util::par`] fan-out applies, and the sweep installs the
//! service's cache and metrics handles in its workers.
//!
//! Robustness contract (pinned by the protocol tests):
//!
//! * a connection closing between frames, or mid-frame, is a clean drop —
//!   no panic, no reply, the pool keeps serving other connections;
//! * an oversized length prefix gets a typed `protocol` error reply and
//!   the connection is closed (the stream position is unknowable after a
//!   refused frame);
//! * garbage payload bytes, or JSON nested deeper than
//!   [`memcomm_util::json::MAX_DEPTH`], get a typed error reply and the
//!   connection stays usable;
//! * a `shutdown` request is answered (`{"kind": "bye"}`) before the
//!   flag flips, then every handler winds down at its next read poll.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use memcomm_machines::memo::MemoConfig;
use memcomm_util::frame::{self, FrameError};

use super::{dispatch_bytes, proto, ServiceState};

/// How often a blocked read wakes up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` = loopback, OS-assigned port).
    pub addr: String,
    /// Concurrent-dispatch budget.
    pub workers: usize,
    /// Measurement-cache sizing.
    pub cache: MemoConfig,
    /// Largest request payload accepted.
    pub max_frame: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            cache: MemoConfig::default(),
            max_frame: frame::DEFAULT_MAX_FRAME,
        }
    }
}

/// A counting semaphore over [`Mutex`] + [`Condvar`] — the dispatch gate.
#[derive(Debug)]
struct Gate {
    permits: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    fn new(permits: usize) -> Gate {
        Gate {
            permits: Mutex::new(permits.max(1)),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut permits = self.permits.lock().expect("gate poisoned");
        while *permits == 0 {
            permits = self.freed.wait(permits).expect("gate poisoned");
        }
        *permits -= 1;
    }

    fn release(&self) {
        *self.permits.lock().expect("gate poisoned") += 1;
        self.freed.notify_one();
    }
}

#[derive(Debug)]
struct Shared {
    state: ServiceState,
    gate: Gate,
    shutdown: AtomicBool,
    done: Mutex<bool>,
    finished: Condvar,
    max_frame: usize,
}

/// A running simulation server. Dropping it force-stops the accept loop
/// and joins every handler.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop, and returns immediately.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: ServiceState::new(config.cache, config.workers),
            gate: Gate::new(config.workers),
            shutdown: AtomicBool::new(false),
            done: Mutex::new(false),
            finished: Condvar::new(),
            max_frame: config.max_frame,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(Server {
            local_addr,
            shared,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service state behind this server (tests inspect cache counters
    /// through it).
    pub fn state(&self) -> &ServiceState {
        &self.shared.state
    }

    /// Blocks until a `shutdown` request (or [`Server::stop`]) flips the
    /// flag.
    pub fn wait(&self) {
        let mut done = self.shared.done.lock().expect("server poisoned");
        while !*done {
            done = self.shared.finished.wait(done).expect("server poisoned");
        }
    }

    /// Initiates shutdown and joins the accept loop (and through it every
    /// handler). Idempotent.
    pub fn stop(&mut self) {
        signal_shutdown(&self.shared);
        // Poke the (blocking) accept call so the loop observes the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn signal_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    *shared.done.lock().expect("server poisoned") = true;
    shared.finished.notify_all();
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let conn_shared = Arc::clone(shared);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(stream, &conn_shared);
                }));
            }
            Err(_) => break,
        }
        // Reap finished handlers so a long-lived server does not
        // accumulate one parked join handle per past connection.
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// How one read attempt ended.
enum ReadOutcome {
    /// A whole frame payload.
    Frame(Vec<u8>),
    /// Clean close between frames.
    Closed,
    /// The shutdown flag flipped while idle.
    Stopping,
    /// The prefix announced more than the cap.
    Oversized(FrameError),
    /// Mid-frame EOF or a transport error — drop without replying.
    Broken,
}

/// Reads until `buf` is full, polling the shutdown flag across read
/// timeouts. Partial fills are kept across polls, so a frame arriving in
/// dribbles is reassembled, never resynchronized mid-stream. Returns the
/// filled byte count (short only on EOF), or `None` when the shutdown
/// flag flipped before any byte of `buf` arrived.
fn read_full_poll(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shared: &Shared,
) -> io::Result<Option<usize>> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) && filled == 0 {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(filled))
}

fn read_request(stream: &mut TcpStream, shared: &Shared) -> ReadOutcome {
    let mut header = [0u8; frame::HEADER_LEN];
    let got = match read_full_poll(stream, &mut header, shared) {
        Ok(Some(got)) => got,
        Ok(None) => return ReadOutcome::Stopping,
        Err(_) => return ReadOutcome::Broken,
    };
    match got {
        0 => return ReadOutcome::Closed,
        n if n < frame::HEADER_LEN => return ReadOutcome::Broken,
        _ => {}
    }
    let len = match frame::decode_len(header, shared.max_frame) {
        Ok(len) => len,
        Err(e) => return ReadOutcome::Oversized(e),
    };
    let mut payload = vec![0u8; len];
    match read_full_poll(stream, &mut payload, shared) {
        Ok(Some(got)) if got == len => ReadOutcome::Frame(payload),
        // Shutdown raced the payload, or the peer vanished mid-frame:
        // either way the request never completed — drop it.
        _ => ReadOutcome::Broken,
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    // Replies are small frames on a request/response stream; without
    // NODELAY, Nagle would hold them against the peer's delayed ACKs.
    let _ = stream.set_nodelay(true);
    loop {
        match read_request(&mut stream, shared) {
            ReadOutcome::Closed | ReadOutcome::Stopping | ReadOutcome::Broken => break,
            ReadOutcome::Oversized(e) => {
                // Typed refusal, then close: after a refused frame the
                // stream position is unknowable.
                let reply = proto::error_response(&proto::protocol(e.to_string()))
                    .render()
                    .into_bytes();
                shared.state.obs.count("service.requests.total", 1);
                shared.state.obs.count("service.errors", 1);
                let _ = frame::write_frame(&mut stream, &reply);
                break;
            }
            ReadOutcome::Frame(payload) => {
                shared.gate.acquire();
                let start = Instant::now();
                let (reply, shutdown) = dispatch_bytes(&payload, &shared.state);
                let micros = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                record_latency(shared, &payload, micros);
                shared.gate.release();
                if frame::write_frame(&mut stream, &reply).is_err() {
                    break;
                }
                if shutdown {
                    signal_shutdown(shared);
                    break;
                }
            }
        }
    }
}

/// Records server-side dispatch latency per request class. The class is
/// re-derived from the payload's `kind` field (cheap relative to a
/// dispatch; unparseable payloads go to the `error` class).
fn record_latency(shared: &Shared, payload: &[u8], micros: u64) {
    let class = std::str::from_utf8(payload)
        .ok()
        .and_then(|text| memcomm_util::json::Json::parse(text).ok())
        .and_then(|doc| super::Request::parse(&doc).ok())
        .map_or("error", |req| req.class());
    shared
        .state
        .obs
        .observe(&format!("service.latency_us.{class}"), micros);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_bounds_and_releases() {
        let gate = Gate::new(2);
        gate.acquire();
        gate.acquire();
        // A third acquire would block; release then re-acquire proves the
        // permit count round-trips.
        gate.release();
        gate.acquire();
        gate.release();
        gate.release();
    }

    #[test]
    fn server_starts_stops_and_reports_its_addr() {
        let mut server = Server::start(ServerConfig::default()).expect("bind loopback");
        assert_ne!(server.addr().port(), 0, "OS assigned a real port");
        server.stop();
        server.stop(); // idempotent
        server.wait(); // already done — returns immediately
    }
}
