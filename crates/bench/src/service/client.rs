//! The blocking protocol client.
//!
//! One [`Client`] wraps one TCP connection and speaks strict
//! request/response: every call writes one frame and reads one frame.
//! Transport and framing failures surface as
//! [`SimError::Protocol`], keeping
//! the service's error taxonomy uniform from the wire up.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use memcomm_memsim::{SimError, SimResult};
use memcomm_util::frame::{self, FrameError};
use memcomm_util::json::Json;

use super::proto::{self, Request};

/// A connected protocol client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    max_frame: usize,
}

fn wire_error(e: &FrameError) -> SimError {
    proto::protocol(format!("wire failure: {e}"))
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Request/response framing is latency-bound: without NODELAY,
        // Nagle batches the small frames against delayed ACKs.
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            max_frame: frame::DEFAULT_MAX_FRAME,
        })
    }

    /// Lowers this client's accepted response size (tests use it to
    /// provoke oversized-frame handling).
    pub fn set_max_frame(&mut self, max: usize) {
        self.max_frame = max;
    }

    /// Sends raw payload bytes as one frame and returns the raw response
    /// payload — the byte-exact path the differential tiers compare.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] on framing or transport failure, including
    /// the server closing the connection without replying.
    pub fn call_bytes(&mut self, payload: &[u8]) -> SimResult<Vec<u8>> {
        frame::write_frame(&mut self.stream, payload).map_err(|e| wire_error(&e))?;
        match frame::read_frame(&mut self.stream, self.max_frame) {
            Ok(Some(reply)) => Ok(reply),
            Ok(None) => Err(proto::protocol(
                "server closed the connection without replying".to_string(),
            )),
            Err(e) => Err(wire_error(&e)),
        }
    }

    /// Sends a request and returns the parsed response document —
    /// including `error` documents, which this layer passes through.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] on wire failure or an unparseable response.
    pub fn call(&mut self, req: &Request) -> SimResult<Json> {
        let reply = self.call_bytes(req.to_json().render().as_bytes())?;
        let text = std::str::from_utf8(&reply)
            .map_err(|e| proto::protocol(format!("response is not UTF-8: {e}")))?;
        Json::parse(text).map_err(|e| proto::protocol(format!("response is not JSON: {e}")))
    }

    /// Sends a request and returns the response document, turning `error`
    /// responses into typed errors.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] on wire failure or when the server answered
    /// with an error document (the server's message is embedded).
    pub fn request(&mut self, req: &Request) -> SimResult<Json> {
        let doc = self.call(req)?;
        if doc.get("kind").and_then(Json::as_str) == Some("error") {
            let message = doc
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown server error");
            return Err(proto::protocol(format!("server error: {message}")));
        }
        Ok(doc)
    }
}
