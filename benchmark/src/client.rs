//! The wire-protocol client: `<len>\n<payload>` out,
//! `ok|err <len>\n<payload>` back, many requests per connection.
//!
//! Written against the protocol, not against `standoff::serve`, so the
//! benchmark measures the server through the same bytes any client
//! sends. Generic over the stream so the tests can script short reads.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// The server caps frames at 4 MiB; anything larger is a broken peer.
const MAX_PAYLOAD: usize = 4 << 20;
/// `err 4194304\n` is 12 bytes; a longer head is not a frame.
const MAX_HEAD: u64 = 32;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reply {
    /// `true` for an `ok` frame, `false` for an `err` frame.
    pub ok: bool,
    pub body: Vec<u8>,
}

pub struct FrameClient<S: Read + Write> {
    stream: BufReader<S>,
}

impl FrameClient<TcpStream> {
    pub fn connect(addr: &str) -> io::Result<FrameClient<TcpStream>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(FrameClient::new(stream))
    }
}

impl<S: Read + Write> FrameClient<S> {
    pub fn new(stream: S) -> FrameClient<S> {
        FrameClient {
            stream: BufReader::new(stream),
        }
    }

    /// Send one request payload and read the whole reply. An `err`
    /// frame is a reply, not an `Err`: `Err` means the transport or the
    /// framing failed and the connection is unusable.
    pub fn request(&mut self, payload: &str) -> io::Result<Reply> {
        let mut frame = Vec::with_capacity(payload.len() + 12);
        frame.extend_from_slice(format!("{}\n", payload.len()).as_bytes());
        frame.extend_from_slice(payload.as_bytes());
        self.stream.get_mut().write_all(&frame)?;

        let mut head = Vec::new();
        self.stream
            .by_ref()
            .take(MAX_HEAD)
            .read_until(b'\n', &mut head)?;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        if head.pop() != Some(b'\n') {
            return Err(bad("reply head is not a line"));
        }
        let head = std::str::from_utf8(&head).map_err(|_| bad("reply head is not UTF-8"))?;
        let (status, len) = head
            .split_once(' ')
            .ok_or_else(|| bad("reply head has no length"))?;
        let ok = match status {
            "ok" => true,
            "err" => false,
            _ => return Err(bad("reply status is neither ok nor err")),
        };
        let len: usize = len
            .parse()
            .map_err(|_| bad("reply length is not a number"))?;
        if len > MAX_PAYLOAD {
            return Err(bad("reply exceeds the frame limit"));
        }
        let mut body = vec![0u8; len];
        self.stream.read_exact(&mut body)?;
        Ok(Reply { ok, body })
    }

    /// `query` verb with the text in the body.
    pub fn query(&mut self, text: &str) -> io::Result<Reply> {
        self.request(&format!("query\n{text}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted peer that hands out its reply one byte per `read`
    /// and accepts writes in chunks of at most three bytes.
    struct Trickle {
        reply: Vec<u8>,
        at: usize,
        written: Vec<u8>,
    }

    impl Trickle {
        fn new(reply: &[u8]) -> Trickle {
            Trickle {
                reply: reply.to_vec(),
                at: 0,
                written: Vec::new(),
            }
        }
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at == self.reply.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.reply[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(3);
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_reads_and_writes_still_make_whole_frames() {
        let mut client = FrameClient::new(Trickle::new(b"ok 5\nhelloerr 9\nparse\nbad"));
        let first = client.query("count(1)").unwrap();
        assert_eq!(
            first,
            Reply {
                ok: true,
                body: b"hello".to_vec()
            }
        );
        assert_eq!(client.stream.get_ref().written, b"14\nquery\ncount(1)");
        // The second frame on the same connection is an `err` reply:
        // delivered as a reply, with its category line intact.
        let second = client.request("ping").unwrap();
        assert!(!second.ok);
        assert_eq!(second.body, b"parse\nbad");
    }

    #[test]
    fn torn_and_malformed_replies_are_transport_errors() {
        for reply in [
            &b"ok 5\nhel"[..],
            b"ok 5",
            b"",
            b"maybe 1\nx",
            b"ok five\nx",
            b"ok 99999999999\n",
            b"ok_with_a_head_longer_than_thirty_two_bytes 1\nx",
        ] {
            let mut client = FrameClient::new(Trickle::new(reply));
            assert!(client.request("ping").is_err(), "{reply:?}");
        }
    }
}
