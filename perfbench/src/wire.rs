//! The in-process server and the wire client.
//!
//! The server accepts loopback TCP connections and serves each on its own
//! thread through `service::protocol::serve_connection`, with the reader and
//! writer set up exactly as `tlc-serve --tcp` does. A traced server hands
//! the connection to [`crate::trace::Traced`] instead.

use crate::trace::Traced;
use service::protocol::{read_response, serve_connection, Frame};
use service::Service;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The first line of every connection: switches to the database the
/// session already uses, so it changes nothing.
pub const HELLO: &str = ".use main";

pub struct Server {
    pub svc: Arc<Service>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    /// Connections opened so far; the acceptor numbers them in this order.
    connected: u64,
}

impl Server {
    pub fn start(svc: Arc<Service>, traced: Option<Arc<Traced>>) -> io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (svc2, stop2) = (Arc::clone(&svc), Arc::clone(&stop));
        let acceptor = std::thread::spawn(move || {
            let mut conns = Vec::new();
            for (id, stream) in listener.incoming().enumerate() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let (svc, traced) = (Arc::clone(&svc2), traced.clone());
                conns.push(std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                    let mut writer = BufWriter::new(stream);
                    // A client that hangs up mid-frame is reported by the
                    // client side; nothing to add here.
                    let _ = match traced {
                        None => serve_connection(&svc, &mut reader, &mut writer).map(drop),
                        Some(t) => t.serve(id as u64, &mut reader, &mut writer),
                    };
                }));
            }
            conns
        });
        Ok(Server { svc, addr, stop, acceptor: Some(acceptor), connected: 0 })
    }

    /// Opens a client connection and returns it with the id the server
    /// gives it. Connections must be opened one at a time for the ids to
    /// agree.
    pub fn connect(&mut self) -> io::Result<(Client, u64)> {
        let mut client = Client::connect(self.addr)?;
        // One round trip, so the connection thread has set itself up before
        // the caller measures anything.
        match client.call(HELLO)?.frame {
            Frame::Ok(_) => {}
            Frame::Err(e) => return Err(io::Error::other(format!("handshake refused: {e}"))),
        }
        let id = self.connected;
        self.connected += 1;
        Ok((client, id))
    }
}

impl Drop for Server {
    /// Stops accepting and joins every connection thread; every client
    /// must be gone by now, or its thread would never see end of input.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wakes the acceptor, which then sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            for conn in acceptor.join().unwrap_or_default() {
                let _ = conn.join();
            }
        }
    }
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
}

/// One answered request.
pub struct Answer {
    pub frame: Frame,
    /// From the first byte written to the last byte of the reply read.
    pub latency: Duration,
    /// The part of `latency` spent parsing the reply once it began to
    /// arrive.
    pub read: Duration,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { reader: BufReader::new(stream.try_clone()?), writer: stream, line: Vec::new() })
    }

    pub fn call(&mut self, request: &str) -> io::Result<Answer> {
        self.line.clear();
        self.line.extend_from_slice(request.as_bytes());
        self.line.push(b'\n');
        let sent = Instant::now();
        self.writer.write_all(&self.line)?;
        self.reader.fill_buf()?;
        let arrived = Instant::now();
        let frame = read_response(&mut self.reader)?;
        let done = Instant::now();
        Ok(Answer { frame, latency: done - sent, read: done - arrived })
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        let _ = self.writer.write_all(b".quit\n");
        let _ = self.writer.shutdown(Shutdown::Write);
    }
}
