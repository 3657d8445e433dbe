//! An open-loop HTTP load generator: one sender thread issues requests on
//! a fixed schedule whatever the server's state, and one receiver thread
//! waits on every in-flight connection at once (`poll(2)`) so each
//! response is stamped when it completes, not in send order.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One scheduled request.
pub struct Planned {
    /// When it is due, as an offset from the start of the phase.
    pub due: Duration,
    /// Request target, e.g. `/query?doc=3&k=5`.
    pub target: String,
}

/// What happened to one request.
#[derive(Debug)]
pub struct Outcome {
    /// Position in the schedule.
    pub id: usize,
    /// When it was due.
    pub due: Instant,
    /// When the sender began connecting.
    pub sent: Instant,
    /// When the full response had arrived (or the failure was seen).
    pub done: Instant,
    /// HTTP status, 0 when the exchange failed.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Why the exchange failed, if it did.
    pub error: Option<String>,
}

/// The phase's outcomes in schedule order, and the peak number of
/// connections in flight at once.
pub struct Run {
    /// One outcome per planned request.
    pub outcomes: Vec<Outcome>,
    /// Most connections open at the same time.
    pub peak_in_flight: usize,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
}

/// Waits until one of `fds` is readable (or has hung up), filling
/// `revents`.
fn wait_readable(fds: &mut [PollFd]) -> std::io::Result<()> {
    loop {
        // SAFETY: `fds` is a live, exclusively borrowed slice of `pollfd`
        // records laid out as the C struct (`#[repr(C)]`), and its length
        // is passed as `nfds`, so the kernel reads and writes only inside
        // it. A timeout of -1 blocks until an event.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, -1) };
        if rc >= 0 {
            return Ok(());
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

enum Sent {
    Open {
        id: usize,
        due: Instant,
        sent: Instant,
        stream: TcpStream,
    },
    Failed(Outcome),
}

/// Runs `plan` against `addr` starting at `start`, open loop.
pub fn open_loop(addr: SocketAddr, plan: &[Planned], start: Instant) -> std::io::Result<Run> {
    let (wake_tx, mut wake_rx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    let (tx, rx) = mpsc::channel::<Sent>();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || send_all(addr, plan, start, tx, wake_tx));
        let received = receive_all(rx, &mut wake_rx, plan.len());
        sender.join().expect("sender thread panicked");
        received
    })
}

fn send_all(
    addr: SocketAddr,
    plan: &[Planned],
    start: Instant,
    tx: mpsc::Sender<Sent>,
    mut wake: UnixStream,
) {
    for (id, p) in plan.iter().enumerate() {
        let due = start + p.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let request = format!(
            "GET {} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n",
            p.target
        );
        let opened = TcpStream::connect(addr).and_then(|mut s| {
            s.write_all(request.as_bytes())?;
            // Half-close: the server's post-response drain then ends at
            // once instead of waiting for this side to hang up.
            s.shutdown(Shutdown::Write)?;
            s.set_nonblocking(true)?;
            Ok(s)
        });
        let msg = match opened {
            Ok(stream) => Sent::Open {
                id,
                due,
                sent,
                stream,
            },
            Err(e) => Sent::Failed(Outcome {
                id,
                due,
                sent,
                done: Instant::now(),
                status: 0,
                body: Vec::new(),
                error: Some(format!("send: {e}")),
            }),
        };
        if tx.send(msg).is_err() {
            return;
        }
        let _ = wake.write_all(&[1]);
    }
}

struct InFlight {
    id: usize,
    due: Instant,
    sent: Instant,
    stream: TcpStream,
    buf: Vec<u8>,
}

fn receive_all(
    rx: mpsc::Receiver<Sent>,
    wake: &mut UnixStream,
    expected: usize,
) -> std::io::Result<Run> {
    let mut outcomes: Vec<Option<Outcome>> = (0..expected).map(|_| None).collect();
    let mut live: Vec<InFlight> = Vec::new();
    let mut finished = 0usize;
    let mut peak = 0usize;
    let mut sender_done = false;
    let mut chunk = [0u8; 4096];
    while finished < expected {
        // Adopt everything the sender has handed over.
        loop {
            match rx.try_recv() {
                Ok(Sent::Open {
                    id,
                    due,
                    sent,
                    stream,
                }) => live.push(InFlight {
                    id,
                    due,
                    sent,
                    stream,
                    buf: Vec::new(),
                }),
                Ok(Sent::Failed(o)) => {
                    let id = o.id;
                    outcomes[id] = Some(o);
                    finished += 1;
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    sender_done = true;
                    break;
                }
            }
        }
        peak = peak.max(live.len());
        if live.is_empty() && sender_done {
            break;
        }
        // Once the sender is gone its wake socket reads EOF forever, so it
        // leaves the poll set.
        let wake_fd = (!sender_done).then(|| wake.as_raw_fd());
        let off = usize::from(wake_fd.is_some());
        let mut fds: Vec<PollFd> = wake_fd
            .into_iter()
            .chain(live.iter().map(|c| c.stream.as_raw_fd()))
            .map(|fd| PollFd {
                fd,
                events: POLLIN,
                revents: 0,
            })
            .collect();
        wait_readable(&mut fds)?;
        let stamp = Instant::now();
        if off == 1 && fds[0].revents != 0 {
            while matches!(wake.read(&mut chunk), Ok(n) if n > 0) {}
        }
        let mut ended: Vec<(usize, Option<String>)> = Vec::new();
        for (i, c) in live.iter_mut().enumerate() {
            if fds[i + off].revents == 0 {
                continue;
            }
            loop {
                match c.stream.read(&mut chunk) {
                    Ok(0) => {
                        ended.push((i, None));
                        break;
                    }
                    Ok(n) => c.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        ended.push((i, Some(format!("receive: {e}"))));
                        break;
                    }
                }
            }
        }
        // Highest index first, so each swap_remove moves a connection that
        // is not itself being removed.
        for (i, error) in ended.into_iter().rev() {
            let c = live.swap_remove(i);
            let (status, body) = split_response(&c.buf);
            let error =
                error.or_else(|| (status == 0).then(|| "malformed or empty response".to_string()));
            outcomes[c.id] = Some(Outcome {
                id: c.id,
                due: c.due,
                sent: c.sent,
                done: stamp,
                status,
                body,
                error,
            });
            finished += 1;
        }
    }
    Ok(Run {
        outcomes: outcomes
            .into_iter()
            .enumerate()
            .map(|(id, o)| {
                o.unwrap_or_else(|| Outcome {
                    id,
                    due: Instant::now(),
                    sent: Instant::now(),
                    done: Instant::now(),
                    status: 0,
                    body: Vec::new(),
                    error: Some("never sent".to_string()),
                })
            })
            .collect(),
        peak_in_flight: peak,
    })
}

/// Status code and body of a raw HTTP/1.1 response (`(0, [])` when it
/// does not parse).
pub fn split_response(raw: &[u8]) -> (u16, Vec<u8>) {
    let Some(head_end) = raw.windows(4).position(|w| w == b"\r\n\r\n") else {
        return (0, Vec::new());
    };
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|h| h.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, raw[head_end + 4..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn stamps_responses_when_they_complete() {
        // A server that answers the second request at once and the first
        // one late: completion order differs from send order.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut slow, _) = listener.accept().unwrap();
            let (mut fast, _) = listener.accept().unwrap();
            let reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
            for s in [&mut slow, &mut fast] {
                let mut req = Vec::new();
                s.read_to_end(&mut req).unwrap();
            }
            fast.write_all(reply).unwrap();
            drop(fast);
            std::thread::sleep(Duration::from_millis(60));
            slow.write_all(reply).unwrap();
        });
        let plan = vec![
            Planned {
                due: Duration::ZERO,
                target: "/a".into(),
            },
            Planned {
                due: Duration::from_millis(5),
                target: "/b".into(),
            },
        ];
        let run = open_loop(addr, &plan, Instant::now()).unwrap();
        server.join().unwrap();
        let [a, b] = &run.outcomes[..] else { panic!() };
        assert_eq!((a.status, b.status), (200, 200));
        assert_eq!(a.body, b"ok");
        assert!(b.done < a.done, "the fast response is stamped first");
        assert!(a.done.duration_since(a.due) >= Duration::from_millis(50));
        assert_eq!(run.peak_in_flight, 2);
    }

    #[test]
    fn splits_status_and_body() {
        assert_eq!(
            split_response(b"HTTP/1.1 404 Not Found\r\nX: y\r\n\r\nnope"),
            (404, b"nope".to_vec())
        );
        assert_eq!(split_response(b"garbage"), (0, Vec::new()));
    }
}
