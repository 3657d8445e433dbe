//! Worker-pool HTTP serving with bounded admission and deadline-aware
//! load-shedding — the sharded serving tier's front door.
//!
//! [`PoolServer`] is the one HTTP server of the workspace: the CLI's
//! `serve`, the telemetry routes and the benchmark all run on it. A thread
//! per connection would melt under query load, so it bounds both
//! admission and parallelism instead:
//!
//! * a single blocking accept loop stamps every connection with an
//!   admission deadline and pushes it into a bounded [`AdmissionQueue`]
//!   (it sleeps in `accept`, so an idle server costs no wake-ups and a
//!   connection is admitted the moment it arrives);
//! * a fixed pool of workers pops connections, parses, dispatches, and
//!   answers — parallelism is capped by the pool, not by the clients;
//! * overload is shed *by deadline*: when the queue is full the entry
//!   with the earliest deadline (the one least likely to still be useful)
//!   is evicted and answered `503` with a `Retry-After` header, and a
//!   worker re-checks the deadline both before reading the request and
//!   again before dispatching it — an expired request never reaches the
//!   handler, so it can never start a partial scatter.
//!
//! Shutdown is drain-then-stop: once [`Stopper::stop`] fires, the accept
//! loop closes the queue, workers serve everything already admitted, and
//! only then does [`PoolServer::run`] return.
//!
//! Metrics (process-wide [`Registry`]): `serve/shed_total` (every `503`
//! shed, all causes), `serve/queue_depth` (gauge), `serve/queue_wait_ns`
//! (admission → worker pickup), `serve/request_total_ns` (admission →
//! response written, queueing included).

use crate::registry::Registry;
use crate::serve::{
    drain_and_close, read_request, shed_off_loop, Handler, Response, Stopper, READ_TIMEOUT,
};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default worker-pool size when the caller does not override it.
pub const DEFAULT_WORKERS: usize = 4;
/// Default admission-queue capacity.
pub const DEFAULT_QUEUE_DEPTH: usize = 64;
/// Default admission deadline.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(2);

/// One admitted item with its admission bookkeeping.
#[derive(Debug)]
pub struct Admitted<T> {
    /// The queued item (a connection, in the server).
    pub item: T,
    /// When the item stops being worth serving.
    pub deadline: Instant,
    /// When the item entered the queue (for queue-wait accounting).
    pub enqueued: Instant,
}

struct QueueState<T> {
    items: VecDeque<Admitted<T>>,
    closed: bool,
}

/// A bounded MPMC queue that sheds by earliest deadline on overflow.
///
/// `push` never blocks: when the queue is full, the entry with the
/// *earliest* deadline — among the queued entries and the incoming one —
/// is rejected and handed back to the caller to answer. This is the
/// opposite of FIFO drop-head: under overload the requests closest to
/// expiry are the ones discarded, so capacity is spent on work that can
/// still meet its deadline. `pop` blocks until an item arrives or the
/// queue is closed *and drained* — close is a drain barrier, not a drop.
pub struct AdmissionQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> AdmissionQueue<T> {
        AdmissionQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits `item` with `deadline`, or returns the shed entry: the
    /// incoming item itself when the queue is closed or when the incoming
    /// deadline is the earliest, otherwise the queued entry whose deadline
    /// is earliest (evicted to make room).
    pub fn push(&self, item: T, deadline: Instant) -> Result<(), Admitted<T>> {
        let incoming = Admitted {
            item,
            deadline,
            enqueued: Instant::now(),
        };
        let mut state = self.state.lock().unwrap();
        if state.closed {
            return Err(incoming);
        }
        if state.items.len() >= self.capacity {
            let min_idx = state
                .items
                .iter()
                .enumerate()
                .min_by_key(|(_, a)| a.deadline)
                .map(|(i, _)| i)
                .expect("queue is full, hence non-empty");
            // Ties go to the incoming item: evicting buys nothing then.
            if state.items[min_idx].deadline >= incoming.deadline {
                return Err(incoming);
            }
            let evicted = state.items.remove(min_idx).expect("index from enumerate");
            state.items.push_back(incoming);
            drop(state);
            self.ready.notify_one();
            return Err(evicted);
        }
        state.items.push_back(incoming);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next admitted item; `None` once the queue is closed
    /// *and* everything admitted before the close has been popped.
    pub fn pop(&self) -> Option<Admitted<T>> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap();
        }
    }

    /// Closes admission: subsequent `push`es shed, `pop` drains what is
    /// already queued and then returns `None`.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    /// Current queue length.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The worker-pool server: blocking accept loop, bounded admission,
/// deadline-aware shedding, drain-then-stop shutdown.
pub struct PoolServer {
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    workers: usize,
    queue_depth: usize,
    deadline: Duration,
}

impl PoolServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(addr: &str) -> std::io::Result<PoolServer> {
        Ok(PoolServer {
            listener: TcpListener::bind(addr)?,
            stop: Arc::new(AtomicBool::new(false)),
            workers: DEFAULT_WORKERS,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            deadline: DEFAULT_DEADLINE,
        })
    }

    /// Overrides the worker-pool size (min 1).
    pub fn with_workers(mut self, n: usize) -> PoolServer {
        self.workers = n.max(1);
        self
    }

    /// Overrides the admission-queue capacity (min 1).
    pub fn with_queue_depth(mut self, n: usize) -> PoolServer {
        self.queue_depth = n.max(1);
        self
    }

    /// Overrides the admission deadline.
    pub fn with_deadline(mut self, d: Duration) -> PoolServer {
        self.deadline = d.max(Duration::from_millis(1));
        self
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop the server from another thread (or from
    /// inside a handler, e.g. `POST /shutdown`).
    pub fn stopper(&self) -> std::io::Result<Stopper> {
        Ok(Stopper::new(self.listener.local_addr()?, self.stop.clone()))
    }

    /// Accepts, admits, and serves until [`Stopper::stop`]; then closes
    /// the admission queue, lets the workers drain it, and joins them.
    pub fn run(self, handler: Arc<Handler>) {
        let queue: Arc<AdmissionQueue<TcpStream>> = Arc::new(AdmissionQueue::new(self.queue_depth));
        let retry_secs = self.deadline.as_secs().max(1);
        let mut workers = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            let queue = queue.clone();
            let handler = handler.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(&queue, &*handler, retry_secs);
            }));
        }
        self.accept_loop(&queue, retry_secs);
        queue.close();
        for worker in workers {
            let _ = worker.join();
        }
    }

    /// Admits connections into `queue` until [`Stopper::stop`]. `accept`
    /// blocks; `stop` sets the flag and then wakes it with a throwaway
    /// connection, so the flag is checked right after every accept and
    /// the connection that carried the wake-up is dropped, never queued.
    fn accept_loop(&self, queue: &AdmissionQueue<TcpStream>, retry_secs: u64) {
        let obs = Registry::global();
        let shed_active = Arc::new(AtomicUsize::new(0));
        loop {
            match self.listener.accept() {
                Ok(_) if self.stop.load(Ordering::SeqCst) => return,
                Ok((stream, _)) => {
                    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                    if let Err(shed) = queue.push(stream, Instant::now() + self.deadline) {
                        obs.incr("serve/shed_total", 1);
                        shed_off_loop(shed.item, "admission queue full", retry_secs, &shed_active);
                    }
                    obs.gauge("serve/queue_depth").set(queue.len() as i64);
                }
                Err(_) if self.stop.load(Ordering::SeqCst) => return,
                // EMFILE, resets and the like are transient: back off
                // rather than spin or die.
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
}

fn worker_loop(queue: &AdmissionQueue<TcpStream>, handler: &Handler, retry_secs: u64) {
    let obs = Registry::global();
    while let Some(admitted) = queue.pop() {
        let Admitted {
            item: mut stream,
            deadline,
            enqueued,
        } = admitted;
        obs.record_duration("serve/queue_wait_ns", enqueued.elapsed());
        obs.gauge("serve/queue_depth").set(queue.len() as i64);
        let response = if Instant::now() > deadline {
            // Expired while queued: shed before touching the socket.
            obs.incr("serve/shed_total", 1);
            Response::shed("deadline exceeded in queue", retry_secs)
        } else {
            match read_request(&mut stream) {
                Ok(req) => {
                    if Instant::now() > deadline {
                        // The client dribbled the request in past the
                        // deadline: shed before dispatch, so an expired
                        // request never starts a scatter.
                        obs.incr("serve/shed_total", 1);
                        Response::shed("deadline exceeded before dispatch", retry_secs)
                    } else {
                        handler(&req)
                    }
                }
                Err(resp) => resp,
            }
        };
        let _ = response.write_to(&mut stream);
        drain_and_close(&mut stream);
        obs.record_duration("serve/request_total_ns", enqueued.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::Request;
    use std::io::{Read, Write};

    fn raw_request(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        out
    }

    fn status_of(response: &str) -> u16 {
        response
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }

    /// Deterministic splitmix64 — tests must not depend on ambient entropy.
    fn next_rand(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    #[test]
    fn overflow_always_sheds_the_earliest_deadline() {
        // Model-based property check: mirror the queue with a plain Vec and
        // assert every shed entry carries the minimum deadline among the
        // queued entries plus the incoming one, for 500 randomized pushes.
        let queue: AdmissionQueue<u32> = AdmissionQueue::new(8);
        let base = Instant::now() + Duration::from_secs(3600);
        let mut model: Vec<(u32, u64)> = Vec::new();
        let mut seed = 42u64;
        for id in 0..500u32 {
            // Unique per-id offset so min-by-deadline is unambiguous.
            let micros = (next_rand(&mut seed) % 10_000) * 1_000 + id as u64;
            let deadline = base + Duration::from_micros(micros);
            match queue.push(id, deadline) {
                Ok(()) => model.push((id, micros)),
                Err(shed) => {
                    let mut candidates = model.clone();
                    candidates.push((id, micros));
                    let &(min_id, min_micros) = candidates.iter().min_by_key(|(_, m)| *m).unwrap();
                    assert_eq!(shed.item, min_id, "shed entry must have min deadline");
                    assert_eq!(shed.deadline, base + Duration::from_micros(min_micros));
                    if min_id != id {
                        model.retain(|&(mid, _)| mid != min_id);
                        model.push((id, micros));
                    }
                }
            }
            assert_eq!(queue.len(), model.len());
        }
        // Drain: the retained entries come back in admission order.
        queue.close();
        let mut drained = Vec::new();
        while let Some(adm) = queue.pop() {
            drained.push(adm.item);
        }
        assert_eq!(drained, model.iter().map(|&(id, _)| id).collect::<Vec<_>>());
        // Closed queue sheds every push.
        assert!(queue.push(999, base).is_err());
    }

    #[test]
    fn pop_blocks_until_push_and_close_is_a_drain_barrier() {
        let queue: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(4));
        let q = queue.clone();
        let popper = std::thread::spawn(move || {
            let mut seen = Vec::new();
            while let Some(adm) = q.pop() {
                seen.push(adm.item);
            }
            seen
        });
        std::thread::sleep(Duration::from_millis(20));
        let deadline = Instant::now() + Duration::from_secs(60);
        for i in 0..3 {
            queue.push(i, deadline).unwrap();
        }
        queue.close();
        assert_eq!(popper.join().unwrap(), vec![0, 1, 2]);
    }

    fn spawn_pool(
        server: PoolServer,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> (SocketAddr, Stopper, std::thread::JoinHandle<()>) {
        let addr = server.local_addr().unwrap();
        let stopper = server.stopper().unwrap();
        let join = std::thread::spawn(move || server.run(Arc::new(handler)));
        (addr, stopper, join)
    }

    #[test]
    fn pool_serves_requests_and_stops() {
        let server = PoolServer::bind("127.0.0.1:0").unwrap().with_workers(2);
        let (addr, stopper, join) = spawn_pool(server, |req| {
            Response::text(200, format!("pooled {}", req.path))
        });
        let out = raw_request(addr, "GET /a HTTP/1.1\r\n\r\n");
        assert_eq!(status_of(&out), 200);
        assert!(out.ends_with("pooled /a"), "{out}");
        stopper.stop();
        join.join().unwrap();
    }

    #[test]
    fn stop_returns_promptly_and_never_serves_the_wake_up_connection() {
        let hits = Arc::new(AtomicUsize::new(0));
        let handler_hits = hits.clone();
        let server = PoolServer::bind("127.0.0.1:0").unwrap().with_workers(1);
        let (addr, stopper, join) = spawn_pool(server, move |_req| {
            handler_hits.fetch_add(1, Ordering::SeqCst);
            Response::text(200, "ok")
        });
        assert_eq!(
            status_of(&raw_request(addr, "GET /a HTTP/1.1\r\n\r\n")),
            200
        );
        // Let the loop block in accept again before stopping it.
        std::thread::sleep(Duration::from_millis(50));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            join.join().unwrap();
            done_tx.send(()).unwrap();
        });
        stopper.stop();
        done_rx
            .recv_timeout(Duration::from_secs(2))
            .expect("run must return within 2 s of stop");
        waiter.join().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);

        // The accept loop alone: the wake-up connection is dropped, not
        // admitted.
        let server = PoolServer::bind("127.0.0.1:0").unwrap();
        let stopper = server.stopper().unwrap();
        let queue = Arc::new(AdmissionQueue::new(4));
        let loop_queue = queue.clone();
        let accepting = std::thread::spawn(move || server.accept_loop(&loop_queue, 1));
        std::thread::sleep(Duration::from_millis(50));
        stopper.stop();
        accepting.join().unwrap();
        assert!(queue.is_empty(), "the wake-up connection was queued");
    }

    #[test]
    fn slow_handler_cannot_wedge_the_accept_loop() {
        // One worker stuck in a 1.5 s handler; deadline 200 ms; queue of 2.
        // Every extra client must still get an answer: the accept loop keeps
        // admitting and shedding while the worker sleeps, and none of the
        // shed requests may ever reach the handler.
        let hits = Arc::new(AtomicUsize::new(0));
        let handler_hits = hits.clone();
        let server = PoolServer::bind("127.0.0.1:0")
            .unwrap()
            .with_workers(1)
            .with_queue_depth(2)
            .with_deadline(Duration::from_millis(200));
        let (addr, stopper, join) = spawn_pool(server, move |_req| {
            handler_hits.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(1500));
            Response::text(200, "slow done")
        });

        // Occupy the single worker.
        let slow = std::thread::spawn(move || raw_request(addr, "GET /slow HTTP/1.1\r\n\r\n"));
        std::thread::sleep(Duration::from_millis(100));

        // Flood while the worker sleeps. All of these either overflow the
        // queue (shed inline) or expire in it (shed at pickup) — the worker
        // is busy well past their 200 ms deadline either way.
        let started = Instant::now();
        let floods: Vec<_> = (0..6)
            .map(|_| std::thread::spawn(move || raw_request(addr, "GET /flood HTTP/1.1\r\n\r\n")))
            .collect();
        let responses: Vec<String> = floods.into_iter().map(|j| j.join().unwrap()).collect();
        // Responsive despite the wedged worker: nobody waited for the full
        // worker backlog to clear sequentially.
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "accept loop appears wedged"
        );
        for out in &responses {
            assert_eq!(status_of(out), 503, "flooded request not shed: {out:?}");
            assert!(
                out.to_ascii_lowercase().contains("retry-after:"),
                "shed 503 must carry Retry-After: {out:?}"
            );
        }
        let slow_out = slow.join().unwrap();
        assert_eq!(status_of(&slow_out), 200);
        // Only the slow request reached the handler — a shed request never
        // executes any part of a dispatch.
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        stopper.stop();
        join.join().unwrap();
    }

    #[test]
    fn request_head_sent_after_the_deadline_is_shed_before_dispatch() {
        // An idle worker picks the connection up at once, well inside the
        // 150 ms deadline, then waits in the read for the request head. The
        // client sends it only after the deadline has passed: the worker
        // must shed it with 503 + Retry-After and never call the handler.
        let hits = Arc::new(AtomicUsize::new(0));
        let handler_hits = hits.clone();
        let server = PoolServer::bind("127.0.0.1:0")
            .unwrap()
            .with_workers(1)
            .with_deadline(Duration::from_millis(150));
        let (addr, stopper, join) = spawn_pool(server, move |_req| {
            handler_hits.fetch_add(1, Ordering::SeqCst);
            Response::text(200, "dispatched")
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        std::thread::sleep(Duration::from_millis(400));
        stream.write_all(b"GET /late HTTP/1.1\r\n\r\n").unwrap();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        assert_eq!(status_of(&out), 503, "late request head not shed: {out:?}");
        assert!(
            out.to_ascii_lowercase().contains("retry-after:"),
            "shed 503 must carry Retry-After: {out:?}"
        );
        assert!(out.contains("deadline exceeded before dispatch"), "{out:?}");
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        stopper.stop();
        join.join().unwrap();
    }

    #[test]
    fn shutdown_drains_admitted_requests_before_stopping_workers() {
        let served = Arc::new(AtomicUsize::new(0));
        let handler_served = served.clone();
        let server = PoolServer::bind("127.0.0.1:0")
            .unwrap()
            .with_workers(1)
            .with_queue_depth(8)
            .with_deadline(Duration::from_secs(30));
        let (addr, stopper, join) = spawn_pool(server, move |_req| {
            std::thread::sleep(Duration::from_millis(150));
            handler_served.fetch_add(1, Ordering::SeqCst);
            Response::text(200, "served")
        });
        // One in-flight + two queued, then stop: the queued pair must still
        // be served (drain-then-stop), not dropped.
        let clients: Vec<_> = (0..3)
            .map(|_| std::thread::spawn(move || raw_request(addr, "GET /drain HTTP/1.1\r\n\r\n")))
            .collect();
        std::thread::sleep(Duration::from_millis(75));
        stopper.stop();
        join.join().unwrap();
        assert_eq!(served.load(Ordering::SeqCst), 3);
        for client in clients {
            assert_eq!(status_of(&client.join().unwrap()), 200);
        }
    }
}
