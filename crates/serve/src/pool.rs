//! A bounded worker thread pool for connection handling.
//!
//! The accept loop hands each connection to the pool over a
//! [`std::sync::mpsc::sync_channel`]; when all workers are busy and the
//! queue is full, [`WorkerPool::dispatch`] returns the connection instead of
//! blocking, so the accept loop can shed load with a `503` rather than let
//! the backlog grow unboundedly. Dropping the sender during shutdown lets
//! every worker drain its queue and exit — in-flight requests complete.
//!
//! A handler that panics loses its connection, not its worker: the worker
//! catches the panic, counts it, drops the connection and takes the next.

use obs::metrics::Counter;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Fixed-size pool of connection-handling threads.
pub struct WorkerPool {
    sender: Option<SyncSender<TcpStream>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers sharing one queue of `queue_capacity`
    /// pending connections; each connection is passed to `handler`, and
    /// each handler panic is counted in `panics`.
    pub fn new(
        threads: usize,
        queue_capacity: usize,
        handler: Arc<dyn Fn(TcpStream) + Send + Sync>,
        panics: &'static Counter,
    ) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = sync_channel::<TcpStream>(queue_capacity);
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|i| {
                let receiver: Arc<Mutex<Receiver<TcpStream>>> = receiver.clone();
                let handler = handler.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only to dequeue; recv errors mean the
                        // sender is gone and the queue is drained — exit.
                        let conn = match receiver.lock().expect("pool lock poisoned").recv() {
                            Ok(c) => c,
                            Err(_) => break,
                        };
                        // The connection moves into the handler, so a
                        // panic drops (closes) it while unwinding.
                        if catch_unwind(AssertUnwindSafe(|| handler(conn))).is_err() {
                            panics.bump();
                        }
                    })
                    .expect("spawning a pool worker")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
        }
    }

    /// Queues a connection. Returns the connection back when the pool is
    /// saturated (queue full) or shutting down.
    pub fn dispatch(&self, conn: TcpStream) -> Result<(), TcpStream> {
        match &self.sender {
            Some(s) => match s.try_send(conn) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(c)) | Err(TrySendError::Disconnected(c)) => Err(c),
            },
            None => Err(conn),
        }
    }

    /// Stops accepting new work and joins every worker after it drains the
    /// queue. In-flight requests finish.
    pub fn shutdown(&mut self) {
        self.sender.take();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// This module's handler panics; only `handler_panic_keeps_the_worker`
    /// panics.
    static PANICS: Counter = Counter::new("test_pool_panics_total", "Test counter.");

    #[test]
    fn pool_handles_connections_and_drains_on_shutdown() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handled = Arc::new(AtomicUsize::new(0));
        let handled2 = handled.clone();
        let mut pool = WorkerPool::new(
            2,
            16,
            Arc::new(move |mut conn: TcpStream| {
                let mut buf = [0u8; 4];
                let _ = conn.read_exact(&mut buf);
                let _ = conn.write_all(b"pong");
                handled2.fetch_add(1, Ordering::SeqCst);
            }),
            &PANICS,
        );

        let n = 6;
        let clients: Vec<_> = (0..n)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut s = TcpStream::connect(addr).unwrap();
                    s.write_all(b"ping").unwrap();
                    let mut buf = Vec::new();
                    s.read_to_end(&mut buf).unwrap();
                    assert_eq!(buf, b"pong");
                })
            })
            .collect();
        for _ in 0..n {
            let (conn, _) = listener.accept().unwrap();
            pool.dispatch(conn).map_err(|_| "saturated").unwrap();
        }
        pool.shutdown();
        assert_eq!(handled.load(Ordering::SeqCst), n);
        for c in clients {
            c.join().unwrap();
        }
    }

    /// A handler panic drops its connection but not its worker: with one
    /// worker, the connection after the panicking one is still served, and
    /// the panic is counted once.
    #[test]
    fn handler_panic_keeps_the_worker() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = calls.clone();
        let mut pool = WorkerPool::new(
            1,
            4,
            Arc::new(move |mut conn: TcpStream| {
                if calls2.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("handler panic on the first connection");
                }
                let _ = conn.write_all(b"pong");
            }),
            &PANICS,
        );
        let client = |expect: &'static [u8]| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
                    .unwrap();
                let mut buf = Vec::new();
                // The panicked connection is closed: EOF or a reset.
                let _ = s.read_to_end(&mut buf);
                assert_eq!(buf, expect);
            })
        };
        for expect in [&b""[..], &b"pong"[..]] {
            let c = client(expect);
            let (conn, _) = listener.accept().unwrap();
            pool.dispatch(conn).map_err(|_| "saturated").unwrap();
            c.join().unwrap();
        }
        pool.shutdown();
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(PANICS.get(), 1);
    }
}
