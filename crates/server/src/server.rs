//! The serving runtime: accept loop, connection handlers, admission control.
//!
//! Topology is deliberately boring — thread-per-connection over one shared
//! [`TopK`] handle — because the index underneath already owns the hard
//! concurrency (PR 8's sharded read plane, the committer's batched write
//! plane). What this module adds is the *edges*:
//!
//! * **Admission control.** A connection cap (excess connections get one
//!   [`status::BUSY`] frame and a close), a per-connection frame-size limit
//!   (violations are fatal to the connection: after an oversized length
//!   prefix the stream cannot be re-synchronized), and a per-connection
//!   in-flight cap on pipelined writes.
//! * **Backpressure.** Writes are enqueued to the bounded committer queue
//!   ([`crate::queue`]); a full queue answers [`status::OVERLOADED`]
//!   without applying the write, so overload degrades into client retries
//!   instead of unbounded server memory.
//! * **Ordering.** Responses go out in request order even though writes
//!   complete asynchronously: every reply — including immediate errors —
//!   passes through one per-connection pending queue, and any read first
//!   flushes every write queued before it (read-your-writes on a
//!   connection).
//! * **Drain on shutdown.** [`Server::shutdown`] stops accepting, unblocks
//!   handlers via `Shutdown::Read` (responses still flush), joins them, and
//!   only then releases the committer — which empties the write queue
//!   before exiting. Nothing acknowledged as queued is dropped.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use topk_core::{Consistency, QueryRequest, ResumeToken, TopK};

use crate::queue::{
    run_committer, CommitStats, Completion, EnqueueError, Pending, PendingOp, WriteDone, WriteQueue,
};
use crate::wire::{
    read_frame, status, write_frame, FrameError, Request, Response, StatsSnapshot, WireError,
};

/// Tuning knobs of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Sizing hint for [`TopK::builder`]'s topology choice.
    pub expected_n: usize,
    /// Connection cap; further connections get [`status::BUSY`] and close.
    pub max_conns: usize,
    /// Per-connection cap on pipelined writes awaiting commit; beyond it the
    /// handler blocks flushing the oldest reply before reading more frames.
    pub max_inflight: usize,
    /// Per-connection frame payload limit (further bounded by
    /// [`crate::wire::MAX_FRAME_HARD`]).
    pub max_frame: u32,
    /// Bound of the shared write queue — the backpressure threshold.
    pub queue_cap: usize,
    /// Most writes the committer coalesces into one commit.
    pub batch_max: usize,
    /// When set, serve a **durable** index from this directory: each
    /// committed batch is one synced journal frame and a restart recovers
    /// to the last committed stamp (DESIGN.md §10). `None` (the default)
    /// serves from RAM only.
    pub data_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            expected_n: 1 << 20,
            max_conns: 256,
            max_inflight: 128,
            max_frame: 1 << 20,
            queue_cap: 4096,
            batch_max: 1024,
            data_dir: None,
        }
    }
}

/// Shared serving counters; snapshotted by [`Request::Stats`].
#[derive(Default)]
pub struct ServerStats {
    conns_accepted: AtomicU64,
    conns_rejected: AtomicU64,
    frames: AtomicU64,
    reads_served: AtomicU64,
    writes_enqueued: AtomicU64,
    writes_rejected: AtomicU64,
    commit: Arc<CommitStats>,
}

impl ServerStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_rejected: self.conns_rejected.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            reads_served: self.reads_served.load(Ordering::Relaxed),
            writes_enqueued: self.writes_enqueued.load(Ordering::Relaxed),
            writes_rejected: self.writes_rejected.load(Ordering::Relaxed),
            batches_committed: self.commit.batches.load(Ordering::Relaxed),
            ops_committed: self.commit.ops.load(Ordering::Relaxed),
            max_commit_batch: self.commit.max_batch.load(Ordering::Relaxed),
        }
    }
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) drains
/// and stops every thread.
pub struct Server {
    local_addr: SocketAddr,
    handle: TopK,
    stats: Arc<ServerStats>,
    stopping: Arc<AtomicBool>,
    /// Registry of live connections (try_cloned streams), keyed by a
    /// connection id; shutdown sweeps it with `Shutdown::Read` to unblock
    /// handlers without cutting their response path.
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    accept: Option<JoinHandle<()>>,
    committer: Option<JoinHandle<()>>,
    /// The server's own sender; dropped last so the committer outlives every
    /// handler and drains whatever they enqueued.
    queue: Option<WriteQueue>,
}

impl Server {
    /// Build a fresh index (`build_auto` over `expected_n`; durable on
    /// [`ServerConfig::data_dir`] when set, recovering whatever the
    /// directory already holds) and start serving it.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let mut builder = TopK::builder().expected_n(config.expected_n);
        if let Some(dir) = &config.data_dir {
            builder = builder.durable(dir);
        }
        let handle = builder
            .build_auto()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        Server::start_with(config, handle)
    }

    /// Start serving an existing index handle (tests and in-process mode
    /// pre-seed or co-own the index this way).
    pub fn start_with(config: ServerConfig, handle: TopK) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let stopping = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let (queue, rx) = WriteQueue::bounded(config.queue_cap);

        let committer = {
            let handle = handle.clone();
            let commit_stats = Arc::clone(&stats.commit);
            let batch_max = config.batch_max;
            std::thread::spawn(move || {
                run_committer(handle, rx, commit_stats, batch_max);
            })
        };

        let accept = {
            let handle = handle.clone();
            let stats = Arc::clone(&stats);
            let stopping = Arc::clone(&stopping);
            let conns = Arc::clone(&conns);
            let queue = queue.clone_sender();
            let config = config.clone();
            std::thread::spawn(move || {
                accept_loop(listener, handle, queue, stats, stopping, conns, config);
            })
        };

        Ok(Server {
            local_addr,
            handle,
            stats,
            stopping,
            conns,
            accept: Some(accept),
            committer: Some(committer),
            queue: Some(queue),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The served index, shared; writes through it bypass the queue (used
    /// by tests to pre-seed).
    pub fn handle(&self) -> &TopK {
        &self.handle
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Stop accepting, drain every handler and the write queue, join every
    /// thread. Also runs on drop; returns the final counters (every commit
    /// the drain performed is included, since the committer has exited).
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shutdown_impl();
        self.stats.snapshot()
    }

    fn shutdown_impl(&mut self) {
        self.stopping.store(true, Ordering::Release);
        {
            let conns = self.conns.lock().unwrap();
            for stream in conns.values() {
                // Read side only: handlers wake with EOF, flush their
                // pending responses, then exit.
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Every handler sender is gone once accept (which joins them) is
        // done; dropping ours lets the committer drain and exit.
        drop(self.queue.take());
        if let Some(committer) = self.committer.take() {
            let _ = committer.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Poll-accept loop: nonblocking listener so `stopping` is honoured within
/// ~5ms without platform-specific selector machinery.
fn accept_loop(
    listener: TcpListener,
    handle: TopK,
    queue: WriteQueue,
    stats: Arc<ServerStats>,
    stopping: Arc<AtomicBool>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    config: ServerConfig,
) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id: u64 = 0;
    while !stopping.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let at_cap = conns.lock().unwrap().len() >= config.max_conns.max(1);
                if at_cap {
                    stats.conns_rejected.fetch_add(1, Ordering::Relaxed);
                    let busy =
                        Response::transport_error(status::BUSY, "connection cap reached").encode();
                    let _ = stream.set_nonblocking(false);
                    let _ = write_frame(&mut stream, &busy);
                    continue; // drop closes it
                }
                stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                next_id += 1;
                let id = next_id;
                if let Ok(clone) = stream.try_clone() {
                    conns.lock().unwrap().insert(id, clone);
                }
                if stopping.load(Ordering::Acquire) {
                    // Shutdown may have swept the registry before our
                    // insert; make the sweep's effect happen here.
                    let _ = stream.shutdown(Shutdown::Read);
                }
                let handle = handle.clone();
                let queue = queue.clone_sender();
                let stats = Arc::clone(&stats);
                let stopping = Arc::clone(&stopping);
                let conns = Arc::clone(&conns);
                let config = config.clone();
                workers.push(std::thread::spawn(move || {
                    handle_connection(stream, handle, queue, stats, stopping, &config);
                    conns.lock().unwrap().remove(&id);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                // Transient accept failure (EMFILE, reset during handshake…):
                // back off and keep serving.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// One response waiting to be written, in request order.
enum Reply {
    /// Already computed (reads, immediate errors).
    Ready(Response),
    /// A queued write; the committer publishes the verdict into the slot.
    Write(Arc<Completion>),
}

fn verdict_response(verdict: topk_core::Result<WriteDone>) -> Response {
    match verdict {
        Ok(WriteDone::Inserted) => Response::Inserted,
        Ok(WriteDone::Deleted(found)) => Response::Deleted(found),
        Ok(WriteDone::Batch(summary)) => Response::Batch {
            inserted: summary.inserted as u64,
            deleted: summary.deleted as u64,
            missing_deletes: summary.missing_deletes as u64,
        },
        Err(e) => Response::from_topk_error(&e),
    }
}

/// Pop and write the oldest pending reply; `false` on a dead socket.
fn flush_one(stream: &mut TcpStream, pending: &mut VecDeque<Reply>) -> bool {
    let Some(reply) = pending.pop_front() else {
        return true;
    };
    let response = match reply {
        Reply::Ready(response) => response,
        Reply::Write(slot) => verdict_response(slot.wait()),
    };
    write_frame(stream, &response.encode()).is_ok()
}

fn flush_all(stream: &mut TcpStream, pending: &mut VecDeque<Reply>) -> bool {
    while !pending.is_empty() {
        if !flush_one(stream, pending) {
            return false;
        }
    }
    true
}

/// Whether the peer already sent more bytes (a pipelined frame) we have not
/// read yet. When it has not, the connection is lockstep at this instant and
/// pending write replies must flush now — the client won't send anything
/// until it hears back.
fn more_data_buffered(stream: &TcpStream) -> bool {
    let mut byte = [0u8; 1];
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let buffered = matches!(stream.peek(&mut byte), Ok(n) if n > 0);
    let _ = stream.set_nonblocking(false);
    buffered
}

/// The per-connection loop. Never panics on any input — malformed frames
/// get typed error responses, transport desync closes the connection.
fn handle_connection(
    mut stream: TcpStream,
    handle: TopK,
    queue: WriteQueue,
    stats: Arc<ServerStats>,
    stopping: Arc<AtomicBool>,
    config: &ServerConfig,
) {
    let mut pending: VecDeque<Reply> = VecDeque::new();
    loop {
        let payload = match read_frame(&mut stream, config.max_frame) {
            Ok(Some(payload)) => payload,
            Ok(None) => break, // clean close (or shutdown sweep)
            Err(FrameError::TooLarge { len, max }) => {
                // The oversized payload was never read: the stream is
                // desynchronized. Answer once, then close.
                let _ = flush_all(&mut stream, &mut pending);
                let response = Response::transport_error(
                    status::FRAME_TOO_LARGE,
                    format!("frame length {len} exceeds the limit of {max}"),
                );
                let _ = write_frame(&mut stream, &response.encode());
                return;
            }
            Err(FrameError::Io(_)) => break, // mid-frame disconnect
        };
        stats.frames.fetch_add(1, Ordering::Relaxed);
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(e) => {
                // Framing was intact, so the connection survives a payload
                // the decoder rejects.
                let code = match e {
                    WireError::BadOpcode(_) => status::UNKNOWN_OPCODE,
                    _ => status::MALFORMED_FRAME,
                };
                if !flush_all(&mut stream, &mut pending) {
                    break;
                }
                let response = Response::transport_error(code, e.to_string());
                if write_frame(&mut stream, &response.encode()).is_err() {
                    break;
                }
                continue;
            }
        };
        match request {
            Request::Insert { .. } | Request::Delete { .. } | Request::Batch { .. } => {
                let op = match request {
                    Request::Insert { point } => PendingOp::Insert(point),
                    Request::Delete { point } => PendingOp::Delete(point),
                    Request::Batch { ops } => PendingOp::Batch(ops),
                    _ => continue,
                };
                let reply = if stopping.load(Ordering::Acquire) {
                    stats.writes_rejected.fetch_add(1, Ordering::Relaxed);
                    Reply::Ready(Response::transport_error(
                        status::SHUTTING_DOWN,
                        "server is draining; write not applied",
                    ))
                } else {
                    let slot = Arc::new(Completion::default());
                    match queue.try_enqueue(Pending {
                        op,
                        slot: Arc::clone(&slot),
                    }) {
                        Ok(()) => {
                            stats.writes_enqueued.fetch_add(1, Ordering::Relaxed);
                            Reply::Write(slot)
                        }
                        Err(EnqueueError::Full) => {
                            stats.writes_rejected.fetch_add(1, Ordering::Relaxed);
                            Reply::Ready(Response::transport_error(
                                status::OVERLOADED,
                                "write queue full; retry",
                            ))
                        }
                        Err(EnqueueError::Closed) => {
                            stats.writes_rejected.fetch_add(1, Ordering::Relaxed);
                            Reply::Ready(Response::transport_error(
                                status::SHUTTING_DOWN,
                                "server is draining; write not applied",
                            ))
                        }
                    }
                };
                // Even an immediate error rides the queue: responses must
                // leave in request order behind earlier uncommitted writes.
                pending.push_back(reply);
                while pending.len() > config.max_inflight.max(1) {
                    if !flush_one(&mut stream, &mut pending) {
                        return;
                    }
                }
                // A pipelining client keeps replies in flight (they batch in
                // the committer); a lockstep client gets its reply now.
                if !more_data_buffered(&stream) && !flush_all(&mut stream, &mut pending) {
                    return;
                }
            }
            read => {
                // Read-your-writes: everything queued before this request
                // is answered (and therefore committed) first.
                if !flush_all(&mut stream, &mut pending) {
                    break;
                }
                let response = serve_read(&handle, &stats, read);
                if write_frame(&mut stream, &response.encode()).is_err() {
                    break;
                }
            }
        }
    }
    // Drain on any exit path: queued writes still get their verdicts and,
    // when the socket allows, their responses.
    let _ = flush_all(&mut stream, &mut pending);
}

/// Serve a read-plane request against the shared index.
fn serve_read(handle: &TopK, stats: &ServerStats, request: Request) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(stats.snapshot()),
        Request::Query { x1, x2, k } => {
            stats.reads_served.fetch_add(1, Ordering::Relaxed);
            match handle.query(x1, x2, k as usize) {
                Ok(points) => Response::Points(points),
                Err(e) => Response::from_topk_error(&e),
            }
        }
        Request::Count { x1, x2 } => {
            stats.reads_served.fetch_add(1, Ordering::Relaxed);
            match handle.count_in_range(x1, x2) {
                Ok(n) => Response::Count(n),
                Err(e) => Response::from_topk_error(&e),
            }
        }
        Request::CursorOpen {
            x1,
            x2,
            k,
            page,
            strict,
        } => {
            stats.reads_served.fetch_add(1, Ordering::Relaxed);
            let mut query = QueryRequest::range(x1, x2).top(k as usize);
            if page > 0 {
                query = query.page_size(page as usize);
            }
            if strict {
                query = query.consistency(Consistency::Strict);
            }
            serve_page(handle, query)
        }
        Request::CursorNext { token } => {
            stats.reads_served.fetch_add(1, Ordering::Relaxed);
            match token.parse::<ResumeToken>() {
                Ok(resume) => serve_page(handle, QueryRequest::after(&resume)),
                Err(e) => Response::transport_error(status::BAD_TOKEN, e.to_string()),
            }
        }
        // Writes are routed before serve_read; reaching here is a bug kept
        // harmless.
        Request::Insert { .. } | Request::Delete { .. } | Request::Batch { .. } => {
            Response::transport_error(status::MALFORMED_FRAME, "write routed to the read plane")
        }
    }
}

/// One pagination round: open (or resume) a cursor, emit one page, mint the
/// token for the next. The server keeps no cursor state between rounds —
/// the token *is* the session, which is why it resumes anywhere.
fn serve_page(handle: &TopK, query: QueryRequest) -> Response {
    let mut cursor = match handle.cursor(query) {
        Ok(cursor) => cursor,
        Err(e) => return Response::from_topk_error(&e),
    };
    match cursor.next_batch() {
        Ok(points) => {
            let done = cursor.is_done() || points.is_empty();
            Response::Page {
                points,
                token: cursor.token().to_string(),
                done,
            }
        }
        Err(e) => Response::from_topk_error(&e),
    }
}
