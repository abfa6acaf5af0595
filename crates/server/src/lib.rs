//! # exma-server
//!
//! The network front-end of the EXMA reproduction: a dependency-free
//! binary protocol over TCP ([`wire`]) feeding the batched query
//! engine through a continuous-batching admission queue ([`batcher`]).
//!
//! The serving pipeline is decode → admit → execute → encode:
//! connection reader threads decode QUERY frames into
//! [`exma_engine::QueryBatch`]es and admit them to one bounded queue
//! ([`conn`]); a single batcher thread drains the queue, merges
//! whatever has accumulated into one batch, runs the lockstep engine
//! once, and routes each submission's slice of the pooled results back
//! to its connection ([`batcher`]). Small client submissions thereby
//! execute at engine-friendly batch sizes — the lockstep scheduler's
//! locality wins need hundreds of in-flight queries, and no single
//! network client supplies that — while a full queue answers BUSY
//! instead of buffering unboundedly.
//!
//! The pipeline is deadline-aware and drains cleanly: protocol-v2
//! QUERY frames carry a latency budget the batcher enforces (expired
//! submissions answer LATE, never an engine run), writer queues are
//! bounded (overflow sheds and disconnects, never OOMs), idle
//! connections are reaped, and [`ServerHandle::shutdown`] performs a
//! graceful drain — stop accepting, GOAWAY new queries, finish
//! everything queued, join every thread.
//!
//! ```no_run
//! use std::sync::Arc;
//! use exma_engine::EngineBuilder;
//! use exma_genome::{Genome, GenomeProfile};
//! use exma_server::{Server, ServerConfig};
//!
//! let genome = Genome::synthesize(&GenomeProfile::toy(), 42);
//! let builder = EngineBuilder::new().k(4);
//! let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
//! let server = Server::bind("127.0.0.1:0", index, builder, ServerConfig::default()).unwrap();
//! println!("listening on {}", server.local_addr().unwrap());
//! server.run().unwrap();
//! ```

pub mod batcher;
pub mod conn;
pub mod fault;
pub mod wire;

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use exma_engine::EngineBuilder;
use exma_index::KStepFmIndex;

pub use batcher::{BatcherConfig, ServerStats, Submission};
pub use conn::{ConnConfig, ConnShared, ReplyHandle};
pub use fault::{Fault, FaultPlan};
pub use wire::{Opcode, StatsSnapshot, WireError, WireOutput};

/// Every serving knob in one place, fixed at [`Server::bind`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Admission-queue capacity in submissions; a full queue answers
    /// BUSY (the backpressure bound).
    pub queue_depth: usize,
    /// Stop coalescing a batch at this many queries.
    pub max_batch_queries: usize,
    /// Largest accepted frame payload, in bytes.
    pub max_frame_len: usize,
    /// Largest accepted per-frame query count.
    pub max_queries_per_frame: usize,
    /// Hit-cap ceiling clamped onto every locate (the resolution
    /// budget; `None` honors client caps verbatim).
    pub max_hits_ceiling: Option<u32>,
    /// Per-connection bounded writer-queue capacity, in frames;
    /// overflow sheds the frame and disconnects the slow reader.
    pub writer_queue_depth: usize,
    /// Reap a connection after this much read silence (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Server-side deadline ceiling on every submission; the effective
    /// budget is the tighter of this and the client's `deadline_us`
    /// (`None` = only client deadlines apply).
    pub default_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            queue_depth: 1024,
            max_batch_queries: 4096,
            max_frame_len: wire::DEFAULT_MAX_FRAME_LEN,
            max_queries_per_frame: 4096,
            max_hits_ceiling: None,
            writer_queue_depth: 256,
            idle_timeout: Some(Duration::from_secs(60)),
            default_deadline: None,
        }
    }
}

/// A bound, not-yet-running server: the listener, the index, and the
/// engine recipe that will answer queries.
pub struct Server {
    listener: TcpListener,
    index: Arc<KStepFmIndex>,
    builder: EngineBuilder,
    config: ServerConfig,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    shared: ConnShared,
}

/// A remote control for a running [`Server`]: lets tests and signal
/// handlers stop the accept loop from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    shared: ConnShared,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Begins a graceful drain: connections answer new QUERYs with
    /// GOAWAY immediately, the accept loop is flagged down and woken
    /// with a throwaway connection, and [`Server::run`] returns once
    /// in-flight batches drain and every connection thread is joined.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop only observes the flag between accepts.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Binds `addr` and validates that `builder` can attach to
    /// `index` — a mismatched recipe fails here, not in the batcher
    /// thread after the first client connects.
    pub fn bind(
        addr: impl ToSocketAddrs,
        index: Arc<KStepFmIndex>,
        builder: EngineBuilder,
        config: ServerConfig,
    ) -> io::Result<Server> {
        builder
            .check_index(&index)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let listener = TcpListener::bind(addr)?;
        let stats = Arc::new(ServerStats::default());
        // The served index is fixed for the server's lifetime, so its
        // heap attribution and strandedness are published once and
        // snapshots just read them.
        stats.record_heap(&index.heap_breakdown());
        stats.record_strandedness(index.is_bidirectional(), index.text_len());
        Ok(Server {
            listener,
            index,
            builder,
            config,
            stats,
            shutdown: Arc::new(AtomicBool::new(false)),
            shared: ConnShared::default(),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A control handle; clone freely across threads.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.local_addr()?,
            shutdown: Arc::clone(&self.shutdown),
            stats: Arc::clone(&self.stats),
            shared: self.shared.clone(),
        })
    }

    /// Serves until [`ServerHandle::shutdown`]: spawns the batcher
    /// thread, then accepts connections, two threads each. On shutdown
    /// it drains — the batcher finishes everything already queued
    /// (answering GOAWAY to stragglers), then every connection thread
    /// is force-closed and joined, so returning means no thread of
    /// this server is still running.
    pub fn run(self) -> io::Result<()> {
        let (submit, queue) = mpsc::sync_channel::<Submission>(self.config.queue_depth);
        let batcher_config = BatcherConfig {
            max_batch_queries: self.config.max_batch_queries,
        };
        let conn_config = ConnConfig {
            max_frame_len: self.config.max_frame_len,
            max_queries_per_frame: self.config.max_queries_per_frame,
            max_hits_ceiling: self.config.max_hits_ceiling,
            writer_queue_depth: self.config.writer_queue_depth,
            idle_timeout: self.config.idle_timeout,
            default_deadline: self.config.default_deadline,
            bidirectional: self.builder.is_bidirectional(),
        };

        let batcher = {
            let index = Arc::clone(&self.index);
            let builder = self.builder;
            let stats = Arc::clone(&self.stats);
            let draining = Arc::clone(&self.shared.draining);
            thread::spawn(move || {
                let exec = builder.attach(&index).expect("recipe validated at bind");
                batcher::run_batcher(exec.as_ref(), &queue, batcher_config, &stats, &draining);
            })
        };

        // Every live connection: a socket clone (to force-close its
        // blocked reader at drain time) and the reader thread's handle
        // (joined at drain time — no thread outlives `run`).
        let mut conns: Vec<(Option<TcpStream>, thread::JoinHandle<()>)> = Vec::new();
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(_) => continue,
            };
            // Replies are small frames written back to back; Nagle
            // would hold all but the first of a batch's frames to one
            // connection until the client ACKs.
            let _ = stream.set_nodelay(true);
            // Reap registry entries whose threads already finished so
            // connection churn doesn't grow the registry unboundedly.
            let mut i = 0;
            while i < conns.len() {
                if conns[i].1.is_finished() {
                    let (_, done) = conns.swap_remove(i);
                    let _ = done.join();
                } else {
                    i += 1;
                }
            }
            self.stats.connections.fetch_add(1, Ordering::Relaxed);
            let peer = stream.try_clone().ok();
            let submit = submit.clone();
            let stats = Arc::clone(&self.stats);
            let shared = self.shared.clone();
            let handle = thread::spawn(move || {
                conn::handle_conn(stream, submit, stats, conn_config, shared)
            });
            conns.push((peer, handle));
        }

        // Graceful drain, in order: stop admitting (readers GOAWAY new
        // QUERYs), let the batcher finish everything already queued,
        // then force-close the readers and join every connection
        // thread. The batcher polls rather than blocking on recv, so
        // connections still holding queue senders cannot deadlock it —
        // the PR 6 retained-sender deadlock, designed out.
        self.shared.draining.store(true, Ordering::SeqCst);
        drop(submit);
        batcher
            .join()
            .map_err(|_| io::Error::other("batcher thread panicked"))?;
        self.shared.force_close.store(true, Ordering::SeqCst);
        for (peer, handle) in conns {
            if let Some(peer) = peer {
                // Unstick a reader blocked mid-read; its writer still
                // flushes queued responses before closing.
                let _ = peer.shutdown(Shutdown::Read);
            }
            let _ = handle.join();
        }
        Ok(())
    }
}
