//! The parallel deterministic simulation engine.
//!
//! [`Cluster::run_parallel`] shards the data plane of the event loop
//! across worker threads while keeping every observable byte identical
//! to the sequential engine at any thread count. The split follows the
//! paper's own RPC boundary:
//!
//! * The **coordinator** (the calling thread) runs the unchanged
//!   sequential control plane in global operation order: open-file
//!   tables, version stamps, server consistency state (opens, last
//!   writer, tokens, cache disabling), fault scheduling, and — crucially
//!   — all trace-record emission. Trace bytes therefore never depend on
//!   worker timing.
//! * **Shard workers** own disjoint groups of clients' data planes
//!   ([`crate::client::ClientData`]: block cache, memory manager, VM
//!   process table, kernel counters). The coordinator packages every
//!   data-movement effect as a [`ClientTask`] tagged with a global
//!   dispatch id and pushes it to the owning worker's queue; per-client
//!   effects are independent across clients, so per-queue FIFO order is
//!   exactly sequential order for all state a worker can see.
//! * **Server caches** are not simulated during the parallel run at
//!   all. Both the coordinator (paging, server daemon ticks) and the
//!   workers (block fetches, write-backs) append their server-cache
//!   effects to event logs keyed `(dispatch id, intra-task seq)`; after
//!   the workers join, the logs are k-way merged back into the exact
//!   sequential interleaving ([`sdfs_simkit::merge_sorted_by`]) and
//!   replayed — one thread per server — against the real [`Server`]s.
//!
//! Two values flow "backwards" from state a worker owns into results:
//! server-cache *hit* flags (consumed only by obs latency modeling) and
//! client file sizes at write-back time. The first is moot because
//! observed runs force the sequential engine (below); the second is
//! solved by a worker-local size mirror fed from the sizes carried on
//! `Write`/`DropFile` tasks, exact for every file a client holds dirty
//! blocks of (any other writer is ordered behind a flush/invalidate in
//! this client's own queue — recall, token downgrade, cache disable,
//! truncate, delete).
//!
//! Runs with the sanitizer, the observer, or fault injection force the
//! sequential engine: those subsystems deliberately read cross-client
//! state at arbitrary points (deep audits, ring buffers, crash
//! teardown) and are verification/diagnostic modes, not the measured
//! fast path. Partition plans in particular keep per-edge cut state,
//! lease expiries, and deferred revocations on the coordinator
//! (`FaultState`), which every RPC consults — sharding clients across
//! workers would race that single clock, so `--threads N` with a fault
//! plan silently runs sequentially (and stays byte-identical, which
//! `scripts/verify.sh` gates).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use sdfs_simkit::{merge_sorted_by, CounterSet, FastMap, SimTime};
use sdfs_trace::{FileId, Pid};

use crate::cache::BlockKey;
use crate::client::ClientData;
use crate::cluster::{run_client_task, CleanReason, Cluster, ServerAccess, TraceSink};
use crate::config::Config;
use crate::ops::AppOp;
use crate::server::Server;

/// Tasks are shipped to workers in batches of this size to amortize
/// queue locking; the batch boundary carries no meaning.
const BATCH: usize = 256;

/// One data-plane effect for a single client. Dispatched inline by the
/// sequential engine or queued to the owning shard worker.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ClientTask {
    /// A cached read (file data or paging, per `paging`).
    Read {
        file: FileId,
        offset: u64,
        len: u64,
        si: usize,
        paging: bool,
        migrated: bool,
    },
    /// A cached write. `old_size`/`new_size` are the file's size before
    /// and after the control plane applied the metadata update;
    /// `new_size` feeds the worker's size mirror.
    Write {
        file: FileId,
        offset: u64,
        len: u64,
        old_size: u64,
        new_size: u64,
        si: usize,
        write_through: bool,
        migrated: bool,
    },
    /// Flush every dirty block of `file` (fsync, recall, disable).
    FlushFile { file: FileId, reason: CleanReason },
    /// Drop every cached block of `file`; `stale` counts it as a
    /// consistency invalidation.
    Invalidate { file: FileId, stale: bool },
    /// Delete/truncate: drop blocks and forget the mirrored size.
    DropFile { file: FileId },
    /// Process start (VM page acquisition, code/data faults).
    ProcStart {
        pid: Pid,
        exec: FileId,
        code_bytes: u64,
        data_bytes: u64,
        heap_bytes: u64,
        si: usize,
        migrated: bool,
    },
    /// Process exit (VM release, shared-text bookkeeping).
    ProcExit { pid: Pid },
    /// The write-back daemon's per-client scan-and-flush.
    DaemonFlush { cutoff: SimTime },
    /// One Table 4 cache-size sample.
    Sample { active: bool },
}

/// A [`ClientTask`] stamped with its global dispatch id and time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SubTask {
    /// Global dispatch sequence number (shared with server events).
    pub id: u64,
    /// Simulated time at dispatch.
    pub now: SimTime,
    /// The effect.
    pub kind: ClientTask,
}

/// Maximum sub-tasks coalesced into one dispatch round, bounding how
/// long the coordinator holds work back from a worker.
pub(crate) const ROUND_CAP: usize = 64;

/// One dispatch round: a maximal run of consecutive tasks for the same
/// client in one worker's queue, handed over as a unit. Fast-path
/// opens/closes dispatch no cross-client traffic, so calm stretches of
/// a client's ops coalesce into long rounds; slow-path consistency
/// actions (recalls, invalidates) break runs by interleaving other
/// clients' tasks. Purely transport + accounting: every sub-task keeps
/// its own global dispatch id, so server-event replay order is
/// *identical* to uncoalesced dispatch by construction.
#[derive(Debug)]
pub(crate) struct Task {
    /// The client every sub-task belongs to.
    pub ci: u16,
    /// The round's sub-tasks, in dispatch order.
    pub kind: TaskKind,
}

/// Round payload: the single-task case avoids a heap allocation (most
/// rounds are singletons — daemon ticks and samples alternate clients).
#[derive(Debug)]
pub(crate) enum TaskKind {
    /// A singleton round.
    One(SubTask),
    /// A coalesced round of two or more sub-tasks.
    Round(Vec<SubTask>),
}

/// A deferred server-cache effect, replayed after the workers join.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SrvEventKind {
    /// A block read served from cache or disk.
    Read { key: BlockKey, bytes: u64 },
    /// A block write accepted into the server cache.
    Write { key: BlockKey, bytes: u64 },
    /// Delete/truncate dropping the file's blocks.
    DropFile { file: FileId },
    /// The server's own delayed write-back of expired dirty blocks.
    TickFlush { cutoff: SimTime },
}

/// One server-cache effect with its deterministic replay key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SrvEvent {
    /// Dispatch id of the task (or control-plane call) that caused it.
    pub id: u64,
    /// Ordinal within that task (a task can touch a server repeatedly).
    pub subseq: u32,
    /// Destination server.
    pub si: u16,
    /// Simulated time of the effect.
    pub now: SimTime,
    /// The effect.
    pub kind: SrvEventKind,
}

/// A blocking MPSC queue of task batches (one per worker).
#[derive(Debug, Default)]
pub(crate) struct TaskQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct QueueInner {
    batches: VecDeque<Vec<Task>>,
    closed: bool,
}

impl TaskQueue {
    fn push_batch(&self, batch: Vec<Task>) {
        let mut inner = self.inner.lock().expect("task queue poisoned");
        inner.batches.push_back(batch);
        drop(inner);
        self.ready.notify_one();
    }

    fn pop_batch(&self) -> Option<Vec<Task>> {
        let mut inner = self.inner.lock().expect("task queue poisoned");
        loop {
            if let Some(batch) = inner.batches.pop_front() {
                return Some(batch);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("task queue poisoned");
        }
    }

    fn close(&self) {
        let mut inner = self.inner.lock().expect("task queue poisoned");
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }
}

/// Work-division statistics of the most recent parallel run, for the
/// bench harness: how the data plane split across shard workers. Fully
/// deterministic — task routing is `client % workers`, independent of
/// thread timing.
#[derive(Debug, Clone, Default)]
pub struct ParallelStats {
    /// Shard worker count used by the run.
    pub workers: usize,
    /// Data-plane tasks executed by each worker.
    pub tasks_per_worker: Vec<u64>,
    /// Dispatch rounds handed to each worker (consecutive same-client
    /// tasks coalesce into one round, up to a cap).
    pub rounds_per_worker: Vec<u64>,
    /// Deferred server-cache events replayed after the join.
    pub srv_events: u64,
    /// Control-plane operations the coordinator walked during the run
    /// (its busy share of the split, vs the workers' task counts).
    pub coordinator_ops: u64,
    /// Consistency fast-path admissions during the run (opens + closes;
    /// zero when [`crate::Config::consistency_fast_path`] is off).
    pub fastpath_hits: u64,
    /// Slow-path fallbacks during the run while the fast path was on.
    pub fastpath_misses: u64,
}

impl ParallelStats {
    /// Total data-plane tasks across all workers.
    pub fn total_tasks(&self) -> u64 {
        self.tasks_per_worker.iter().sum()
    }

    /// The busiest worker's task count.
    pub fn max_worker_tasks(&self) -> u64 {
        self.tasks_per_worker.iter().copied().max().unwrap_or(0)
    }

    /// Total dispatch rounds across all workers.
    pub fn total_rounds(&self) -> u64 {
        self.rounds_per_worker.iter().sum()
    }

    /// The busiest worker's round count — the data-plane critical path
    /// in dispatch-round units.
    pub fn max_worker_rounds(&self) -> u64 {
        self.rounds_per_worker.iter().copied().max().unwrap_or(0)
    }

    /// Fast-path hit rate in percent over the run's open/close
    /// decisions (0 when the fast path was off or nothing ran).
    pub fn fastpath_hit_rate_pct(&self) -> f64 {
        let total = self.fastpath_hits + self.fastpath_misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.fastpath_hits as f64 / total as f64
        }
    }
}

/// An open (not yet sealed) dispatch round for one worker.
#[derive(Debug, Default)]
struct PendingRound {
    /// The round's client (meaningful while `subs` is non-empty).
    ci: u16,
    /// Accumulated sub-tasks; empty = no round open.
    subs: Vec<SubTask>,
}

/// Coordinator-side state of a queued (parallel) run.
#[derive(Debug)]
pub(crate) struct QueuedState {
    /// One queue per worker; client `ci` belongs to worker
    /// `ci % queues.len()`.
    queues: Vec<Arc<TaskQueue>>,
    /// Per-worker batch buffers awaiting a push.
    bufs: Vec<Vec<Task>>,
    /// Per-worker open dispatch round awaiting a seal.
    pending: Vec<PendingRound>,
    /// Next global dispatch id (shared by tasks and server events).
    next_id: u64,
    /// Control-path client counters, merged into the clients at join
    /// (exact: counter merge is a sorted-key sum).
    pub ctl: Vec<CounterSet>,
    /// Server-cache effects from control-plane call sites (paging,
    /// server daemon ticks).
    pub events: Vec<SrvEvent>,
    /// Tasks dispatched to each worker, for [`ParallelStats`].
    tasks: Vec<u64>,
    /// Dispatch rounds sealed for each worker, for [`ParallelStats`].
    rounds: Vec<u64>,
}

impl QueuedState {
    fn new(queues: Vec<Arc<TaskQueue>>, nclients: usize) -> Self {
        let nworkers = queues.len();
        QueuedState {
            queues,
            bufs: (0..nworkers).map(|_| Vec::with_capacity(BATCH)).collect(),
            pending: (0..nworkers).map(|_| PendingRound::default()).collect(),
            next_id: 0,
            ctl: (0..nclients).map(|_| CounterSet::new()).collect(),
            events: Vec::new(),
            tasks: vec![0; nworkers],
            rounds: vec![0; nworkers],
        }
    }

    /// Enqueues one task for client `ci`, stamping the next dispatch id.
    /// Consecutive tasks for the same client coalesce into the worker's
    /// open dispatch round; a task for a different client of the same
    /// worker seals it first.
    pub(crate) fn push_task(&mut self, ci: usize, now: SimTime, kind: ClientTask) {
        let id = self.next_id;
        self.next_id += 1;
        let w = ci % self.queues.len();
        self.tasks[w] += 1;
        let p = &mut self.pending[w];
        if !p.subs.is_empty() && (p.ci as usize != ci || p.subs.len() >= ROUND_CAP) {
            self.seal(w);
        }
        let p = &mut self.pending[w];
        p.ci = ci as u16;
        p.subs.push(SubTask { id, now, kind });
    }

    /// Seals worker `w`'s open dispatch round, if any, into its batch
    /// buffer. Singleton rounds keep the pending buffer's allocation.
    fn seal(&mut self, w: usize) {
        let p = &mut self.pending[w];
        let task = match p.subs.len() {
            0 => return,
            1 => Task {
                ci: p.ci,
                kind: TaskKind::One(p.subs.pop().expect("len checked")),
            },
            _ => Task {
                ci: p.ci,
                kind: TaskKind::Round(std::mem::take(&mut p.subs)),
            },
        };
        self.rounds[w] += 1;
        self.bufs[w].push(task);
        if self.bufs[w].len() >= BATCH {
            let batch = std::mem::replace(&mut self.bufs[w], Vec::with_capacity(BATCH));
            self.queues[w].push_batch(batch);
        }
    }

    /// Logs one control-plane server-cache effect at the next dispatch id.
    pub(crate) fn push_srv_event(&mut self, si: usize, kind: SrvEventKind, now: SimTime) {
        let id = self.next_id;
        self.next_id += 1;
        self.events.push(SrvEvent {
            id,
            subseq: 0,
            si: si as u16,
            now,
            kind,
        });
    }

    fn flush_all(&mut self) {
        for w in 0..self.queues.len() {
            self.seal(w);
            if !self.bufs[w].is_empty() {
                let batch = std::mem::take(&mut self.bufs[w]);
                self.queues[w].push_batch(batch);
            }
        }
    }

    fn close_all(&self) {
        for queue in &self.queues {
            queue.close();
        }
    }
}

/// Where data-plane work goes. See [`crate::cluster`]'s routing helpers.
#[derive(Debug)]
pub(crate) enum Route {
    /// Execute at the dispatch point (the sequential engine).
    Inline,
    /// Queue to shard workers (the parallel engine).
    Queued(Box<QueuedState>),
}

/// Worker-side [`ServerAccess`]: appends events instead of touching
/// servers. Reads report a cache hit — the flag's only consumer (obs
/// latency modeling) is off in parallel runs.
struct EventLog {
    events: Vec<SrvEvent>,
    cur_id: u64,
    subseq: u32,
}

impl ServerAccess for EventLog {
    fn serve_read(&mut self, si: usize, key: BlockKey, bytes: u64, now: SimTime) -> bool {
        self.events.push(SrvEvent {
            id: self.cur_id,
            subseq: self.subseq,
            si: si as u16,
            now,
            kind: SrvEventKind::Read { key, bytes },
        });
        self.subseq += 1;
        true
    }

    fn accept_write(&mut self, si: usize, key: BlockKey, bytes: u64, now: SimTime) {
        self.events.push(SrvEvent {
            id: self.cur_id,
            subseq: self.subseq,
            si: si as u16,
            now,
            kind: SrvEventKind::Write { key, bytes },
        });
        self.subseq += 1;
    }
}

/// What a shard worker hands back at join.
struct WorkerResult {
    /// The client data planes, indexed by client id (unowned slots None).
    datas: Vec<Option<Box<ClientData>>>,
    /// Server-cache effects in dispatch order.
    events: Vec<SrvEvent>,
    /// Happens-before verdict (`None` unless [`Config::racecheck`]).
    race: Option<crate::racecheck::RaceStats>,
}

/// A shard worker: drains its queue in order, running each task against
/// the owned client's data plane with deferred server access. Under
/// [`Config::racecheck`] the worker carries a [`Plane::Worker`] guard
/// context and a [`RaceLog`] verifying the dispatch-order contract.
///
/// [`Plane::Worker`]: crate::racecheck::Plane::Worker
/// [`RaceLog`]: crate::racecheck::RaceLog
fn worker_main(
    queue: &TaskQueue,
    mut datas: Vec<Option<Box<ClientData>>>,
    cfg: &Config,
    shard: u16,
    nworkers: usize,
) -> WorkerResult {
    let nservers = cfg.num_servers as usize;
    // Parallel runs never carry faults (forced sequential), so servers
    // are never down from a worker's point of view.
    let server_down = vec![false; nservers];
    let down_until = vec![SimTime::MAX; nservers];
    // Per-client file-size mirrors, fed by Write/DropFile tasks.
    let mut sizes: Vec<FastMap<FileId, u64>> = (0..datas.len()).map(|_| FastMap::default()).collect();
    let mut log = EventLog {
        events: Vec::new(),
        cur_id: 0,
        subseq: 0,
    };
    let mut race = cfg.racecheck.then(|| {
        crate::racecheck::install(crate::racecheck::Plane::Worker(shard));
        crate::racecheck::RaceLog::new(shard, nworkers)
    });
    let run_sub = |ci: usize,
                       sub: &SubTask,
                       datas: &mut Vec<Option<Box<ClientData>>>,
                       sizes: &mut Vec<FastMap<FileId, u64>>,
                       log: &mut EventLog| {
        match sub.kind {
            ClientTask::Write { file, new_size, .. } => {
                sizes[ci].insert(file, new_size);
            }
            ClientTask::DropFile { file } => {
                sizes[ci].remove(&file);
            }
            _ => {}
        }
        log.cur_id = sub.id;
        log.subseq = 0;
        let data = datas[ci].as_deref_mut().expect("task routed to owning worker");
        run_client_task(
            data,
            log,
            &sizes[ci],
            cfg,
            sub.now,
            &sub.kind,
            None,
            None,
            &server_down,
            &down_until,
            None,
        );
    };
    while let Some(batch) = queue.pop_batch() {
        for task in &batch {
            let ci = task.ci as usize;
            if let Some(rl) = race.as_mut() {
                rl.begin_round(task.ci);
                match &task.kind {
                    TaskKind::One(sub) => rl.observe(task.ci, sub.id, sub.now),
                    TaskKind::Round(subs) => {
                        for sub in subs {
                            rl.observe(task.ci, sub.id, sub.now);
                        }
                    }
                }
            }
            match &task.kind {
                TaskKind::One(sub) => run_sub(ci, sub, &mut datas, &mut sizes, &mut log),
                TaskKind::Round(subs) => {
                    for sub in subs {
                        run_sub(ci, sub, &mut datas, &mut sizes, &mut log);
                    }
                }
            }
        }
    }
    let race = race.map(|rl| {
        let (checks, violations, first) = crate::racecheck::uninstall();
        let mut stats = rl.into_stats();
        stats.accesses_checked += checks;
        stats.plane_violations += violations;
        if stats.first_violation.is_none() {
            stats.first_violation = first;
        }
        stats
    });
    WorkerResult {
        datas,
        events: log.events,
        race,
    }
}

impl<S: TraceSink> Cluster<S> {
    /// Executes an operation stream like [`Cluster::run`], sharding the
    /// data plane across `threads` worker threads. Output — trace
    /// bytes, counters, samples — is byte-identical to the sequential
    /// engine at any thread count.
    ///
    /// Falls back to the sequential engine when `threads <= 1` or when
    /// the sanitizer, the observer, or fault injection is active (those
    /// modes read cross-client state at arbitrary points and are not
    /// the measured fast path). The race checker
    /// ([`crate::Config::racecheck`]) deliberately does *not* force the
    /// fallback — its whole purpose is to check the parallel engine
    /// while it runs.
    pub fn run_parallel<I: IntoIterator<Item = AppOp>>(
        &mut self,
        ops: I,
        end: SimTime,
        threads: usize,
    ) {
        if threads <= 1 || self.san.is_some() || self.obs.is_some() || self.fault.is_some() {
            self.last_parallel = None;
            self.run(ops, end);
            return;
        }
        let nclients = self.clients.len();
        let nworkers = threads.min(nclients.max(1));

        // Hand each worker its clients' data planes (client ci belongs
        // to worker ci % nworkers).
        let mut shards: Vec<Vec<Option<Box<ClientData>>>> = (0..nworkers)
            .map(|_| (0..nclients).map(|_| None).collect())
            .collect();
        for ci in 0..nclients {
            shards[ci % nworkers][ci] = Some(self.clients[ci].detach_data());
        }
        let queues: Vec<Arc<TaskQueue>> = (0..nworkers)
            .map(|_| Arc::new(TaskQueue::default()))
            .collect();
        self.route = Route::Queued(Box::new(QueuedState::new(queues.clone(), nclients)));
        let cfg = self.cfg.clone();
        let ops_before = self.ops_applied();
        let fp_before = self.fastpath;

        let (mut qstate, results) = std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .into_iter()
                .zip(&queues)
                .enumerate()
                .map(|(w, (shard, queue))| {
                    let queue = Arc::clone(queue);
                    let cfg = &cfg;
                    s.spawn(move || worker_main(&queue, shard, cfg, w as u16, nworkers))
                })
                .collect();
            // The unchanged sequential control loop; data-plane work and
            // server-cache effects are queued by the routing helpers.
            self.run(ops, end);
            let Route::Queued(mut qstate) = std::mem::replace(&mut self.route, Route::Inline)
            else {
                unreachable!("run_parallel installed the queued route")
            };
            qstate.flush_all();
            qstate.close_all();
            let results: Vec<WorkerResult> = handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect();
            (qstate, results)
        });

        // Reinstall the data planes and fold the control-path counters
        // into them (exact: counter merge sums per key).
        let mut streams: Vec<Vec<SrvEvent>> = Vec::with_capacity(results.len() + 1);
        for result in results {
            for (ci, slot) in result.datas.into_iter().enumerate() {
                if let Some(data) = slot {
                    self.clients[ci].attach_data(data);
                }
            }
            if let (Some(acc), Some(worker)) = (self.race.as_deref_mut(), result.race.as_ref()) {
                acc.merge(worker);
            }
            streams.push(result.events);
        }
        for (ci, ctl) in qstate.ctl.iter().enumerate() {
            self.clients[ci].data.metrics.counters.merge(ctl);
        }
        streams.push(std::mem::take(&mut qstate.events));
        if let Some(c) = self.causal.as_deref_mut() {
            // Fold the deferred server events into the causal trace.
            // Recording is aggregation-only (order-insensitive integer
            // sums keyed by dispatch id), so folding the out-of-order
            // worker streams here yields byte-identical aggregates to
            // the inline engine's in-order recording.
            for stream in &streams {
                for ev in stream {
                    let bytes = match ev.kind {
                        SrvEventKind::Read { bytes, .. } | SrvEventKind::Write { bytes, .. } => {
                            bytes
                        }
                        SrvEventKind::DropFile { .. } | SrvEventKind::TickFlush { .. } => 0,
                    };
                    c.record_event(ev.id, ev.si as usize, bytes);
                }
            }
        }
        let fp = self.fastpath;
        self.last_parallel = Some(ParallelStats {
            workers: nworkers,
            tasks_per_worker: std::mem::take(&mut qstate.tasks),
            rounds_per_worker: std::mem::take(&mut qstate.rounds),
            srv_events: streams.iter().map(|s| s.len() as u64).sum(),
            coordinator_ops: self.ops_applied() - ops_before,
            fastpath_hits: fp.hits() - fp_before.hits(),
            fastpath_misses: fp.misses() - fp_before.misses(),
        });

        // Replay the deferred server-cache effects in exact dispatch
        // order. Different servers' caches are independent, so each
        // server replays its own merged stream on its own thread.
        let nservers = self.servers.len();
        let mut per_server: Vec<Vec<Vec<SrvEvent>>> = (0..nservers).map(|_| Vec::new()).collect();
        for stream in streams {
            let mut split: Vec<Vec<SrvEvent>> = (0..nservers).map(|_| Vec::new()).collect();
            for ev in stream {
                split[ev.si as usize].push(ev);
            }
            for (si, events) in split.into_iter().enumerate() {
                if !events.is_empty() {
                    per_server[si].push(events);
                }
            }
        }
        let checking = self.race.is_some();
        let replay_verdicts = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .servers
                .iter_mut()
                .zip(per_server)
                .map(|(server, streams)| {
                    s.spawn(move || replay_server(server, streams, checking))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay worker panicked"))
                .collect::<Vec<_>>()
        });
        if let Some(acc) = self.race.as_deref_mut() {
            for verdict in replay_verdicts.into_iter().flatten() {
                acc.merge(&verdict);
            }
        }
    }
}

/// Replays one server's merged event stream against its cache. With
/// `racecheck` set, verifies the merged keys are strictly monotonic
/// and returns the verdict.
fn replay_server(
    server: &mut Server,
    streams: Vec<Vec<SrvEvent>>,
    racecheck: bool,
) -> Option<crate::racecheck::RaceStats> {
    let mut check = racecheck.then(crate::racecheck::ReplayCheck::default);
    let events = merge_sorted_by(streams, |e: &SrvEvent| (e.id, e.subseq));
    for ev in events {
        if let Some(c) = check.as_mut() {
            c.observe(ev.si, ev.id, ev.subseq);
        }
        match ev.kind {
            SrvEventKind::Read { key, bytes } => {
                server.serve_read(key, bytes, ev.now);
            }
            SrvEventKind::Write { key, bytes } => server.accept_write(key, bytes, ev.now),
            SrvEventKind::DropFile { file } => server.drop_file_blocks(file),
            SrvEventKind::TickFlush { cutoff } => server.flush_dirty_before(cutoff),
        }
    }
    check.map(crate::racecheck::ReplayCheck::into_stats)
}
