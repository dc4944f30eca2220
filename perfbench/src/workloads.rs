//! The four workloads and their pipelines.
//!
//! Each workload has an untraced pipeline, which calls the program's
//! own top-level functions (`Study::run_trace_full`, `run_counters`,
//! `run_all`) so that a change inside `Study` shows up in `wall_s`, and
//! a traced pipeline, which makes the same calls one layer down so that
//! every public layer entry point gets a span. Both produce the same
//! outputs; the digests of those outputs are the correctness checks.

use std::time::Instant;

use sdfs_core::cache_tables::{table4, table5, table6, table7, table8, table9};
use sdfs_core::report;
use sdfs_core::study::{CounterData, TraceAnalysis};
use sdfs_core::{Study, StudyConfig, StudyResults};
use sdfs_simkit::{CounterSet, SimTime};
use sdfs_spritefs::cluster::NullSink;
use sdfs_spritefs::metrics::MachineMetrics;
use sdfs_spritefs::{Cluster, FastPathStats, VecSink};
use sdfs_trace::merge::merge_vecs;
use sdfs_workload::{Generator, TraceSpec};

use crate::digest;
use crate::ratio;
use crate::spans::Tracer;

/// Simulated days in the counter campaign workload.
pub const COUNTER_DAYS: u32 = 3;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One paper-scale normal 24 h trace.
    NormalDay,
    /// One paper-scale heavy-simulation 24 h trace.
    HeavyDay,
    /// The multi-day counter campaign and Tables 4-9.
    CounterCampaign,
    /// `Study::run_all` + `render_all` on the quick configuration.
    QuickCampaign,
}

impl Workload {
    /// Every workload, in reference-file order.
    pub const ALL: [Workload; 4] = [
        Workload::NormalDay,
        Workload::HeavyDay,
        Workload::CounterCampaign,
        Workload::QuickCampaign,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NormalDay => "normal_day",
            Workload::HeavyDay => "heavy_day",
            Workload::CounterCampaign => "counter_campaign",
            Workload::QuickCampaign => "quick_campaign",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The generated inputs of one workload.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The study whose configuration holds the inputs.
    pub study: Study,
    /// The trace spec (trace workloads only).
    pub spec: Option<TraceSpec>,
    /// The seed the generator draws the inputs from.
    pub workload_seed: u64,
}

impl Inputs {
    /// Builds the inputs of `workload`: the paper campaign's first normal
    /// trace, its first heavy trace, the first days of its counter
    /// campaign, or the quick campaign. `cpus` caps the quick campaign's
    /// trace workers so that they plus the counter thread stay within
    /// the host's CPUs.
    pub fn new(workload: Workload, cpus: usize) -> Inputs {
        let mut cfg = StudyConfig::default();
        let spec = match workload {
            Workload::NormalDay => Some(cfg.traces[0]),
            Workload::HeavyDay => Some(cfg.traces[2]),
            Workload::CounterCampaign => {
                cfg.counter_days = COUNTER_DAYS;
                None
            }
            Workload::QuickCampaign => {
                cfg = StudyConfig::quick();
                cfg.parallelism = cpus.saturating_sub(1).max(1);
                None
            }
        };
        if let Some(spec) = spec {
            cfg.traces = vec![spec];
        }
        let workload_seed = spec.map_or(cfg.workload.seed, |s| s.seed);
        Inputs {
            workload,
            study: Study::new(cfg),
            spec,
            workload_seed,
        }
    }

    fn cfg(&self) -> &StudyConfig {
        self.study.config()
    }

    fn spec(&self) -> TraceSpec {
        self.spec.expect("trace workload has a spec")
    }

    /// Threads that run at once: one, or the quick campaign's trace
    /// workers plus its counter thread.
    pub fn threads_used(&self) -> usize {
        match self.workload {
            Workload::QuickCampaign => self.cfg().parallelism + 1,
            _ => self.cfg().threads,
        }
    }

    /// Application ops in the generated inputs (generated here, outside
    /// any timed region).
    pub fn count_ops(&self) -> u64 {
        let cfg = self.cfg();
        let mut n = 0;
        if self.workload != Workload::CounterCampaign {
            for &spec in &cfg.traces {
                n += Generator::new(cfg.workload.for_trace(spec))
                    .generate_day(0)
                    .len() as u64;
            }
        }
        if matches!(
            self.workload,
            Workload::CounterCampaign | Workload::QuickCampaign
        ) {
            let mut wl = cfg.workload.clone();
            wl.heavy_sim = false;
            let mut gen = Generator::new(wl);
            for day in 0..cfg.counter_days {
                n += gen.generate_day(day).len() as u64;
            }
        }
        n
    }

    /// Builds every simulated cluster the pipeline builds, with its
    /// preloaded file system, and returns the seconds it took.
    pub fn setup(&self) -> f64 {
        let cfg = self.cfg();
        let t = Instant::now();
        if self.workload != Workload::CounterCampaign {
            for &spec in &cfg.traces {
                let gen = Generator::new(cfg.workload.for_trace(spec));
                let mut cluster =
                    Cluster::new(cfg.cluster.clone(), VecSink::new(cfg.cluster.num_servers));
                cluster.preload(&gen.preload_list());
                std::hint::black_box(&cluster);
            }
        }
        if matches!(
            self.workload,
            Workload::CounterCampaign | Workload::QuickCampaign
        ) {
            let mut wl = cfg.workload.clone();
            wl.heavy_sim = false;
            let gen = Generator::new(wl);
            let mut cluster = Cluster::new(cfg.cluster.clone(), NullSink);
            cluster.preload(&gen.preload_list());
            std::hint::black_box(&cluster);
        }
        t.elapsed().as_secs_f64()
    }

    /// One untraced end-to-end run: wall seconds from inputs to
    /// rendered tables, and the outputs.
    pub fn run(&self) -> (f64, Outputs) {
        let study = &self.study;
        match self.workload {
            Workload::NormalDay | Workload::HeavyDay => {
                let spec = self.spec();
                let t = Instant::now();
                let run = study.run_trace_full(spec);
                let mut results = trace_results(study.analyze_trace(spec, &run.records));
                let text = render_trace_tables(&mut results, None);
                let wall = t.elapsed().as_secs_f64();
                let out = Outputs {
                    text,
                    records: digest::records(&run.records),
                    counters: digest::counters(&run.client_counters, &run.server_counters),
                };
                (wall, out)
            }
            Workload::CounterCampaign => {
                let t = Instant::now();
                let data = study.run_counters();
                let results = counter_results(data, None);
                let text = report::render_cache_tables(&results);
                let wall = t.elapsed().as_secs_f64();
                (wall, counter_outputs(text, &results.counters))
            }
            Workload::QuickCampaign => {
                let t = Instant::now();
                let mut results = study.run_all();
                let text = report::render_all(&mut results);
                let wall = t.elapsed().as_secs_f64();
                // The CLI prints the report with a trailing newline.
                (wall, counter_outputs(text + "\n", &results.counters))
            }
        }
    }

    /// One traced run: the same work with a span around every public
    /// layer call. Returns the outputs and the modelled work counts.
    pub fn run_traced(&self, tr: &mut Tracer) -> (Outputs, Counts) {
        match self.workload {
            Workload::NormalDay | Workload::HeavyDay => self.traced_day(tr),
            Workload::CounterCampaign => self.traced_counters(tr),
            Workload::QuickCampaign => self.traced_quick(tr),
        }
    }

    fn traced_day(&self, tr: &mut Tracer) -> (Outputs, Counts) {
        let cfg = self.cfg();
        let spec = self.spec();
        let root = tr.begin("bench", "pipeline");
        let wl = cfg.workload.for_trace(spec);
        let mut gen = tr.call("workload", "Generator::new", || Generator::new(wl));
        let preload = tr.call("workload", "Generator::preload_list", || gen.preload_list());
        let cluster_cfg = cfg.cluster.clone();
        let mut cluster = tr.call("cluster", "Cluster::new", || {
            Cluster::new(cluster_cfg, VecSink::new(cfg.cluster.num_servers))
        });
        tr.call("cluster", "Cluster::preload", || cluster.preload(&preload));
        let ops = tr.call("workload", "Generator::generate_day", || {
            gen.generate_day(0)
        });
        tr.call("cluster", "Cluster::run_parallel", || {
            cluster.run_parallel(ops, SimTime::from_secs(86_400), cfg.threads)
        });
        let fastpath = cluster.fastpath_stats();
        let (per_server, clients, servers) = tr.call("cluster", "Cluster::into_parts", || {
            let (sink, clients, servers) = cluster.into_parts();
            let clients: Vec<CounterSet> = clients
                .into_iter()
                .map(|c| c.data.metrics.counters)
                .collect();
            let servers: Vec<CounterSet> = servers.into_iter().map(|s| s.counters).collect();
            (sink.per_server, clients, servers)
        });
        let records = tr.call("merge", "merge_vecs", || merge_vecs(per_server));
        let analysis = tr.call("analyze", "Study::analyze_trace", || {
            self.study.analyze_trace(spec, &records)
        });
        let mut results = trace_results(analysis);
        let text = render_trace_tables(&mut results, Some(&mut *tr));
        tr.end(root);
        let counts = Counts::new(&clients, &servers, Some(fastpath), records.len() as u64);
        let out = Outputs {
            text,
            records: digest::records(&records),
            counters: digest::counters(&clients, &servers),
        };
        (out, counts)
    }

    /// The counter campaign one layer down, step for step as
    /// `Study::run_counters` takes it.
    fn traced_counters(&self, tr: &mut Tracer) -> (Outputs, Counts) {
        let cfg = self.cfg();
        let root = tr.begin("bench", "pipeline");
        let mut wl = cfg.workload.clone();
        wl.heavy_sim = false;
        let mut gen = tr.call("workload", "Generator::new", || Generator::new(wl));
        let preload = tr.call("workload", "Generator::preload_list", || gen.preload_list());
        let cluster_cfg = cfg.cluster.clone();
        let mut cluster = tr.call("cluster", "Cluster::new", || {
            Cluster::new(cluster_cfg, NullSink)
        });
        tr.call("cluster", "Cluster::preload", || cluster.preload(&preload));
        let mut prev: Vec<CounterSet> = (0..cfg.cluster.num_clients)
            .map(|_| CounterSet::new())
            .collect();
        let mut per_day: Vec<Vec<CounterSet>> = Vec::new();
        for day in 0..cfg.counter_days {
            let ops = tr.call("workload", "Generator::generate_day", || {
                gen.generate_day(day)
            });
            let end = SimTime::from_secs((u64::from(day) + 1) * 86_400);
            tr.call("cluster", "Cluster::run_parallel", || {
                cluster.run_parallel(ops, end, cfg.threads)
            });
            let day_rows = tr.call("cluster", "Cluster::clients", || {
                let mut rows = Vec::with_capacity(prev.len());
                for (client, before) in cluster.clients().iter().zip(prev.iter_mut()) {
                    let delta = client.metrics.counters.delta_since(before);
                    before.merge(&delta);
                    rows.push(delta);
                }
                rows
            });
            per_day.push(day_rows);
        }
        let fastpath = cluster.fastpath_stats();
        let (metrics, servers) = tr.call("cluster", "Cluster::into_parts", || {
            let (_sink, clients, servers) = cluster.into_parts();
            let metrics: Vec<MachineMetrics> =
                clients.into_iter().map(|c| c.data.metrics).collect();
            let servers: Vec<CounterSet> = servers.into_iter().map(|s| s.counters).collect();
            (metrics, servers)
        });
        let mut total = CounterSet::new();
        for m in &metrics {
            total.merge(&m.counters);
        }
        let data = CounterData {
            clients: metrics,
            per_day,
            total,
            servers,
            sanitizer: None,
            obs: None,
            racecheck: None,
        };
        let results = counter_results(data, Some(&mut *tr));
        let text = tr.call("render", "render_cache_tables", || {
            report::render_cache_tables(&results)
        });
        tr.end(root);
        let clients: Vec<&CounterSet> = results
            .counters
            .clients
            .iter()
            .map(|m| &m.counters)
            .collect();
        let counts = Counts::new(
            clients.iter().copied(),
            &results.counters.servers,
            Some(fastpath),
            0,
        );
        (counter_outputs(text, &results.counters), counts)
    }

    /// The quick campaign through the study scheduler. Run 1 is the
    /// end-to-end call pair; run 2 probes the scheduler's two halves on
    /// their own so that their overlap inside `run_all` can be derived.
    fn traced_quick(&self, tr: &mut Tracer) -> (Outputs, Counts) {
        let study = &self.study;
        let root = tr.begin("bench", "pipeline");
        let mut results = tr.call("study", "Study::run_all", || study.run_all());
        let text = tr.call("render", "render_all", || report::render_all(&mut results)) + "\n";
        tr.end(root);
        tr.next_run();
        let probe = tr.begin("bench", "scheduler_probe");
        let _ = tr.call("study", "Study::run_traces", || study.run_traces());
        let _ = tr.call("study", "Study::run_counters", || study.run_counters());
        tr.end(probe);
        // The counter chain is the one cluster whose counters `run_all`
        // returns; its sink is a `NullSink`, so it emits no records.
        let c = &results.counters;
        let counts = Counts::new(c.clients.iter().map(|m| &m.counters), &c.servers, None, 0);
        (counter_outputs(text, c), counts)
    }
}

/// The outputs a pipeline produces, as compared against the reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outputs {
    /// The rendered report.
    pub text: String,
    /// Digest of the merged record stream (0 when there is none).
    pub records: u64,
    /// Digest of the final client and server counters.
    pub counters: u64,
}

impl Outputs {
    /// Digest of the rendered report.
    pub fn tables(&self) -> u64 {
        digest::text(&self.text)
    }
}

fn counter_outputs(text: String, data: &CounterData) -> Outputs {
    Outputs {
        text,
        records: 0,
        counters: digest::counters(data.clients.iter().map(|m| &m.counters), &data.servers),
    }
}

/// Study results holding one trace analysis and no counter campaign, so
/// that the report's per-trace renderers can run on it.
fn trace_results(analysis: TraceAnalysis) -> StudyResults {
    StudyResults {
        traces: vec![analysis],
        counters: CounterData {
            clients: Vec::new(),
            per_day: Vec::new(),
            total: CounterSet::new(),
            servers: Vec::new(),
            sanitizer: None,
            obs: None,
            racecheck: None,
        },
        table4: Default::default(),
        table5: Default::default(),
        table6: Default::default(),
        table7: Default::default(),
        table8: Default::default(),
        table9: Default::default(),
    }
}

/// Runs `f`, inside a span when tracing.
fn maybe<T>(
    tr: &mut Option<&mut Tracer>,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(tr) => tr.call(layer, name, f),
        None => f(),
    }
}

/// Tables 4-9 from a counter campaign, as `Study::run_all` computes
/// them.
fn counter_results(counters: CounterData, mut tr: Option<&mut Tracer>) -> StudyResults {
    let c = &counters;
    let table4 = maybe(&mut tr, "tables", "table4", || table4(&c.clients));
    let table5 = maybe(&mut tr, "tables", "table5", || table5(&c.total, &c.per_day));
    let table6 = maybe(&mut tr, "tables", "table6", || table6(&c.total, &c.per_day));
    let table7 = maybe(&mut tr, "tables", "table7", || table7(&c.total, &c.per_day));
    let table8 = maybe(&mut tr, "tables", "table8", || table8(&c.total));
    let table9 = maybe(&mut tr, "tables", "table9", || table9(&c.total));
    StudyResults {
        traces: Vec::new(),
        counters,
        table4,
        table5,
        table6,
        table7,
        table8,
        table9,
    }
}

/// The trace-derived part of the report: Tables 1-3, the figure
/// checkpoints and Tables 10-12.
fn render_trace_tables(results: &mut StudyResults, mut tr: Option<&mut Tracer>) -> String {
    let mut s = maybe(&mut tr, "render", "render_table1", || {
        report::render_table1(&results.traces)
    });
    s += &maybe(&mut tr, "render", "render_table2", || {
        report::render_table2(&results.traces)
    });
    s += &maybe(&mut tr, "render", "render_table3", || {
        report::render_table3(&results.traces)
    });
    s += &maybe(&mut tr, "render", "render_figure_checkpoints", || {
        report::render_figure_checkpoints(&mut results.traces)
    });
    s += &maybe(&mut tr, "render", "render_consistency_tables", || {
        report::render_consistency_tables(results)
    });
    s
}

/// Modelled work of one run, read from the counter sets the cluster
/// exposes. Exact for a given seed.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Application ops in the inputs (set by the caller).
    pub ops: u64,
    /// Summed client counters.
    pub client: CounterSet,
    /// Summed server counters.
    pub server: CounterSet,
    /// Consistency fast-path decisions, when the cluster was reachable.
    pub fastpath: Option<FastPathStats>,
    /// Trace records emitted.
    pub records: u64,
}

impl Counts {
    fn new<'a>(
        clients: impl IntoIterator<Item = &'a CounterSet>,
        servers: impl IntoIterator<Item = &'a CounterSet>,
        fastpath: Option<FastPathStats>,
        records: u64,
    ) -> Counts {
        let mut client = CounterSet::new();
        clients.into_iter().for_each(|c| client.merge(c));
        let mut server = CounterSet::new();
        servers.into_iter().for_each(|s| server.merge(s));
        Counts {
            ops: 0,
            client,
            server,
            fastpath,
            records,
        }
    }

    /// Client-side block operations: reads, writes and paging reads.
    pub fn blocks(&self) -> u64 {
        let c = &self.client;
        c.get("cache.read.ops") + c.get("cache.write.ops") + c.get("cache.paging.read.ops")
    }

    /// The per-layer count metrics, in report order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let c = |key| self.client.get(key) as f64;
        let s = |key| self.server.get(key) as f64;
        let fast = self.fastpath.unwrap_or_default();
        let srv_hits = s("server.cache.read.hit");
        let mut m = vec![
            ("workload.ops", self.ops as f64, "count"),
            ("cache.read.ops", c("cache.read.ops"), "count"),
            (
                "cache.read.hit_ratio",
                ratio(
                    c("cache.read.ops") - c("cache.read.miss.ops"),
                    c("cache.read.ops"),
                ),
                "frac",
            ),
            ("cache.write.ops", c("cache.write.ops"), "count"),
            ("cache.writeback.bytes", c("cache.writeback.bytes"), "bytes"),
            (
                "server.cache.read.hit_ratio",
                ratio(srv_hits, srv_hits + s("server.cache.read.miss")),
                "frac",
            ),
            (
                "server.cache.evictions",
                s("server.cache.evictions"),
                "count",
            ),
            (
                "server.disk.read.bytes",
                s("server.disk.read.bytes"),
                "bytes",
            ),
            (
                "server.disk.write.bytes",
                s("server.disk.write.bytes"),
                "bytes",
            ),
            (
                "rpc.msgs",
                sdfs_spritefs::rpc::total_msgs(&self.client) as f64,
                "count",
            ),
        ];
        for key in [
            "rpc.read_block.msgs",
            "rpc.write_block.msgs",
            "rpc.page_in.msgs",
            "rpc.page_out.msgs",
            "replace.vm.blocks",
            "clean.delay.blocks",
            "clean.evict.blocks",
            "consist.file.opens",
            "consist.cws.opens",
        ] {
            m.push((key, c(key), "count"));
        }
        m.push((
            "fastpath.hit_ratio",
            ratio(fast.hits() as f64, (fast.hits() + fast.misses()) as f64),
            "frac",
        ));
        m.push(("trace.records", self.records as f64, "count"));
        m
    }
}
