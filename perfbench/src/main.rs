//! `perfbench`: the SDFS reproduction's regression benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--rustc V] [--commit C]
//! perfbench reference          # print the reference digests of every workload
//! ```
//!
//! Run it from the repository root (the quick campaign's oracle is read
//! from `scripts/golden/`). The last line of standard output is the
//! result object; the line before it and the file written under
//! `.bench_out/` carry the run's stamp, every per-repetition value and,
//! with `--trace 1`, every recorded span.

mod digest;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::time::Instant;

use spans::Tracer;
use workloads::{Counts, Inputs, Outputs, Workload};

/// Setups timed before each end-to-end repetition; `setup_s` is the
/// median of all of them. Spreading them over the run, rather than
/// timing them in one burst, lets them see the same host load as the
/// repetitions do.
const SETUPS_PER_REP: usize = 25;
/// Fewest untraced repetitions per run, whatever `--seconds` says; a
/// traced run pairs each untraced repetition with a traced one and
/// needs only one pair.
const MIN_REPS: usize = 2;
/// Where the quick campaign's golden report lives, from the repo root.
const GOLDEN: &str = "scripts/golden/quick_all_stdout.txt";
/// Where each run's stamp, result and spans are written.
const OUT_DIR: &str = ".bench_out";
/// Reference digests taken on the commit that introduced the benchmark.
const REFERENCE: &str = include_str!("../reference.txt");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rustc: String,
    commit: String,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {{normal_day|heavy_day|counter_campaign|quick_campaign}} \
         --seed N --seconds S --trace 0|1 [--rustc V] [--commit C]\n       \
         perfbench reference"
    );
    std::process::exit(2);
}

fn bad<T>(flag: &str, value: &str) -> T {
    usage(&format!("bad value `{value}` for `{flag}`"))
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: Workload::NormalDay,
        seed: 0,
        seconds: 10.0,
        trace: false,
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("`{flag}` needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).unwrap_or_else(|| bad(flag, value)))
            }
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad(flag, value)),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| bad(flag, value));
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    bad::<()>(flag, value);
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(flag, value),
                }
            }
            "--rustc" => args.rustc = value.clone(),
            "--commit" => args.commit = value.clone(),
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    args.workload = workload.unwrap_or_else(|| usage("`--workload` is required"));
    args
}

/// One line of `reference.txt`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RefEntry {
    ops: u64,
    tables: u64,
    records: u64,
    counters: u64,
}

impl RefEntry {
    fn format(w: Workload, ops: u64, out: &Outputs) -> String {
        format!(
            "{} {ops} {:016x} {:016x} {:016x}",
            w.name(),
            out.tables(),
            out.records,
            out.counters
        )
    }
}

fn lookup_reference(w: Workload) -> Option<RefEntry> {
    REFERENCE.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 5 || f[0] != w.name() {
            return None;
        }
        let hex = |s: &str| u64::from_str_radix(s, 16).ok();
        Some(RefEntry {
            ops: f[1].parse().ok()?,
            tables: hex(f[2])?,
            records: hex(f[3])?,
            counters: hex(f[4])?,
        })
    })
}

/// Correctness checks: attempted, and the names of those that failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: Vec<String>,
}

impl Checks {
    fn expect(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            eprintln!("perfbench: check failed: {what}");
            self.failed.push(what.to_string());
        }
    }

    /// Compares one pipeline's outputs with the reference and, for the
    /// quick campaign, with the golden report.
    fn outputs(
        &mut self,
        label: &str,
        out: &Outputs,
        reference: Option<&RefEntry>,
        golden: Option<&[u8]>,
    ) {
        let r = reference;
        self.expect(
            &format!("{label}: tables digest"),
            r.is_some_and(|r| r.tables == out.tables()),
        );
        self.expect(
            &format!("{label}: records digest"),
            r.is_some_and(|r| r.records == out.records),
        );
        self.expect(
            &format!("{label}: counters digest"),
            r.is_some_and(|r| r.counters == out.counters),
        );
        if let Some(golden) = golden {
            self.expect(
                &format!("{label}: report equals {GOLDEN}"),
                golden == out.text.as_bytes(),
            );
        }
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Resets the process's peak resident set (`VmHWM`) to its current
/// size, so that the next read covers what follows. Returns false where
/// the kernel does not allow it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set since start or the last reset, in MB
/// (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn num(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns an empty float sum's -0 into 0.
        format!("{}", v + 0.0)
    } else {
        "0".into()
    }
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| num(v)).collect();
    format!("[{}]", items.join(","))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Per-layer figures of one traced repetition.
struct LayerRep {
    /// Self seconds per layer, `bench` being the time no layer covers.
    self_s: Vec<(&'static str, f64)>,
    traced_wall: f64,
    run_traces: f64,
    run_counters: f64,
    run_all: f64,
}

impl LayerRep {
    fn layer(&self, name: &str) -> f64 {
        self.self_s
            .iter()
            .find(|r| r.0 == name)
            .map_or(0.0, |r| r.1)
    }
}

const LAYERS: [&str; 7] = [
    "workload", "cluster", "merge", "analyze", "tables", "render", "study",
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("reference") {
        print_reference();
        return;
    }
    let args = parse_args(&argv);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = args.workload;
    let inputs = Inputs::new(w, cpus);
    let reference = lookup_reference(w);
    let golden = (w == Workload::QuickCampaign).then(|| std::fs::read(GOLDEN).unwrap_or_default());
    let mut checks = Checks::default();
    if reference.is_none() {
        eprintln!("perfbench: no reference entry for {}", w.name());
    }

    let ops = inputs.count_ops();
    checks.expect("op count", reference.as_ref().is_some_and(|r| r.ops == ops));

    let start = Instant::now();
    let mut walls = Vec::new();
    let mut layer_reps: Vec<LayerRep> = Vec::new();
    let mut counts = Counts::default();
    let mut render_bytes = 0;
    let mut tracer = Tracer::new();
    let mut setups = Vec::new();
    let mut peaks = Vec::new();
    let min_reps = if args.trace { 1 } else { MIN_REPS };
    while walls.len() < min_reps || start.elapsed().as_secs_f64() < args.seconds {
        setups.extend((0..SETUPS_PER_REP).map(|_| inputs.setup()));
        let reset = reset_peak_rss();
        let (wall, out) = inputs.run();
        if reset {
            peaks.push(peak_rss_mb());
        }
        checks.outputs("untraced", &out, reference.as_ref(), golden.as_deref());
        walls.push(wall);
        if args.trace {
            let run = tracer.next_run();
            let (traced, c) = inputs.run_traced(&mut tracer);
            checks.outputs("traced", &traced, reference.as_ref(), golden.as_deref());
            checks.expect("traced report equals untraced", traced == out);
            let pipeline = tracer
                .spans()
                .iter()
                .find(|s| s.run == run && s.parent.is_none());
            layer_reps.push(LayerRep {
                self_s: tracer.self_times(run),
                traced_wall: pipeline.map_or(0.0, |s| s.secs()),
                run_traces: tracer.total(run + 1, "Study::run_traces"),
                run_counters: tracer.total(run + 1, "Study::run_counters"),
                run_all: tracer.total(run, "Study::run_all"),
            });
            if w == Workload::QuickCampaign {
                tracer.next_run();
            }
            counts = Counts { ops, ..c };
            render_bytes = traced.text.len();
        }
    }
    // Per-repetition peaks where the kernel allows the reset; otherwise
    // the whole run's peak.
    let rss = if peaks.len() == walls.len() {
        median(&peaks)
    } else {
        peak_rss_mb()
    };
    let failed = checks.failed.len() as u64;
    let wall = median(&walls);

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let med =
            |f: &dyn Fn(&LayerRep) -> f64| median(&layer_reps.iter().map(f).collect::<Vec<_>>());
        let cluster_s = med(&|r| r.layer("cluster"));
        let merge_s = med(&|r| r.layer("merge"));
        let analyze_s = med(&|r| r.layer("analyze"));
        let traced_wall = med(&|r| r.traced_wall);
        let other_s = med(&|r| r.layer("bench"));
        let records = counts.records as f64;
        let mut m = vec![
            ("workload.gen_s", med(&|r| r.layer("workload")), "s"),
            ("cluster.run_s", cluster_s, "s"),
            (
                "cluster.ns_per_op",
                ratio(cluster_s * 1e9, counts.ops as f64),
                "ns",
            ),
            (
                "cluster.ns_per_block",
                ratio(cluster_s * 1e9, counts.blocks() as f64),
                "ns",
            ),
            ("merge.run_s", merge_s, "s"),
            ("merge.records_per_s", ratio(records, merge_s), "1/s"),
            ("analyze.run_s", analyze_s, "s"),
            ("analyze.records_per_s", ratio(records, analyze_s), "1/s"),
            ("tables.run_s", med(&|r| r.layer("tables")), "s"),
            ("render.run_s", med(&|r| r.layer("render")), "s"),
            ("render.bytes", render_bytes as f64, "bytes"),
            ("study.run_all_s", med(&|r| r.run_all), "s"),
            ("study.run_traces_s", med(&|r| r.run_traces), "s"),
            ("study.run_counters_s", med(&|r| r.run_counters), "s"),
            (
                "study.overlap",
                med(&|r| ratio(r.run_traces + r.run_counters, r.run_all)),
                "frac",
            ),
            ("other.run_s", other_s, "s"),
            ("other.frac", ratio(other_s, traced_wall), "frac"),
            ("bench.traced_wall_s", traced_wall, "s"),
            (
                "bench.trace_overhead_frac",
                ratio(traced_wall, wall) - 1.0,
                "frac",
            ),
        ];
        m.extend(counts.metrics());
        m
    } else {
        vec![
            ("wall_s", wall, "s"),
            ("ops_per_s", ratio(ops as f64, wall), "1/s"),
            ("setup_s", median(&setups), "s"),
            ("peak_rss_mb", rss, "MB"),
            (
                "pass_frac",
                ratio((checks.attempted - failed) as f64, checks.attempted as f64),
                "frac",
            ),
        ]
    };

    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                num(*v),
                json_str(u)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        checks.attempted,
        metrics_json.join(", ")
    );

    let layer_rows: Vec<String> = LAYERS
        .iter()
        .chain(["bench"].iter())
        .map(|l| {
            let v: Vec<f64> = layer_reps.iter().map(|r| r.layer(l)).collect();
            format!("{}: {}", json_str(l), list(&v))
        })
        .collect();
    let failed_json: Vec<String> = checks.failed.iter().map(|f| json_str(f)).collect();
    let stamp = format!(
        "{{\"workload\": {}, \"seed\": {}, \"workload_seed\": {}, \"host_cpus\": {cpus}, \"threads_used\": {}, \"rustc\": {}, \
         \"commit\": {}, \"seconds\": {}, \"trace\": {}, \"ops\": {ops}, \"runs\": {}, \
         \"wall_s\": {}, \"setup_s\": {}, \"peak_rss_mb\": {}, \"traced_wall_s\": {}, \
         \"layer_self_s\": {{{}}}, \"failed_checks\": [{}]}}",
        json_str(w.name()),
        args.seed,
        inputs.workload_seed,
        inputs.threads_used(),
        json_str(&args.rustc),
        json_str(&args.commit),
        num(args.seconds),
        u8::from(args.trace),
        walls.len(),
        list(&walls),
        list(&setups),
        list(&peaks),
        list(&layer_reps.iter().map(|r| r.traced_wall).collect::<Vec<_>>()),
        layer_rows.join(", "),
        failed_json.join(", "),
    );
    write_run_file(&args, &stamp, &result, args.trace.then(|| tracer.to_json()));
    println!("{{\"stamp\": {stamp}}}");
    println!("{result}");
}

/// Writes the stamp, the result and any spans to one file per run.
fn write_run_file(args: &Args, stamp: &str, result: &str, spans: Option<String>) {
    let name = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let body = format!(
        "{{\"stamp\": {stamp},\n\"result\": {result},\n\"spans\": {}}}\n",
        spans.unwrap_or_else(|| "[]".into())
    );
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&name, body));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {name}: {e}");
    }
}

/// Prints `reference.txt`: one line per workload, from its untraced
/// pipeline.
fn print_reference() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# workload ops tables_fnv records_fnv counters_fnv");
    for w in Workload::ALL {
        let inputs = Inputs::new(w, cpus);
        let (_, out) = inputs.run();
        println!("{}", RefEntry::format(w, inputs.count_ops(), &out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn reference_covers_every_workload() {
        for w in Workload::ALL {
            assert!(lookup_reference(w).is_some(), "{}", w.name());
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    /// The benchmark keeps to the determinism lint the workspace applies
    /// to its bench code: scoped threads only, no default hasher, no OS
    /// entropy.
    #[test]
    fn sources_pass_the_workspace_lint() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for entry in std::fs::read_dir(&dir).expect("read src") {
            let path = entry.expect("dir entry").path();
            let source = std::fs::read_to_string(&path).expect("read source");
            let rel = format!(
                "perfbench/src/{}",
                path.file_name().expect("name").to_string_lossy()
            );
            let violations = sdfs_lint::lint_str("bench", &rel, &source);
            assert!(violations.is_empty(), "{rel}: {violations:?}");
        }
    }
}
