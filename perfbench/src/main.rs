//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <sim-private|sim-broadcast|dist-pipe|dist-tcp>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a few human-readable lines, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reports the per-layer metrics from spans recorded around public calls
//! and writes the spans to `perfbench/out/`. Any failed correctness check
//! makes the exit code nonzero. See `perfbench/README.md`.

mod dist;
mod sim;
mod spans;
mod stats;

use std::process::ExitCode;

use stats::{highest_supported, percentile};

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [&str; 9] = [
    "refs_per_s",
    "setup_s",
    "peak_rss_mb",
    "sim_cycles_per_ref",
    "cmds_per_ref",
    "read_p50_vt",
    "read_p99_vt",
    "write_p50_vt",
    "write_p99_vt",
];

/// Per-layer metrics, reported by every workload with `--trace 1`, with
/// their units. A layer the workload does not run reports 0.
const PER_LAYER: [(&str, &str); 22] = [
    ("workload.gen_ns_per_ref", "ns"),
    ("core.protocol_ns_per_ref", "ns"),
    ("cache.tag_probes_per_ref", "count"),
    ("core.hit_ratio", "ratio"),
    ("core.broadcasts_per_ref", "count"),
    ("core.useless_per_ref", "count"),
    ("core.peak_queue_depth", "count"),
    ("sim.events_per_ref", "count"),
    ("sim.run_ns_per_ref", "ns"),
    ("sim.engine_ns_per_event", "ns"),
    ("sim.coordination_ns_per_ref", "ns"),
    ("wire.codec_ns_per_envelope", "ns"),
    ("node.step_ns_per_envelope", "ns"),
    ("history.check_ns_per_op", "ns"),
    ("history.states_per_op", "count"),
    ("dist.driver_ns_per_envelope", "ns"),
    ("interconnect.transport_ns_per_envelope", "ns"),
    ("dist.envelopes_per_ref", "count"),
    ("dist.retries_per_ref", "count"),
    ("dist.retransmits_per_ref", "count"),
    ("trace.unattributed_ns_per_ref", "ns"),
    ("trace.overhead_ns_per_ref", "ns"),
];

/// Exact per-reference latencies in modelled time, split by kind.
#[derive(Debug, Default)]
pub struct Latencies {
    read: Vec<u64>,
    write: Vec<u64>,
}

impl Latencies {
    /// Adds one sample.
    pub fn push(&mut self, write: bool, v: u64) {
        if write {
            self.write.push(v);
        } else {
            self.read.push(v);
        }
    }

    /// Samples held.
    pub fn count(&self) -> u64 {
        (self.read.len() + self.write.len()) as u64
    }
}

/// What one benchmark run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// References attempted.
    pub attempted: u64,
    /// References in runs that failed or were not checked.
    pub failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
    metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// Records a failed check whose run held `refs` references.
    pub fn fail(mut self, refs: u64, why: String) -> Self {
        self.failed += refs;
        self.problems.push(why);
        self
    }

    /// A human-readable line printed before the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// One metric value.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// The four exact latency percentiles, with sample counts noted.
    pub fn latencies(&mut self, lat: Latencies) {
        for (kind, mut sorted) in [("read", lat.read), ("write", lat.write)] {
            sorted.sort_unstable();
            if sorted.is_empty() {
                self.problems.push(format!("no {kind} samples"));
                continue;
            }
            let top = highest_supported(&sorted)
                .map_or("none".to_string(), |(p, v)| format!("p{} = {v}", p * 100.0));
            self.note(format!(
                "{kind} latency: {} samples, max {}, highest percentile with 10 samples beyond it: {top}",
                sorted.len(),
                sorted[sorted.len() - 1]
            ));
            self.metric(
                &format!("{kind}_p50_vt"),
                percentile(&sorted, 0.5) as f64,
                "vt",
            );
            self.metric(
                &format!("{kind}_p99_vt"),
                percentile(&sorted, 0.99) as f64,
                "vt",
            );
        }
    }

    /// `peak_rss_mb`: the high-water resident set so far. Called right
    /// after the timed repetitions, before the benchmark's own checking
    /// passes allocate.
    pub fn peak_rss(&mut self) {
        match peak_rss_mb() {
            Ok(mb) => self.metric("peak_rss_mb", mb, "MB"),
            Err(e) => self.problems.push(e),
        }
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The workloads, by their benchmark names.
enum Workload {
    Sim(sim::SimWorkload),
    Dist(dist::DistWorkload),
}

impl Workload {
    fn named(name: &str) -> Option<Self> {
        Some(match name {
            "sim-private" => Workload::Sim(sim::SimWorkload::private()),
            "sim-broadcast" => Workload::Sim(sim::SimWorkload::broadcast()),
            "dist-pipe" => Workload::Dist(dist::DistWorkload::pipe()),
            "dist-tcp" => Workload::Dist(dist::DistWorkload::tcp()),
            _ => return None,
        })
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad(&"must be in (0, 60]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::named(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload `{}` (sim-private, sim-broadcast, dist-pipe, dist-tcp)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let (seed, secs) = (args.seed, args.seconds);
    let (mut out, rec) = match (&workload, args.trace) {
        (Workload::Sim(w), false) => (sim::measure(w, seed, secs), None),
        (Workload::Dist(w), false) => (dist::measure(w, seed, secs), None),
        (Workload::Sim(w), true) => {
            let (out, rec) = sim::trace(w, seed, secs);
            (out, Some(rec))
        }
        (Workload::Dist(w), true) => {
            let (out, rec) = dist::trace(w, seed, secs);
            (out, Some(rec))
        }
    };
    if let Some(rec) = rec {
        write_spans(&args, &rec, &mut out);
    }
    report(&args, out)
}

/// Writes the spans and prints each layer's total self time.
fn write_spans(args: &Args, rec: &spans::Recorder, out: &mut Outcome) {
    let mut by_name = std::collections::BTreeMap::<&str, u64>::new();
    for (s, own) in rec.spans().iter().zip(rec.self_times()) {
        *by_name.entry(s.name).or_default() += own;
    }
    for (name, ns) in by_name {
        out.note(format!("self time {name}: {:.3} ms", ns as f64 / 1e6));
    }
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, rec.to_jsonl())) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out
            .problems
            .push(format!("writing {}: {e}", path.display())),
    }
}

/// Prints the notes, every metric the mode names, and the result line.
fn report(args: &Args, mut out: Outcome) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for n in &out.notes {
        println!("  {n}");
    }
    let expected: Vec<(&str, Option<&str>)> = if args.trace {
        PER_LAYER.iter().map(|&(n, u)| (n, Some(u))).collect()
    } else {
        END_TO_END.iter().map(|&n| (n, None)).collect()
    };
    let mut fields = Vec::new();
    let problems_before = out.problems.len();
    for (name, layer_unit) in expected {
        let found = out.metrics.iter().find(|(n, _, _)| n == name).cloned();
        let (value, unit) = match (found, layer_unit) {
            (Some((_, v, u)), _) => (v, u),
            // A layer this workload never enters did no work.
            (None, Some(u)) => (0.0, u.to_string()),
            (None, None) => {
                if problems_before == 0 {
                    out.problems.push(format!("metric {name} was not measured"));
                }
                continue;
            }
        };
        if !value.is_finite() {
            out.problems.push(format!("metric {name} is {value}"));
            continue;
        }
        println!("  {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  error_rate = {error_rate} ({} of {} references failed or unchecked)",
        out.failed, out.attempted
    );
    for p in &out.problems {
        eprintln!("perfbench: FAILED CHECK: {p}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        if correct { 0 } else { out.failed.max(1) },
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
