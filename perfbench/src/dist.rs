//! The fleet workloads: `twobit_dist::run` over child processes, on the
//! two-bit scheme, with the adversarial plan's link faults and no
//! partition.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use twobit_dist::faults::FaultConfig;
use twobit_dist::node::Node;
use twobit_dist::wire::{
    envelope_from, envelope_json, request_from_line, request_line, Actor, Envelope, NodeConfig,
    Payload, Request, Response,
};
use twobit_dist::{check_history, run, Mode, RunConfig, RunReport};
use twobit_obs::json::parse;
use twobit_types::{AccessKind, MemoryToCache};

use crate::spans::Recorder;
use crate::stats::{median, range};
use crate::{Latencies, Outcome};

/// Zero-reference fleet runs timed before each repetition of the full
/// fleet; `setup_s` is the median over all of them.
const SETUP_PER_REP: usize = 25;

/// One fleet workload.
#[derive(Debug, Clone, Copy)]
pub struct DistWorkload {
    /// Nodes talk over loopback TCP instead of stdio pipes.
    pub tcp: bool,
    /// References each closed-loop client issues per repetition.
    pub refs_per_client: usize,
}

impl DistWorkload {
    /// `dist-pipe`: children on stdio pipes (pump-thread transport).
    pub fn pipe() -> Self {
        DistWorkload {
            tcp: false,
            refs_per_client: 3_000,
        }
    }

    /// `dist-tcp`: children on non-blocking loopback sockets.
    pub fn tcp() -> Self {
        DistWorkload {
            tcp: true,
            ..DistWorkload::pipe()
        }
    }

    /// The fleet: `RunConfig::quick`'s 4 caches and 2 modules, closed
    /// loop, adversarial link faults with the partition removed.
    fn config(&self, seed: u64, mode: Mode) -> RunConfig {
        let mut cfg = RunConfig::quick("two-bit", seed);
        cfg.refs_per_client = self.refs_per_client;
        let mut faults = FaultConfig::adversarial(Vec::new(), 0, 0);
        faults.partitions.clear();
        cfg.faults = faults;
        cfg.mode = mode;
        cfg
    }

    fn hosted(&self, node_bin: &Path) -> Mode {
        let node_bin = node_bin.to_path_buf();
        if self.tcp {
            Mode::Tcp { node_bin }
        } else {
            Mode::Process { node_bin }
        }
    }

    fn total_refs(&self) -> u64 {
        4 * self.refs_per_client as u64
    }
}

/// The `dist_node` binary built beside this one.
fn node_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name("dist_node");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing; build the benchmark package",
            bin.display()
        ))
    }
}

/// Runs once and checks the run: no error (the history was found
/// linearizable inside `run`), every client finished, every op checked.
fn checked_run(cfg: &RunConfig) -> Result<(RunReport, Duration), String> {
    let t = Instant::now();
    let report = run(cfg)?;
    let wall = t.elapsed();
    if report
        .per_client_refs
        .iter()
        .any(|&n| n != cfg.refs_per_client)
    {
        return Err(format!("unfinished clients: {:?}", report.per_client_refs));
    }
    if report.checker.ops != report.ops.len() || report.ops.len() != report.total_refs {
        return Err(format!(
            "{} ops recorded, {} checked, {} completed",
            report.ops.len(),
            report.checker.ops,
            report.total_refs
        ));
    }
    Ok((report, wall))
}

/// Whether a memory-to-cache command is a coherence command the paper
/// counts as received (data and permission grants are replies).
fn is_command(cmd: &MemoryToCache) -> bool {
    matches!(
        cmd,
        MemoryToCache::BroadInv { .. }
            | MemoryToCache::BroadQuery { .. }
            | MemoryToCache::Inv { .. }
            | MemoryToCache::Purge { .. }
    )
}

/// A delivery line of the merged timeline, decoded.
struct Delivery {
    line: usize,
    now: u64,
    env: Envelope,
}

fn deliveries(timeline: &[String]) -> Result<Vec<Delivery>, String> {
    let mut out = Vec::new();
    for (line, text) in timeline.iter().enumerate() {
        let j = parse(text)?;
        if let Some(env) = j.get("env") {
            out.push(Delivery {
                line,
                now: j.req_u64("t")?,
                env: envelope_from(env)?,
            });
        }
    }
    Ok(out)
}

/// Virtual time each client took to finish, averaged over clients, per
/// reference: the fleet's counterpart of simulated cycles per reference.
fn client_time_per_ref(report: &RunReport) -> f64 {
    let mut finish = vec![0u64; report.per_client_refs.len()];
    for op in &report.ops {
        finish[op.client] = finish[op.client].max(op.completed);
    }
    finish.iter().sum::<u64>() as f64 / report.total_refs as f64
}

fn latencies(report: &RunReport) -> Latencies {
    let mut lat = Latencies::default();
    for op in &report.ops {
        lat.push(op.kind == AccessKind::Write, op.completed - op.arrived);
    }
    lat
}

/// Untraced run: repetitions until `seconds` have passed, each a batch
/// of timed zero-reference fleets for `setup_s` followed by a timed run
/// of the full fleet. Spreading the set-up samples over the whole run
/// keeps their median from hanging on one stretch of host speed.
pub fn measure(w: &DistWorkload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let bin = match node_bin() {
        Ok(b) => b,
        Err(e) => return out.fail(0, e),
    };
    let empty = DistWorkload {
        refs_per_client: 0,
        ..*w
    }
    .config(seed, w.hosted(&bin));
    let cfg = w.config(seed, w.hosted(&bin));
    // One untimed fleet, so the first timed spawn does not pay for
    // loading the node binary.
    if let Err(e) = run(&empty) {
        return out.fail(0, format!("zero-reference run: {e}"));
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut setup = Vec::new();
    let mut rates = Vec::new();
    let mut first: Option<RunReport> = None;
    while rates.len() < 3 || Instant::now() < deadline {
        for _ in 0..SETUP_PER_REP {
            let t = Instant::now();
            if let Err(e) = run(&empty) {
                return out.fail(0, format!("zero-reference run: {e}"));
            }
            setup.push(t.elapsed().as_secs_f64());
        }
        out.attempted += w.total_refs();
        let (report, wall) = match checked_run(&cfg) {
            Ok(r) => r,
            Err(e) => return out.fail(w.total_refs(), e),
        };
        match &first {
            Some(f) if f.timeline != report.timeline || f.ops != report.ops => {
                return out.fail(
                    w.total_refs(),
                    "the same seed gave a different timeline".to_string(),
                );
            }
            Some(_) => {}
            None => first = Some(report),
        }
        rates.push(w.total_refs() as f64 / wall.as_secs_f64());
    }
    let report = first.expect("at least one repetition");
    out.peak_rss();
    let cmds = match deliveries(&report.timeline) {
        Ok(d) => d
            .iter()
            .filter(|d| matches!(d.env.dst, Actor::Cache(_)))
            .filter(|d| matches!(&d.env.payload, Payload::ToCache { cmd, .. } if is_command(cmd)))
            .count(),
        Err(e) => return out.fail(w.total_refs(), format!("timeline: {e}")),
    };

    let (lo, hi) = range(&rates);
    out.note(format!(
        "dist: {} mode, 4 caches + 2 modules, {} refs/client, {} repetitions at {lo:.0}..{hi:.0} refs/s, {} deliveries, {} retries, {} retransmits per run",
        if w.tcp { "tcp" } else { "process" },
        w.refs_per_client,
        rates.len(),
        report.deliveries,
        report.retries,
        report.retransmits
    ));
    out.metric("refs_per_s", median(&rates), "1/s");
    out.metric("setup_s", median(&setup), "s");
    out.metric("sim_cycles_per_ref", client_time_per_ref(&report), "cycles");
    out.metric(
        "cmds_per_ref",
        cmds as f64 / w.total_refs() as f64,
        "cmds/ref",
    );
    out.latencies(latencies(&report));
    out
}

/// Encodes and decodes each envelope the way it crosses the wire: as an
/// output inside a node's reply, and inside the driver's `Deliver`.
fn codec_pass(ds: &[Delivery]) -> Result<(), String> {
    for d in ds {
        let back = envelope_from(&parse(&envelope_json(&d.env).to_json())?)?;
        let req = Request::Deliver {
            now: d.now,
            replay: false,
            env: back,
        };
        if request_from_line(&request_line(&req))? != req {
            return Err(format!("codec round trip changed line {}", d.line));
        }
    }
    Ok(())
}

/// Steps in-process nodes through the recorded deliveries and checks
/// each reply's events against the lines the run recorded after it.
fn replay(cfg: &RunConfig, timeline: &[String], ds: &[Delivery]) -> Result<usize, String> {
    let mut nodes = BTreeMap::new();
    let roles = (0..cfg.caches)
        .map(Actor::Cache)
        .chain((0..cfg.modules).map(Actor::Module));
    for role in roles {
        let node_cfg = NodeConfig {
            role,
            scheme: cfg.scheme.clone(),
            caches: cfg.caches,
            modules: cfg.modules,
            sets: cfg.sets,
            assoc: cfg.assoc,
            block_words: cfg.block_words,
            shared_from: cfg.shared_from,
            bias_entries: cfg.bias_entries,
            tlb_entries: cfg.tlb_entries,
        };
        nodes.insert(role, Node::new(&node_cfg)?);
    }
    let mut stepped = 0;
    for d in ds {
        let Some(node) = nodes.get_mut(&d.env.dst) else {
            continue;
        };
        let resp = node.handle(&Request::Deliver {
            now: d.now,
            replay: false,
            env: d.env.clone(),
        });
        let Response::DeliverOk { events, .. } = resp else {
            return Err(format!("replay of line {}: {resp:?}", d.line));
        };
        let recorded = timeline.get(d.line + 1..d.line + 1 + events.len());
        if recorded != Some(&events[..]) {
            return Err(format!(
                "replay of line {} did not reproduce its events",
                d.line
            ));
        }
        stepped += 1;
    }
    Ok(stepped)
}

struct Pass {
    inproc: RunReport,
    deliveries: usize,
    node_steps: usize,
    wall: Duration,
}

fn layer_pass(w: &DistWorkload, seed: u64, bin: &Path, rec: &mut Recorder) -> Result<Pass, String> {
    let start = Instant::now();
    let root = rec.begin("run");
    let cfg = w.config(seed, Mode::InProc);
    let (inproc, _) = rec.time("dist.inproc", || checked_run(&cfg))?;
    rec.time("history.check", || check_history(&inproc.ops))?;
    // The benchmark's own decoding of the timeline is left untimed, so
    // it shows in the unattributed remainder.
    let ds = deliveries(&inproc.timeline)?;
    rec.time("wire.codec", || codec_pass(&ds))?;
    let node_steps = rec.time("node.step", || replay(&cfg, &inproc.timeline, &ds))?;
    let hosted_cfg = w.config(seed, w.hosted(bin));
    let (hosted, _) = rec.time("dist.hosted", || checked_run(&hosted_cfg))?;
    rec.end(root);
    if hosted.timeline != inproc.timeline {
        return Err("inproc and hosted merged timelines differ".to_string());
    }
    Ok(Pass {
        inproc,
        deliveries: ds.len(),
        node_steps,
        wall: start.elapsed(),
    })
}

/// Traced run: alternating untraced and traced layer passes until
/// `seconds` have passed; per-layer figures are medians over passes.
pub fn trace(w: &DistWorkload, seed: u64, seconds: f64) -> (Outcome, Recorder) {
    let mut out = Outcome::default();
    let mut rec = Recorder::new();
    let bin = match node_bin() {
        Ok(b) => b,
        Err(e) => return (out.fail(0, e), rec),
    };
    let refs = w.total_refs() as f64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rows: Vec<[f64; 6]> = Vec::new();
    let mut overhead = Vec::new();
    let mut first: Option<Pass> = None;
    while rows.len() < 3 || Instant::now() < deadline {
        let mut walls = [Duration::ZERO; 2];
        let mut traced_run = 0;
        for (i, on) in [false, true].into_iter().enumerate() {
            rec.set_enabled(on);
            let run = rec.next_run();
            out.attempted += 2 * w.total_refs();
            let pass = match layer_pass(w, seed, &bin, &mut rec) {
                Ok(p) => p,
                Err(e) => return (out.fail(2 * w.total_refs(), e), rec),
            };
            walls[i] = pass.wall;
            if on {
                traced_run = run;
            }
            match &first {
                Some(f) if f.inproc.timeline != pass.inproc.timeline => {
                    let msg = "the same seed gave a different timeline".to_string();
                    return (out.fail(2 * w.total_refs(), msg), rec);
                }
                Some(_) => {}
                None => first = Some(pass),
            }
        }
        let p = first.as_ref().expect("set above");
        let own = rec.self_by_name(traced_run);
        let total = rec.total_by_name(traced_run);
        let ns = |name: &str| own.get(name).copied().unwrap_or(0) as f64;
        let envs = p.deliveries as f64;
        let codec = ns("wire.codec") / envs;
        let step = ns("node.step");
        let check = ns("history.check");
        let inproc = ns("dist.inproc");
        let attributed: u64 = total
            .iter()
            .filter(|(name, _)| **name != "run")
            .map(|(_, t)| t)
            .sum();
        rows.push([
            codec,
            step / p.node_steps as f64,
            check / p.inproc.ops.len() as f64,
            (inproc - step - check) / envs,
            (ns("dist.hosted") - inproc) / envs - codec,
            total["run"].saturating_sub(attributed) as f64 / refs,
        ]);
        overhead.push((walls[1].as_secs_f64() - walls[0].as_secs_f64()) * 1e9 / refs);
    }
    let col = |i: usize| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
    let p = first.expect("at least one pass");
    let r = &p.inproc;
    out.note(format!(
        "traced passes: {} (each also run untraced); node replay reproduced all {} node steps",
        rows.len(),
        p.node_steps
    ));
    out.metric("wire.codec_ns_per_envelope", col(0), "ns");
    out.metric("node.step_ns_per_envelope", col(1), "ns");
    out.metric("history.check_ns_per_op", col(2), "ns");
    out.metric(
        "history.states_per_op",
        r.checker.states_visited as f64 / r.checker.ops as f64,
        "count",
    );
    out.metric("dist.driver_ns_per_envelope", col(3), "ns");
    out.metric("interconnect.transport_ns_per_envelope", col(4), "ns");
    out.metric(
        "dist.envelopes_per_ref",
        r.deliveries as f64 / refs,
        "count",
    );
    out.metric("dist.retries_per_ref", r.retries as f64 / refs, "count");
    out.metric(
        "dist.retransmits_per_ref",
        r.retransmits as f64 / refs,
        "count",
    );
    out.metric("trace.unattributed_ns_per_ref", col(5), "ns");
    out.metric("trace.overhead_ns_per_ref", median(&overhead), "ns");
    (out, rec)
}
