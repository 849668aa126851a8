//! The simulator workloads: `System` from `twobit-sim` on the two-bit
//! scheme, caches starting empty on every repetition.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use twobit_core::FunctionalSystem;
use twobit_obs::{ActorId, SimEvent, Tracer};
use twobit_sim::{Report, System};
use twobit_types::{CacheId, MemRef, ProtocolKind, SystemConfig, TxnId};
use twobit_workload::{SharingModel, SharingParams, Workload};

use crate::spans::Recorder;
use crate::stats::{median, range};
use crate::{Latencies, Outcome};

/// System builds timed per repetition; `setup_s` is their median.
const BUILDS_PER_REP: usize = 20;

/// Workers for the timed `run_jobs`. With one worker per core on a shared
/// two-core host, each conservative window waits on both cores, and the
/// rate moved by a factor of two between runs; with one worker the
/// spread is what the host's own speed changes leave. The traced run still times `run_jobs` with `nproc`
/// workers for `sim.coordination_ns_per_ref`.
const TIMED_JOBS: usize = 1;

/// One simulator workload.
#[derive(Debug, Clone, Copy)]
pub struct SimWorkload {
    /// Processor/cache count.
    pub caches: usize,
    /// Reference-stream parameters.
    pub params: SharingParams,
    /// References per processor per repetition.
    pub refs_per_cpu: u64,
}

impl SimWorkload {
    /// `sim-private`: the paper's independent-processes case.
    pub fn private() -> Self {
        SimWorkload {
            caches: 8,
            params: SharingParams::low(),
            refs_per_cpu: 100_000,
        }
    }

    /// `sim-broadcast`: many caches, heavy Zipf-skewed sharing.
    pub fn broadcast() -> Self {
        SimWorkload {
            caches: 64,
            params: SharingParams {
                shared_zipf_s: Some(1.2),
                ..SharingParams::high()
            },
            refs_per_cpu: 20_000,
        }
    }

    fn config(&self) -> SystemConfig {
        SystemConfig::with_defaults(self.caches).with_protocol(ProtocolKind::TwoBit)
    }

    fn model(&self, seed: u64) -> SharingModel {
        SharingModel::new(self.params, self.caches, seed).expect("workload parameters are valid")
    }

    fn total_refs(&self) -> u64 {
        self.caches as u64 * self.refs_per_cpu
    }
}

/// The simulated statistics that must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Signature {
    refs: u64,
    events: u64,
    cycles: u64,
    tag_probes: u64,
    commands: u64,
    broadcasts: u64,
}

fn signature(r: &Report) -> Signature {
    Signature {
        refs: r.stats.total_references(),
        events: r.events,
        cycles: r.cycles,
        tag_probes: r.stats.caches.iter().map(|c| c.tag_probes.get()).sum(),
        commands: r
            .stats
            .caches
            .iter()
            .map(|c| c.commands_received.get())
            .sum(),
        broadcasts: r
            .stats
            .controllers
            .iter()
            .map(|c| c.broadcasts_sent.get())
            .sum(),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Records each reference's processor-perceived latency from the
/// simulator's own trace events: an `issue` event without a transaction
/// is a hit; one with a transaction stays open until the cache event that
/// carries the same transaction id retires it.
#[derive(Debug, Default)]
struct LatencyTap {
    hit_cycles: u64,
    open: HashMap<TxnId, (u64, bool)>,
    lat: Latencies,
}

#[derive(Debug)]
struct TapTracer(Rc<RefCell<LatencyTap>>);

impl Tracer for TapTracer {
    fn record(&mut self, ev: SimEvent) {
        if !matches!(ev.actor, ActorId::Cache(_)) {
            return;
        }
        let mut tap = self.0.borrow_mut();
        let tap = &mut *tap;
        if let Some(rest) = ev.cmd.strip_prefix("issue ") {
            let write = rest.starts_with("write");
            match ev.txn {
                None => tap.lat.push(write, tap.hit_cycles),
                Some(txn) => {
                    tap.open.insert(txn, (ev.t, write));
                }
            }
        } else if let Some((start, write)) = ev.txn.and_then(|txn| tap.open.remove(&txn)) {
            tap.lat.push(write, ev.t - start + tap.hit_cycles);
        }
    }
}

/// One single-threaded run with the latency tap installed.
fn latency_pass(w: &SimWorkload, seed: u64) -> Result<(Report, Latencies), String> {
    let cfg = w.config();
    let tap = Rc::new(RefCell::new(LatencyTap {
        hit_cycles: cfg.latency.cache_hit,
        ..LatencyTap::default()
    }));
    let mut sys = System::build(cfg).map_err(|e| format!("build: {e}"))?;
    sys.set_tracer(Box::new(TapTracer(Rc::clone(&tap))));
    let report = sys
        .run(w.model(seed), w.refs_per_cpu)
        .map_err(|e| format!("traced run: {e}"))?;
    drop(sys);
    let tap = Rc::try_unwrap(tap)
        .expect("the system that held the tap is gone")
        .into_inner();
    if !tap.open.is_empty() {
        return Err(format!("{} transactions never retired", tap.open.len()));
    }
    Ok((report, tap.lat))
}

/// Untraced run: timed `System::build` and `System::run_jobs`
/// repetitions until `seconds` have passed, the peak resident set, then
/// one run with the latency tap for the exact latency distribution.
pub fn measure(w: &SimWorkload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let jobs = TIMED_JOBS;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut setup = Vec::new();
    let mut rates = Vec::new();
    let mut first: Option<Report> = None;
    while rates.len() < 3 || Instant::now() < deadline {
        out.attempted += w.total_refs();
        let mut sys = None;
        for _ in 0..BUILDS_PER_REP {
            let t = Instant::now();
            let built = System::build(w.config());
            setup.push(t.elapsed().as_secs_f64());
            sys = Some(built);
        }
        let mut sys = match sys.expect("at least one build") {
            Ok(s) => s,
            Err(e) => return out.fail(w.total_refs(), format!("build: {e}")),
        };
        let t = Instant::now();
        let result = sys.run_jobs(w.model(seed), w.refs_per_cpu, jobs);
        let wall = t.elapsed().as_secs_f64();
        let report = match result {
            Ok(r) => r,
            Err(e) => return out.fail(w.total_refs(), format!("run_jobs: {e}")),
        };
        if report.stats.total_references() != w.total_refs() {
            return out.fail(
                w.total_refs(),
                format!(
                    "completed {} of {} references",
                    report.stats.total_references(),
                    w.total_refs()
                ),
            );
        }
        match &first {
            Some(f) if signature(f) != signature(&report) => {
                return out.fail(
                    w.total_refs(),
                    format!(
                        "simulated statistics changed between repetitions: {:?} vs {:?}",
                        signature(f),
                        signature(&report)
                    ),
                );
            }
            Some(_) => {}
            None => first = Some(report),
        }
        rates.push(w.total_refs() as f64 / wall);
    }
    let report = first.expect("at least one repetition");
    out.peak_rss();

    // Trace events read line states through the tag store, so the tapped
    // run probes more tags; every other statistic must match.
    out.attempted += w.total_refs();
    let untapped = |r: &Report| Signature {
        tag_probes: 0,
        ..signature(r)
    };
    let lat = match latency_pass(w, seed) {
        Ok((traced, lat)) if untapped(&traced) == untapped(&report) => lat,
        Ok((traced, _)) => {
            return out.fail(
                w.total_refs(),
                format!(
                    "System::run and System::run_jobs disagree: {:?} vs {:?}",
                    signature(&traced),
                    signature(&report)
                ),
            )
        }
        Err(e) => return out.fail(w.total_refs(), e),
    };
    if lat.count() != w.total_refs() {
        return out.fail(
            w.total_refs(),
            format!(
                "latency tap saw {} of {} references",
                lat.count(),
                w.total_refs()
            ),
        );
    }

    let (lo, hi) = range(&rates);
    out.note(format!(
        "sim: {} caches, {} refs/cpu, {} repetitions at {lo:.0}..{hi:.0} refs/s, run_jobs with {jobs} workers",
        w.caches,
        w.refs_per_cpu,
        rates.len()
    ));
    out.metric("refs_per_s", median(&rates), "1/s");
    out.metric("setup_s", median(&setup), "s");
    out.metric(
        "sim_cycles_per_ref",
        report.cycles_per_reference(),
        "cycles",
    );
    out.metric("cmds_per_ref", report.commands_per_reference(), "cmds/ref");
    out.latencies(lat);
    out
}

/// The reference stream each processor consumes, interleaved round-robin.
fn generate(w: &SimWorkload, seed: u64) -> Vec<(CacheId, MemRef)> {
    let mut model = w.model(seed);
    let mut refs = Vec::with_capacity(w.total_refs() as usize);
    for _ in 0..w.refs_per_cpu {
        for cpu in CacheId::all(w.caches) {
            refs.push((cpu, model.next_ref(cpu)));
        }
    }
    refs
}

/// One pass over the layers: generation alone, the functional protocol
/// over the same references, the single-threaded event loop, and the
/// sharded engine. Spans go to `rec` when it is enabled.
fn layer_pass(
    w: &SimWorkload,
    seed: u64,
    rec: &mut Recorder,
) -> Result<(Report, Report, Duration), String> {
    let start = Instant::now();
    let root = rec.begin("run");
    let refs = rec.time("workload.gen", || generate(w, seed));
    let mut func = rec
        .time("core.build", || FunctionalSystem::new(w.config()))
        .map_err(|e| format!("functional build: {e}"))?;
    rec.time("core.protocol", || {
        refs.iter()
            .try_for_each(|&(cpu, op)| func.do_ref(cpu, op).map(drop))
    })
    .map_err(|e| format!("functional do_ref: {e}"))?;
    drop(refs);

    let mut sys = rec
        .time("sim.build", || System::build(w.config()))
        .map_err(|e| format!("build: {e}"))?;
    let single = rec
        .time("sim.run", || sys.run(w.model(seed), w.refs_per_cpu))
        .map_err(|e| format!("run: {e}"))?;
    let mut sys = rec
        .time("sim.build", || System::build(w.config()))
        .map_err(|e| format!("build: {e}"))?;
    let sharded = rec
        .time("sim.run_jobs", || {
            sys.run_jobs(w.model(seed), w.refs_per_cpu, nproc())
        })
        .map_err(|e| format!("run_jobs: {e}"))?;
    rec.end(root);
    Ok((single, sharded, start.elapsed()))
}

/// Traced run: alternating untraced and traced layer passes until
/// `seconds` have passed; per-layer figures are medians over passes.
pub fn trace(w: &SimWorkload, seed: u64, seconds: f64) -> (Outcome, Recorder) {
    let mut out = Outcome::default();
    let mut rec = Recorder::new();
    let refs = w.total_refs() as f64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rows: Vec<[f64; 6]> = Vec::new();
    let mut overhead = Vec::new();
    let mut first: Option<Report> = None;
    while rows.len() < 3 || Instant::now() < deadline {
        let mut walls = [Duration::ZERO; 2];
        let mut traced_run = 0;
        for (i, on) in [false, true].into_iter().enumerate() {
            rec.set_enabled(on);
            let run = rec.next_run();
            out.attempted += 3 * w.total_refs();
            let (single, sharded, wall) = match layer_pass(w, seed, &mut rec) {
                Ok(r) => r,
                Err(e) => return (out.fail(3 * w.total_refs(), e), rec),
            };
            if signature(&single) != signature(&sharded)
                || single.stats.total_references() != w.total_refs()
            {
                let msg = format!(
                    "System::run and System::run_jobs disagree: {:?} vs {:?}",
                    signature(&single),
                    signature(&sharded)
                );
                return (out.fail(3 * w.total_refs(), msg), rec);
            }
            if let Some(f) = &first {
                if signature(f) != signature(&single) {
                    let msg = "simulated statistics changed between passes".to_string();
                    return (out.fail(3 * w.total_refs(), msg), rec);
                }
            } else {
                first = Some(single);
            }
            walls[i] = wall;
            if on {
                traced_run = run;
            }
        }
        let own = rec.self_by_name(traced_run);
        let total = rec.total_by_name(traced_run);
        let events = first.as_ref().expect("set above").events as f64;
        let ns = |name: &str| own.get(name).copied().unwrap_or(0) as f64;
        let gen = ns("workload.gen");
        let protocol = ns("core.protocol");
        let run = ns("sim.run");
        let jobs = ns("sim.run_jobs");
        let attributed: u64 = total
            .iter()
            .filter(|(name, _)| **name != "run")
            .map(|(_, t)| t)
            .sum();
        let unattributed = total["run"].saturating_sub(attributed) as f64;
        rows.push([
            gen / refs,
            protocol / refs,
            run / refs,
            (run - gen - protocol) / events,
            (jobs - run) / refs,
            unattributed / refs,
        ]);
        overhead.push((walls[1].as_secs_f64() - walls[0].as_secs_f64()) * 1e9 / refs);
    }
    let col = |i: usize| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
    let report = first.expect("at least one pass");
    let tag_probes: u64 = report.stats.caches.iter().map(|c| c.tag_probes.get()).sum();
    out.note(format!(
        "traced passes: {} (each also run untraced)",
        rows.len()
    ));
    out.metric("workload.gen_ns_per_ref", col(0), "ns");
    out.metric("core.protocol_ns_per_ref", col(1), "ns");
    out.metric(
        "cache.tag_probes_per_ref",
        tag_probes as f64 / refs,
        "count",
    );
    out.metric("core.hit_ratio", report.hit_ratio(), "ratio");
    out.metric(
        "core.broadcasts_per_ref",
        report.broadcasts_per_reference(),
        "count",
    );
    out.metric(
        "core.useless_per_ref",
        report.useless_per_reference(),
        "count",
    );
    out.metric(
        "core.peak_queue_depth",
        report.peak_queue_depth() as f64,
        "count",
    );
    out.metric("sim.events_per_ref", report.events as f64 / refs, "count");
    out.metric("sim.run_ns_per_ref", col(2), "ns");
    out.metric("sim.engine_ns_per_event", col(3), "ns");
    out.metric("sim.coordination_ns_per_ref", col(4), "ns");
    out.metric("trace.unattributed_ns_per_ref", col(5), "ns");
    out.metric("trace.overhead_ns_per_ref", median(&overhead), "ns");
    (out, rec)
}
