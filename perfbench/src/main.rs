//! The numfuzz benchmark: one command, three workloads, every output
//! checked against an independent reference.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload typecheck_scale --seed 1 --seconds 34 --trace 0
//! ```
//!
//! Run from the repository root: the numeric workload reads the committed
//! Table 1 corpus and its references from there. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! split with `--trace 1`). See `perfbench/README.md`.

mod gen;
mod numeric;
mod service;
mod source;
mod trace;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::os::raw::{c_int, c_long};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// How many times set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 11;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    TypecheckScale,
    NumericVerify,
    ServeSession,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "typecheck_scale" => Some(Workload::TypecheckScale),
            "numeric_verify" => Some(Workload::NumericVerify),
            "serve_session" => Some(Workload::ServeSession),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::TypecheckScale => "typecheck_scale",
            Workload::NumericVerify => "numeric_verify",
            Workload::ServeSession => "serve_session",
        }
    }

    /// Share of the measured time given to the source, numeric and
    /// service paths. Every workload runs all three, so every metric
    /// has a value on every workload: each path gets the share it needs
    /// for steady figures, and the workload's own path gets the rest.
    fn shares(self) -> [f64; 3] {
        let mut shares = [0.26, 0.3, 0.26];
        let own = match self {
            Workload::TypecheckScale => 0,
            Workload::NumericVerify => 1,
            Workload::ServeSession => 2,
        };
        shares[own] += 0.18;
        shares
    }
}

/// Correctness accounting shared by every path.
#[derive(Default)]
pub struct Tally {
    attempted: Cell<u64>,
    failed: Cell<u64>,
    notes: RefCell<Vec<String>>,
}

impl Tally {
    /// Counts one checked operation; `ok == false` records a failure,
    /// described by `what` (the first few are printed to stderr).
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted.set(self.attempted.get() + 1);
        if !ok {
            self.failed.set(self.failed.get() + 1);
            let mut notes = self.notes.borrow_mut();
            if notes.len() < 20 {
                notes.push(what());
            }
        }
    }
}

/// Named metric values with units, in name order, and the number of
/// samples behind each timing (printed, not part of the result line).
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, &'static str)>, BTreeMap<&'static str, usize>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    /// Records how many samples the timing `name` is computed from.
    pub fn samples(&mut self, name: &'static str, n: usize) {
        self.1.insert(name, n);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| v.0)
    }

    fn unit(&self, name: &str) -> &'static str {
        self.0.get(name).map_or("", |v| v.1)
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number with every digit kept (`null` is never emitted: a
/// non-finite value would be a benchmark bug and is reported as such).
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

/// Nearest-rank percentile of `xs` (`0 < p <= 1`); `xs` need not be sorted.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// CPU time of the whole process so far, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`, Linux): time on a CPU summed over every
/// thread. Work timed with it is charged for every thread it uses, but
/// not for the time a shared host takes the virtual CPU away, which on
/// a small VM varies by the minute and swamps a wall-clock figure.
pub fn cpu_s() -> f64 {
    clock_s(2)
}

/// CPU time of the calling thread so far, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`, Linux).
pub fn thread_cpu_s() -> f64 {
    clock_s(3)
}

fn clock_s(clock: c_int) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Seconds as a `Duration`.
pub fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

/// Repeats `unit` until `budget` has elapsed (at least once).
pub fn for_duration(budget: Duration, mut unit: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    loop {
        unit(i);
        i += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Everything a run needs, built by set-up.
struct Inputs {
    source: source::Inputs,
    numeric: numeric::Inputs,
    service: service::Inputs,
}

impl Inputs {
    fn build(root: &Path, seed: u64) -> Result<Self, String> {
        Ok(Inputs {
            source: source::setup(seed),
            numeric: numeric::setup(root)?,
            service: service::setup(seed)?,
        })
    }
}

/// Rounds per run: every path runs in every round, so each metric is
/// sampled across the whole run rather than in one stretch of it.
const ROUNDS: usize = 10;

/// Runs the workload's three paths in rounds for `seconds` in total.
/// With several tracers the rounds alternate between them, each with
/// its own samples, so all of them see the same stretch of the run.
fn measure(
    w: Workload,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    tracers: &[Tracer],
    tally: &Tally,
) -> Vec<Metrics> {
    let [s, n, v] = w.shares().map(|share| secs(share * seconds / ROUNDS as f64));
    let mut connections = service::connect_all(&inputs.service, tally);
    let mut runners: Vec<_> = tracers
        .iter()
        .map(|tracer| {
            let source = source::Runner::new(&inputs.source, tracer, tally);
            (
                tracer,
                source,
                numeric::Runner::new(&inputs.numeric, seed),
                service::Runner::new(&inputs.service),
            )
        })
        .collect();
    let k = runners.len();
    let mut calibrations = Vec::new();
    for round in 0..ROUNDS {
        let (tracer, source, numeric, service) = &mut runners[round % k];
        calibrations.push(calibrate());
        tracer.span("workload", 0, || source.step(s, tracer, tally));
        calibrations.push(calibrate());
        tracer.span("workload", 0, || numeric.step(n, round / k, ROUNDS / k, tracer, tally));
        calibrations.push(calibrate());
        tracer.span("workload", 0, || service.step(&mut connections, v, tracer, tally));
    }
    // Host speed over the whole run: CPU-timed figures are scaled to the
    // reference speed.
    let speed = CALIBRATION_REF_MS / median(&calibrations);
    runners
        .iter()
        .map(|(tracer, source, numeric, service)| {
            let mut m = Metrics::default();
            source.finish(&mut m);
            numeric.finish(&mut m);
            service.finish(&mut connections, &mut m, tracer, tally);
            for (name, rate) in CPU_TIMED {
                let raw = m.get(name);
                m.set(name, if rate { raw / speed } else { raw * speed }, m.unit(name));
            }
            m.set("host.calibration_ms", median(&calibrations), "ms");
            m.samples("host.calibration_ms", calibrations.len());
            m
        })
        .collect()
}

/// The end-to-end metrics timed on the CPU clock, and whether each is a
/// rate (work per second) rather than a time.
const CPU_TIMED: [(&str, bool); 10] = [
    ("check_nodes_per_s", true),
    ("backward_nodes_per_s", true),
    ("edit_recheck_p50_ms", false),
    ("edit_recheck_p90_ms", false),
    ("table1_pass_ms", false),
    ("table1_row_p90_ms", false),
    ("fuzz_case_p50_ms", false),
    ("fuzz_case_p90_ms", false),
    ("optimize_candidates_per_s", true),
    ("serve_cpu_ms_per_req", false),
];

/// The median `calibrate` time on the 2-vCPU x86-64 VM the bounds in
/// `BENCHMARK.json` were set on.
const CALIBRATION_REF_MS: f64 = 12.8;

/// A fixed piece of work that calls nothing of the program under test:
/// ordered-map inserts of small heap vectors over a working set of a few
/// megabytes, the allocation and pointer chasing the checker does too.
/// Returns its CPU time in ms. A shared host's speed drifts, by up to
/// 20 % between runs a minute apart and by 1.6x within an hour, and every
/// CPU-timed figure with it; the calibration drifts alike, so the ratio
/// of the two stays put.
fn calibrate() -> f64 {
    let t0 = cpu_s();
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..30_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 1_000_000, vec![i; 4]);
    }
    let sum = map.values().fold(0u64, |a, v| a.wrapping_add(v[3]));
    std::hint::black_box(sum);
    drop(map);
    (cpu_s() - t0) * 1e3
}

/// The end-to-end metric whose traced and untraced values give the
/// tracing overhead of each workload, and whether higher is better.
fn overhead_metric(w: Workload) -> (&'static str, bool) {
    match w {
        Workload::TypecheckScale => ("check_nodes_per_s", true),
        Workload::NumericVerify => ("table1_pass_ms", false),
        Workload::ServeSession => ("serve_cpu_ms_per_req", false),
    }
}

/// Peak resident set size of this process, in MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Where the span file goes: under the build directory, which the
/// repository ignores.
fn trace_path(w: Workload, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    dir.join("perfbench").join(format!("trace-{}-{seed}.jsonl", w.name()))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let env = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"profile\": \"{profile}\", \"git\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        git_revision(&root)
    );
    println!("env: {env}");

    // Set-up is repeated and timed on the CPU clock; the inputs of the
    // last one are used.
    let mut setup_times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t0 = cpu_s();
        let built = match Inputs::build(&root, args.seed) {
            Ok(i) => i,
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e} (run from the repository root)");
                std::process::exit(2);
            }
        };
        setup_times.push(cpu_s() - t0);
        // Replacing the previous inputs stops its server.
        inputs = Some(built);
    }
    let inputs = inputs.expect("set-up ran at least once");

    let tally = Tally::default();
    let w = args.workload;
    let mut metrics = if !args.trace {
        let mut m =
            measure(w, &inputs, args.seed, args.seconds, &[Tracer::new(false)], &tally).remove(0);
        let calibration = m.get("host.calibration_ms");
        println!("host.calibration_ms: {calibration}");
        m.0.retain(|name, _| !name.contains('.'));
        // Scaled to the reference speed like the CPU-timed figures.
        m.set("setup_s", median(&setup_times) * CALIBRATION_REF_MS / calibration, "s");
        m.samples("setup_s", SETUPS);
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
        m
    } else {
        // Rounds alternate between untraced and traced: the difference on
        // the workload's headline metric is the tracing overhead.
        let tracers = [Tracer::new(false), Tracer::new(true)];
        let [untraced, traced]: [Metrics; 2] =
            measure(w, &inputs, args.seed, args.seconds, &tracers, &tally)
                .try_into()
                .unwrap_or_else(|_| unreachable!("one set of metrics per tracer"));
        let tracer = &tracers[1];
        let mut m = layer_metrics(tracer, &traced);
        let (name, higher_better) = overhead_metric(w);
        let (a, b) = (untraced.get(name), traced.get(name));
        m.set(
            "trace.overhead_ratio",
            if higher_better { a / b - 1.0 } else { b / a - 1.0 },
            "ratio",
        );
        let root_self = tracer.self_seconds().get("workload").copied().unwrap_or(0.0);
        m.set("trace.unaccounted_ratio", root_self / tracer.total_seconds("workload"), "ratio");
        let path = trace_path(w, args.seed);
        match tracer.write(&path, &format!("{{\"env\": {env}}}")) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
        }
        m
    };
    drop(inputs);

    let (attempted, failed) = (tally.attempted.get(), tally.failed.get());
    for note in tally.notes.borrow().iter() {
        eprintln!("perfbench: FAILED {note}");
    }
    if args.trace {
        metrics.set("failed_ratio", failed as f64 / attempted.max(1) as f64, "ratio");
    }
    for (k, (v, u)) in &metrics.0 {
        let n = metrics.1.get(k).map_or(String::new(), |n| format!("  (n={n})"));
        println!("{k:<36} {v:>16.6} {u}{n}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && attempted > 0,
        metrics.json()
    );
}

/// The per-layer metrics of a traced run: self time per layer from the
/// spans, ratios of the counts recorded at the same boundaries, and the
/// layer figures each path gathered while it ran.
fn layer_metrics(tracer: &Tracer, traced: &Metrics) -> Metrics {
    let own = tracer.self_seconds();
    let busy = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let count = |name: &str| tracer.count_of(name);
    let mut m = Metrics::default();
    for (name, span) in LAYER_SPANS {
        m.set(name, busy(span), "s");
    }
    for (name, (value, unit)) in &traced.0 {
        if name.contains('.') {
            m.set(name, *value, unit);
        }
    }
    m.set("core.parser.bytes_per_s", count("core.parser.bytes") / busy("core.parser"), "B/s");
    m.set("core.lower.nodes_out", count("core.lower.nodes"), "count");
    m.set("core.check.nodes_per_s", count("core.check.nodes") / busy("core.check"), "1/s");
    m.set("serve.wire_s", traced.get("serve.client_s") - busy("serve.handle"), "s");
    m.0.remove("serve.client_s");
    m
}

/// Per-layer busy-time metrics and the span names they sum.
const LAYER_SPANS: [(&str, &str); 18] = [
    ("core.parser.busy_s", "core.parser"),
    ("core.lower.busy_s", "core.lower"),
    ("core.check.busy_s", "core.check"),
    ("core.grade.bound_s", "core.grade.bound"),
    ("core.backward.busy_s", "core.backward"),
    ("core.cache.fingerprint_s", "core.cache.fingerprint"),
    ("core.cache.recheck_s", "core.cache.recheck"),
    ("interp.validate_s", "interp.validate"),
    ("interp.ideal_eval_s", "interp.ideal_eval"),
    ("interp.fp_eval_s", "interp.fp_eval"),
    ("interp.report_s", "interp.report"),
    ("metrics.within_s", "metrics.within"),
    ("metrics.distance_s", "metrics.distance"),
    ("bounds.busy_s", "bounds"),
    ("optimize.busy_s", "optimize"),
    ("fuzz.gen_s", "fuzz.gen"),
    ("fuzz.oracle_s", "fuzz.oracle"),
    ("serve.handle_s", "serve.handle"),
];
