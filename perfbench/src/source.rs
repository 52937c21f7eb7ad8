//! The source path: surface text → parse → lower → fingerprint → check
//! → bound, the backward checker, and single-literal edits rechecked
//! through the judgment memo. This is the paper's Table 4 speed claim.

use crate::gen::{self, grade_src, Rng, Shape, Source};
use crate::trace::Tracer;
use crate::{cpu_s, for_duration, median, percentile, Metrics, Tally};
use numfuzz::core::{lower_program_in, parse_program, Ty};
use numfuzz::exact::Rational;
use numfuzz::{Analyzer, ErrorBound, Program, Typed};
use std::time::Duration;

/// Table 4 programs checked forward: one per shape at ~10^4 nodes and
/// one at 0.4–2·10^5 nodes (the serial sum is the largest).
const FORWARD: [(Shape, usize); 8] = [
    (Shape::Horner, 900),
    (Shape::Horner, 6000),
    (Shape::SerialSum, 1400),
    (Shape::SerialSum, 28000),
    (Shape::MatrixMultiply, 10),
    (Shape::MatrixMultiply, 18),
    (Shape::PolyNaive, 50),
    (Shape::PolyNaive, 110),
];

/// Backward programs: (functions, inputs per function).
const BACKWARD: [(usize, usize); 3] = [(120, 12), (60, 24), (30, 40)];

/// The programs single-literal edits are made in (~10^4 nodes each).
const EDITED: [(Shape, usize); 4] = [
    (Shape::Horner, 900),
    (Shape::SerialSum, 1400),
    (Shape::MatrixMultiply, 10),
    (Shape::PolyNaive, 50),
];

/// Shares of the path's time: forward passes, backward passes, edits.
const SPLIT: [f64; 3] = [0.45, 0.2, 0.35];

pub struct Inputs {
    forward: Vec<Source>,
    backward: Vec<Source>,
    edited: Vec<Source>,
    seed: u64,
}

pub fn setup(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let mut forward: Vec<Source> =
        FORWARD.iter().map(|&(s, n)| gen::render(s, n, &mut rng)).collect();
    rng.shuffle(&mut forward);
    let backward = BACKWARD
        .iter()
        .map(|&(count, len)| gen::render_backward(count, len, &format!("bean{count}x{len}")))
        .collect();
    let edited = EDITED.iter().map(|&(s, n)| gen::render(s, n, &mut rng)).collect();
    Inputs { forward, backward, edited, seed }
}

/// Parses and lowers `src` into the session's arena, with a span per layer.
pub fn parse(
    analyzer: &Analyzer,
    text: &str,
    tracer: &Tracer,
    req: u64,
) -> Result<Program, String> {
    tracer.count("core.parser.bytes", text.len());
    let ast = tracer.span("core.parser", req, || parse_program(text)).map_err(|e| e.to_string())?;
    let lowered = tracer
        .span("core.lower", req, || {
            lower_program_in(analyzer.arena().clone(), &ast, analyzer.signature())
        })
        .map_err(|e| e.to_string())?;
    tracer.count("core.lower.nodes", lowered.store.len());
    Ok(Program::from_parts(lowered.store, lowered.root, Vec::new()))
}

/// The grade of the monad at the end of `ty`'s arrows, as text.
fn result_grade(ty: &Ty) -> String {
    let mut t = ty;
    while let Ty::Lolli(_, cod) = t {
        t = cod;
    }
    match t {
        Ty::Monad(g, _) => g.to_string(),
        other => format!("(not monadic: {other})"),
    }
}

/// Compares a forward result with the renderer's closed forms.
fn verify_forward(
    analyzer: &Analyzer,
    src: &Source,
    typed: &Typed,
    bound: &ErrorBound,
) -> Result<(), String> {
    let want = grade_src(src.grade);
    let got = result_grade(typed.ty());
    if got != want {
        return Err(format!("grade {got}, expected {want}"));
    }
    let alpha = Rational::from_int(src.grade as i64).mul(&analyzer.rounding_unit());
    if bound.alpha != alpha {
        return Err(format!("bound {} is not {want} at the unit roundoff", bound.alpha));
    }
    for (name, g) in &src.fns {
        let report = typed.function(name).ok_or_else(|| format!("no report for {name}"))?;
        let got = result_grade(&report.inferred);
        if got != grade_src(*g) {
            return Err(format!("{name} inferred {got}, expected {}", grade_src(*g)));
        }
    }
    Ok(())
}

/// The source path's state across the rounds of a run.
pub struct Runner<'a> {
    inputs: &'a Inputs,
    analyzer: Analyzer,
    /// The session whose judgment memo serves the edits.
    session: Analyzer,
    edited: Vec<Source>,
    /// Per edited program: the seeded start of its edit positions.
    offsets: Vec<f64>,
    edits_done: usize,
    rng: Rng,
    req: u64,
    /// Per forward program: its node count and the seconds of each pass.
    forward: Vec<(usize, Vec<f64>)>,
    backward: Vec<(usize, Vec<f64>)>,
    /// Programs checked so far; the next one is this modulo the count.
    forward_done: usize,
    backward_done: usize,
    latencies: Vec<f64>,
    reused: u64,
    total: u64,
}

impl<'a> Runner<'a> {
    pub fn new(inputs: &'a Inputs, tracer: &Tracer, tally: &Tally) -> Self {
        let session = Analyzer::builder().judgment_cache_bytes(64 << 20).build();
        // The first check of each edited program fills the memo.
        for src in &inputs.edited {
            let cold = parse(&session, &src.text, tracer, 0)
                .and_then(|p| session.check_incremental(&p).map_err(|d| d.render()));
            tally.check(cold.is_ok(), || format!("{}: first check failed", src.name));
        }
        let mut rng = Rng::new(inputs.seed ^ 0xed17);
        Runner {
            inputs,
            analyzer: Analyzer::new(),
            session,
            edited: inputs.edited.clone(),
            offsets: (0..inputs.edited.len()).map(|_| rng.unit()).collect(),
            edits_done: 0,
            rng,
            req: 0,
            forward: vec![(0, Vec::new()); inputs.forward.len()],
            backward: vec![(0, Vec::new()); inputs.backward.len()],
            forward_done: 0,
            backward_done: 0,
            latencies: Vec::new(),
            reused: 0,
            total: 0,
        }
    }

    /// Forward checks, backward checks and edits for `budget`, each
    /// cycling through its programs one at a time.
    pub fn step(&mut self, budget: Duration, tracer: &Tracer, tally: &Tally) {
        for_duration(budget.mul_f64(SPLIT[0]), |_| self.forward_one(tracer, tally));
        for_duration(budget.mul_f64(SPLIT[1]), |_| self.backward_one(tracer, tally));
        for_duration(budget.mul_f64(SPLIT[2]), |_| self.edit(tracer, tally));
    }

    /// The next Table 4 program, source → bound.
    fn forward_one(&mut self, tracer: &Tracer, tally: &Tally) {
        let i = self.forward_done % self.forward.len();
        self.forward_done += 1;
        self.req += 1;
        let (analyzer, src, req) = (&self.analyzer, &self.inputs.forward[i], self.req);
        let t0 = cpu_s();
        let outcome = parse(analyzer, &src.text, tracer, req).and_then(|program| {
            tracer.span("core.cache.fingerprint", req, || program.fingerprint());
            tracer.count("core.check.nodes", program.store().len());
            let typed = tracer.span("core.check", req, || analyzer.check(&program));
            let typed = typed.map_err(|d| d.render())?;
            let bound = tracer.span("core.grade.bound", req, || analyzer.bound(&typed));
            let bound = bound.map_err(|d| d.render())?;
            Ok((program.store().len(), typed, bound))
        });
        let (nodes, times) = &mut self.forward[i];
        times.push(cpu_s() - t0);
        let verdict = outcome.and_then(|(n, typed, bound)| {
            *nodes = n;
            verify_forward(analyzer, src, &typed, &bound)
        });
        tally.check(verdict.is_ok(), || format!("{}: {}", src.name, verdict.unwrap_err()));
    }

    /// The next Bean-linear program through the backward checker.
    fn backward_one(&mut self, tracer: &Tracer, tally: &Tally) {
        let i = self.backward_done % self.backward.len();
        self.backward_done += 1;
        self.req += 1;
        let (analyzer, src, req) = (&self.analyzer, &self.inputs.backward[i], self.req);
        let t0 = cpu_s();
        let outcome = parse(analyzer, &src.text, tracer, req).and_then(|program| {
            let typed = tracer.span("core.backward", req, || analyzer.check_backward(&program));
            let typed = typed.map_err(|d| d.render())?;
            let bound = tracer.span("core.grade.bound", req, || analyzer.bound_backward(&typed));
            bound.map_err(|d| d.render())?;
            Ok((program.store().len(), typed))
        });
        let (nodes, times) = &mut self.backward[i];
        times.push(cpu_s() - t0);
        let verdict = outcome.and_then(|(n, typed)| {
            *nodes = n;
            let got: Vec<(&str, Vec<(String, String)>)> = typed
                .functions()
                .iter()
                .map(|f| {
                    let grades = f.inputs.iter().map(|(x, g)| (x.clone(), g.to_string()));
                    (f.name.as_str(), grades.collect())
                })
                .collect();
            let want: Vec<(&str, Vec<(String, String)>)> = src
                .backward
                .iter()
                .map(|(f, xs)| {
                    (f.as_str(), xs.iter().map(|(x, g)| (x.clone(), grade_src(*g))).collect())
                })
                .collect();
            if got == want {
                Ok(())
            } else {
                Err("backward grades differ from the closed form".to_string())
            }
        });
        tally.check(verdict.is_ok(), || format!("{}: {}", src.name, verdict.unwrap_err()));
    }

    /// One single-literal edit, rechecked through the judgment memo. The
    /// programs take turns, and each program's edit positions follow a
    /// golden-ratio sequence from a seeded start: a run of any length
    /// spreads its edits evenly over the program, so the spine lengths
    /// (and recheck times) of one run match another's.
    fn edit(&mut self, tracer: &Tracer, tally: &Tally) {
        let p = self.edits_done % self.edited.len();
        let turn = (self.edits_done / self.edited.len()) as f64;
        self.edits_done += 1;
        let src = &mut self.edited[p];
        let at = (self.offsets[p] + turn * 0.618_033_988_749_895).fract();
        gen::edit_literal(src, (at * src.literals.len() as f64) as usize, &mut self.rng);
        self.req += 1;
        let req = self.req;
        let session = &self.session;
        let verdict = parse(session, &src.text, tracer, req).and_then(|program| {
            let t0 = cpu_s();
            let result =
                tracer.span("core.cache.recheck", req, || session.check_incremental(&program));
            self.latencies.push((cpu_s() - t0) * 1e3);
            let (typed, counts) = result.map_err(|d| d.render())?;
            self.reused += counts.reused;
            self.total += counts.total;
            let got = result_grade(typed.ty());
            if got == grade_src(src.grade) {
                Ok(())
            } else {
                Err(format!("grade after the edit is {got}"))
            }
        });
        tally.check(verdict.is_ok(), || format!("{}: {}", src.name, verdict.unwrap_err()));
    }

    pub fn finish(&self, m: &mut Metrics) {
        m.set("check_nodes_per_s", rate(&self.forward), "1/s");
        m.samples("check_nodes_per_s", self.forward_done);
        m.set("backward_nodes_per_s", rate(&self.backward), "1/s");
        m.samples("backward_nodes_per_s", self.backward_done);
        m.set("edit_recheck_p50_ms", median(&self.latencies), "ms");
        m.set("edit_recheck_p90_ms", percentile(&self.latencies, 0.9), "ms");
        m.samples("edit_recheck_p50_ms", self.latencies.len());
        m.samples("edit_recheck_p90_ms", self.latencies.len());
        m.set(
            "core.cache.judgment_reuse_ratio",
            self.reused as f64 / self.total.max(1) as f64,
            "ratio",
        );
    }
}

/// Nodes per second of one pass over a program set, each program at its
/// median time: robust to a check that a burst of machine noise slowed.
fn rate(programs: &[(usize, Vec<f64>)]) -> f64 {
    let nodes: usize = programs.iter().map(|(n, _)| n).sum();
    let seconds: f64 = programs.iter().map(|(_, t)| median(t)).sum();
    nodes as f64 / seconds
}
