//! The numeric path on the committed Table 1 corpus: `table1` rows
//! (check, bound, ranged interval bound, `validate` at the sample
//! point), the optimizer at a fixed budget, and a seeded serial fuzz
//! campaign. On programs of ~100 nodes the checker is a rounding error
//! here; evaluation, metrics, the interval engine and the optimizer do
//! the work.

use crate::gen::eps_coeff;
use crate::source::parse;
use crate::trace::Tracer;
use crate::{cpu_s, for_duration, median, percentile, Metrics, Tally};
use numfuzz::exact::{RatInterval, Rational};
use numfuzz::fuzz::{generate_case, Oracle};
use numfuzz::fuzzing::AnalyzerOracle;
use numfuzz::interp::rounding::{CheckedRounding, IdentityRounding};
use numfuzz::interp::SoundnessReport;
use numfuzz::interp::{eval, metric_for, report_for, EvalConfig};
use numfuzz::metrics::{rp::rp_to_rel_bound, Within};
use numfuzz::optimize::OptimizeConfig;
use numfuzz::serve::Json;
use numfuzz::{Analyzer, Program};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Candidates per program in the optimizer pass (seed: the optimizer's
/// default, 42). At this budget every program reaches the bounds
/// committed in `BENCH_core.json` for budget 64; one pass over the
/// corpus takes ~3.5 s on a 2-core container.
const OPTIMIZE_BUDGET: usize = 16;

/// Shares of the time left after the optimizer pass: table1 rows, fuzz cases.
const SPLIT: [f64; 2] = [0.4, 0.6];

/// One committed Table 1 benchmark and its references.
struct Bench {
    stem: String,
    src: String,
    /// The `table1` golden row: grade, typed, interval, tighter, sound.
    row: Vec<String>,
    /// Committed optimize bounds (× eps): original and optimized.
    orig_eps: f64,
    opt_eps: f64,
}

pub struct Inputs {
    benches: Vec<Bench>,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads the corpus, the masked `table1` golden, the committed optimize
/// bounds and the optimize goldens (which must agree with them).
pub fn setup(root: &Path) -> Result<Inputs, String> {
    let golden = read(&root.join("tests/golden/table1.expected"))?;
    let rows: BTreeMap<String, Vec<String>> = golden
        .lines()
        .map(|l| l.split_whitespace().map(String::from).collect::<Vec<_>>())
        .filter(|cols| cols.len() == 8 && cols[6..] == ["<ms>", "<ms>"])
        .map(|cols| (cols[0].clone(), cols[1..6].to_vec()))
        .collect();
    let core = Json::parse(&read(&root.join("BENCH_core.json"))?)?;
    let optimize = core.get("optimize").ok_or("BENCH_core.json has no `optimize`")?;
    let committed = |key: String| {
        optimize.get(&key).and_then(Json::as_f64).ok_or(format!("BENCH_core.json: no `{key}`"))
    };
    let dir = root.join("benches/table1");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "nf"))
        .collect();
    files.sort();
    let mut benches = Vec::new();
    for path in files {
        let stem = path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
        let row = rows.get(&stem).cloned().ok_or(format!("table1.expected has no row `{stem}`"))?;
        let (orig_eps, opt_eps) =
            (committed(format!("{stem}_orig_eps"))?, committed(format!("{stem}_opt_eps"))?);
        let pinned = root.join(format!("tests/golden/optimize_{stem}.expected"));
        if pinned.exists() {
            let text = read(&pinned)?;
            let grade_of = |label: &str| {
                text.lines()
                    .find_map(|l| l.trim().strip_prefix(label))
                    .and_then(|rest| rest.trim_start_matches([' ', ':']).split_whitespace().next())
                    .and_then(eps_coeff)
            };
            if grade_of("original") != Some(orig_eps) || grade_of("optimized") != Some(opt_eps) {
                return Err(format!("{}: disagrees with BENCH_core.json", pinned.display()));
            }
        }
        benches.push(Bench { src: read(&path)?, stem, row, orig_eps, opt_eps });
    }
    if benches.is_empty() {
        return Err(format!("no .nf files under {}", dir.display()));
    }
    Ok(Inputs { benches })
}

fn rel(alpha: &Rational) -> String {
    rp_to_rel_bound(alpha).map_or("inf".into(), |r| r.to_sci_string(3))
}

/// One `table1` row, the calls the `numfuzz table1` row makes, with a
/// span per layer. Returns the golden columns, the parsed program and the
/// sample point's soundness report.
fn table1_row(
    analyzer: &Analyzer,
    b: &Bench,
    tracer: &Tracer,
    req: u64,
) -> Result<(Vec<String>, Program, SoundnessReport), String> {
    let program: Program = parse(analyzer, &b.src, tracer, req)?;
    tracer.count("core.check.nodes", program.store().len());
    let typed =
        tracer.span("core.check", req, || analyzer.check(&program)).map_err(|d| d.render())?;
    let bound =
        tracer.span("core.grade.bound", req, || analyzer.bound(&typed)).map_err(|d| d.render())?;

    // The ranged interval bound of the principal function over the
    // Section 6.2 input box, one interval per curried parameter.
    let report = typed.function(&b.stem).ok_or(format!("no function `{}`", b.stem))?;
    let mut arity = 0;
    let mut ty = &report.assigned;
    while let numfuzz::core::Ty::Lolli(_, cod) = ty {
        arity += 1;
        ty = cod;
    }
    let range = RatInterval::new(Rational::ratio(1, 10), Rational::ratio(1000, 1));
    let ranged = tracer
        .span("bounds", req, || analyzer.bound_interval_fn(&program, &b.stem, &vec![range; arity]))
        .map_err(|d| d.render())?;

    // The committed sample point under both semantics, judged against
    // the typed bound and against the point interval bound.
    let verdict = tracer
        .span("interp.validate", req, || analyzer.validate(&program, &numfuzz::Inputs::none()))
        .map_err(|d| d.render())?;
    let point =
        tracer.span("bounds", req, || analyzer.bound_interval(&program)).map_err(|d| d.render())?;
    let interval_holds = match &verdict.fp {
        None => true,
        Some(fp) => {
            let oracle = point.oracle_bound().map_err(|e| e.to_string())?;
            tracer.span("metrics.within", req, || {
                metric_for(analyzer.signature().instantiation()).within(&verdict.ideal, fp, &oracle)
            }) == Within::Yes
        }
    };
    let tighter = match bound.alpha.cmp(ranged.bound()) {
        std::cmp::Ordering::Less => "typed",
        std::cmp::Ordering::Greater => "interval",
        std::cmp::Ordering::Equal => "tie",
    };
    let sound = if verdict.holds() && interval_holds { "ok" } else { "FAIL" };
    let columns = vec![
        bound.grade.to_string(),
        rel(&bound.alpha),
        rel(ranged.bound()),
        tighter.to_string(),
        sound.to_string(),
    ];
    Ok((columns, program, verdict))
}

/// The parts of `Analyzer::validate`, each in its own span: `eval` under
/// the ideal and the floating-point semantics, `report_for`, and the
/// display distance `report_for` computes inside. Run outside the timed
/// row, in traced rounds only, to split the row's `interp.validate` time.
fn validate_split(
    analyzer: &Analyzer,
    program: &Program,
    report: &SoundnessReport,
    tracer: &Tracer,
    req: u64,
    tally: &Tally,
) {
    let inst = analyzer.signature().instantiation();
    let config = EvalConfig { instantiation: inst, ..EvalConfig::default() };
    let ideal = tracer.span("interp.ideal_eval", req, || {
        eval(program.store(), program.root(), &mut IdentityRounding, config, &[])
    });
    let mut fp_rounding = CheckedRounding { format: analyzer.format(), mode: analyzer.mode() };
    let fp = tracer.span("interp.fp_eval", req, || {
        eval(program.store(), program.root(), &mut fp_rounding, config, &[])
    });
    let (Ok(ideal), Ok(fp)) = (ideal, fp) else {
        return tally.check(false, || "table1: eval failed outside validate".into());
    };
    let again = tracer.span("interp.report", req, || {
        report_for(
            inst,
            report.grade.clone(),
            report.bound.clone(),
            &ideal,
            &fp,
            Some(analyzer.format()),
        )
        .map_err(|e| e.to_string())
    });
    tally.check(again.as_ref().is_ok_and(|r| r.ideal == report.ideal && r.fp == report.fp), || {
        "table1: eval + report_for disagree with validate".into()
    });
    if let Some(fp) = &report.fp {
        let metric = metric_for(inst);
        tracer.span("metrics.distance", req, || {
            metric.distance_f64(report.ideal.hi(), fp.lo());
            metric.distance_f64(report.ideal.lo(), fp.hi())
        });
    }
}

/// The numeric path's state across the rounds of a run.
pub struct Runner<'a> {
    inputs: &'a Inputs,
    seed: u64,
    analyzer: Analyzer,
    req: u64,
    /// Programs optimized so far (one pass over the corpus per run).
    optimized: usize,
    candidates: usize,
    improved: usize,
    optimize_s: f64,
    /// Row times in ms, per corpus program.
    rows: Vec<Vec<f64>>,
    rows_done: usize,
    cases: Vec<f64>,
}

impl<'a> Runner<'a> {
    pub fn new(inputs: &'a Inputs, seed: u64) -> Self {
        Runner {
            inputs,
            seed,
            analyzer: Analyzer::new(),
            req: 1 << 32,
            optimized: 0,
            candidates: 0,
            improved: 0,
            optimize_s: 0.0,
            rows: vec![Vec::new(); inputs.benches.len()],
            rows_done: 0,
            cases: Vec::new(),
        }
    }

    /// Round `round` of `rounds`: its share of the optimizer pass, then
    /// table1 rows and fuzz cases for the rest of `budget`.
    pub fn step(
        &mut self,
        budget: Duration,
        round: usize,
        rounds: usize,
        tracer: &Tracer,
        tally: &Tally,
    ) {
        let t0 = Instant::now();
        let quota = (round + 1) * self.inputs.benches.len() / rounds;
        while self.optimized < quota {
            self.optimize(self.optimized, tracer, tally);
            self.optimized += 1;
        }
        let budget = budget.saturating_sub(t0.elapsed());
        for_duration(budget.mul_f64(SPLIT[0]), |_| self.table1_row(tracer, tally));
        // `table1_pass_ms` needs every program's row at least once, even
        // in a run too short to get round the corpus in its own time.
        while self.rows_done < self.rows.len() {
            self.table1_row(tracer, tally);
        }
        for_duration(budget.mul_f64(SPLIT[1]), |_| self.fuzz_case(tracer, tally));
    }

    /// One program through the optimizer at the committed seed: a fixed
    /// amount of work per run, so the rate compares like with like.
    fn optimize(&mut self, i: usize, tracer: &Tracer, tally: &Tally) {
        let b = &self.inputs.benches[i];
        let cfg = OptimizeConfig { budget: OPTIMIZE_BUDGET, ..OptimizeConfig::default() };
        self.req += 1;
        let req = self.req;
        let outcome = parse(&self.analyzer, &b.src, tracer, req).and_then(|program| {
            let t0 = cpu_s();
            let outcome = tracer.span("optimize", req, || self.analyzer.optimize(&program, &cfg));
            self.optimize_s += cpu_s() - t0;
            outcome.map_err(|d| d.render())
        });
        let verdict = outcome.and_then(|o| {
            self.candidates += o.evaluated;
            self.improved += o.improved as usize;
            let got = (eps_coeff(&o.original.grade), eps_coeff(&o.best.grade));
            if got == (Some(b.orig_eps), Some(b.opt_eps)) {
                Ok(())
            } else {
                Err(format!("{} -> {}", o.original.grade, o.best.grade))
            }
        });
        tally.check(verdict.is_ok(), || {
            format!(
                "optimize {}: {}, committed {} -> {}",
                b.stem,
                verdict.unwrap_err(),
                b.orig_eps,
                b.opt_eps
            )
        });
    }

    /// The `table1` row of the next corpus program.
    fn table1_row(&mut self, tracer: &Tracer, tally: &Tally) {
        let i = self.rows_done % self.rows.len();
        self.rows_done += 1;
        self.req += 1;
        let (b, req) = (&self.inputs.benches[i], self.req);
        let t0 = cpu_s();
        let row = table1_row(&self.analyzer, b, tracer, req);
        self.rows[i].push((cpu_s() - t0) * 1e3);
        match row {
            Ok((columns, program, report)) => {
                tally.check(columns == b.row, || {
                    format!("table1 {}: {columns:?}, expected {:?}", b.stem, b.row)
                });
                if tracer.on() {
                    validate_split(&self.analyzer, &program, &report, tracer, req, tally);
                }
            }
            Err(e) => tally.check(false, || format!("table1 {}: {e}", b.stem)),
        }
    }

    /// The next case of a seeded serial fuzz campaign: the generator,
    /// then the full differential oracle.
    fn fuzz_case(&mut self, tracer: &Tracer, tally: &Tally) {
        let (seed, i) = (self.seed, self.cases.len());
        self.req += 1;
        let req = self.req;
        let t0 = cpu_s();
        let (case, src) = tracer.span("fuzz.gen", req, || {
            let case = generate_case(seed, i);
            let src = case.program.render();
            (case, src)
        });
        let verdict = tracer.span("fuzz.oracle", req, || {
            AnalyzerOracle.run_case(&case.plan, &src, case.expected_ideal.as_ref())
        });
        self.cases.push((cpu_s() - t0) * 1e3);
        tally.check(verdict.is_ok(), || {
            let f = verdict.unwrap_err();
            format!(
                "fuzz case {i} (seed {seed}, {}): {}: {}",
                case.plan.describe(),
                f.kind.name(),
                f.detail
            )
        });
    }

    pub fn finish(&self, m: &mut Metrics) {
        m.set("optimize_candidates_per_s", self.candidates as f64 / self.optimize_s, "1/s");
        m.samples("optimize_candidates_per_s", self.candidates);
        m.set("optimize.candidates", self.candidates as f64, "count");
        m.set("optimize.improved", self.improved as f64, "count");
        m.set("optimize.win_ratio", self.improved as f64 / self.optimized.max(1) as f64, "ratio");
        // One pass over the corpus, each program at its median row: seven
        // of the ten programs take ~20 ms a row and three under 1 ms, so a
        // median over rows or over programs falls on the edge of the slow
        // group and jumps from run to run; the sum does not.
        let pass: f64 = self.rows.iter().map(|r| median(r)).sum();
        let all: Vec<f64> = self.rows.concat();
        m.set("table1_pass_ms", pass, "ms");
        m.set("table1_row_p90_ms", percentile(&all, 0.9), "ms");
        m.samples("table1_pass_ms", all.len());
        m.samples("table1_row_p90_ms", all.len());
        // A few cases (square roots in the smallest formats) take most of
        // a campaign's time, so campaign throughput swings with the seed;
        // the per-case median and p90 do not.
        m.set("fuzz_case_p50_ms", median(&self.cases), "ms");
        m.set("fuzz_case_p90_ms", percentile(&self.cases, 0.9), "ms");
        m.samples("fuzz_case_p50_ms", self.cases.len());
        m.samples("fuzz_case_p90_ms", self.cases.len());
        m.set(
            "fuzz.cases_per_s",
            self.cases.len() as f64 / (self.cases.iter().sum::<f64>() / 1e3),
            "1/s",
        );
    }
}
