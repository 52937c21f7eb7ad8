//! Seeded input generators.
//!
//! The Table 4 shapes are rendered straight to surface text, and each
//! program's expected grade is computed here from its closed form, so the
//! checker's answer is compared against a reference that does not come
//! from the checker. (Printing generated terms with `Program::pretty` is
//! not an option: it reuses shadowed names and leaves Horner's and the
//! polynomial's `x` unbound.)

use std::fmt::Write;

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A positive decimal literal `d.dd`: always four characters, so an
    /// edit keeps every other literal's byte range.
    pub fn literal(&mut self) -> String {
        format!("{}.{}{}", 1 + self.below(9), self.below(10), 1 + self.below(9))
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A rendered program and what a correct checker must say about it.
#[derive(Clone)]
pub struct Source {
    pub name: String,
    pub text: String,
    /// Byte ranges of the numeric literals a single-literal edit may
    /// rewrite (literals only; grades and box annotations are not edited).
    pub literals: Vec<(usize, usize)>,
    /// The forward grade coefficient of the program (× `eps`).
    pub grade: u64,
    /// For each function, the grade coefficient its body must infer.
    pub fns: Vec<(String, u64)>,
    /// Backward programs: for each function, its per-input grade
    /// coefficients in parameter order.
    pub backward: Vec<(String, Vec<(String, u64)>)>,
}

/// The shapes of the paper's Table 4.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    Horner,
    SerialSum,
    MatrixMultiply,
    PolyNaive,
}

struct Writer {
    text: String,
    literals: Vec<(usize, usize)>,
    fns: Vec<(String, u64)>,
}

impl Writer {
    fn new() -> Self {
        Writer { text: String::new(), literals: Vec::new(), fns: Vec::new() }
    }

    fn push(&mut self, s: &str) {
        self.text.push_str(s);
    }

    fn lit(&mut self, rng: &mut Rng) {
        let start = self.text.len();
        self.text.push_str(&rng.literal());
        self.literals.push((start, self.text.len()));
    }

    fn source(self, name: String, grade: u64) -> Source {
        Source {
            name,
            text: self.text,
            literals: self.literals,
            grade,
            fns: self.fns,
            backward: Vec::new(),
        }
    }
}

/// Grade syntax for `c·eps`, as the checker prints it (`eps`, `3*eps`).
pub fn grade_src(c: u64) -> String {
    if c == 1 {
        "eps".into()
    } else {
        format!("{c}*eps")
    }
}

/// The coefficient of a printed grade: `eps` → 1, `5/2*eps` → 2.5, `0` → 0.
pub fn eps_coeff(grade: &str) -> Option<f64> {
    let c = match grade.strip_suffix("eps") {
        Some("") => return Some(1.0),
        Some(c) => c.strip_suffix('*')?,
        None => grade,
    };
    match c.split_once('/') {
        Some((n, d)) => Some(n.parse::<f64>().ok()? / d.parse::<f64>().ok()?),
        None => c.parse().ok(),
    }
}

/// Renders one Table 4 program of size `n`.
///
/// Grades: Horner of degree `n` is `n·eps`; a serial sum of `n` terms is
/// `(n-1)·eps`; an `n×n` matrix product returns its last element at
/// `(2n-1)·eps`; the naive degree-`n` polynomial costs one rounding per
/// operation, `n(n+1)/2 + n`.
pub fn render(shape: Shape, n: usize, rng: &mut Rng) -> Source {
    let mut w = Writer::new();
    match shape {
        Shape::Horner => {
            let g = n as u64;
            let _ = writeln!(w.text, "function horner (x: ![{n}]num) : M[{}]num {{", grade_src(g));
            w.push("    let [x1] = x;\n");
            let mut acc: Option<String> = None;
            for i in 1..=n {
                let last = i == n;
                w.push(if last { "    " } else { "    let " });
                if !last {
                    let _ = write!(w.text, "a{i} = ");
                }
                w.push("rnd (add (| mul (");
                match &acc {
                    Some(a) => w.push(a),
                    None => w.lit(rng),
                }
                w.push(", x1), ");
                w.lit(rng);
                w.push(if last { " |))\n" } else { " |));\n" });
                acc = Some(format!("a{i}"));
            }
            w.fns.push(("horner".into(), g));
            w.push("}\nhorner [");
            w.lit(rng);
            let _ = writeln!(w.text, "]{{{n}}}");
            w.source(format!("horner{n}"), g)
        }
        Shape::SerialSum => {
            for i in 1..n {
                let last = i == n - 1;
                if !last {
                    let _ = write!(w.text, "let a{i} = ");
                }
                w.push("rnd (add (| ");
                if i == 1 {
                    w.lit(rng);
                } else {
                    let _ = write!(w.text, "a{}", i - 1);
                }
                w.push(", ");
                w.lit(rng);
                w.push(if last { " |))\n" } else { " |));\n" });
            }
            w.source(format!("serial_sum{n}"), n as u64 - 1)
        }
        Shape::MatrixMultiply => {
            // One zero-parameter function per element; the program returns
            // the last one. (A flat let-chain whose unused elements depend
            // on earlier binds is rejected with E0106, so each element's
            // chain gets its own scope.)
            let g = 2 * n as u64 - 1;
            for i in 0..n {
                for j in 0..n {
                    let _ = writeln!(w.text, "function e{i}_{j} : M[{}]num {{", grade_src(g));
                    for k in 0..n {
                        let _ = write!(w.text, "    let m{k} = rnd (mul (");
                        w.lit(rng);
                        w.push(", ");
                        w.lit(rng);
                        w.push("));\n");
                        if k == 0 {
                            continue;
                        }
                        let prev = if k == 1 { "m0".to_string() } else { format!("s{}", k - 1) };
                        if k < n - 1 {
                            let _ =
                                writeln!(w.text, "    let s{k} = rnd (add (| {prev}, m{k} |));");
                        } else {
                            let _ = writeln!(w.text, "    rnd (add (| {prev}, m{k} |))");
                        }
                    }
                    w.push("}\n");
                    w.fns.push((format!("e{i}_{j}"), g));
                }
            }
            let _ = writeln!(w.text, "e{}_{}", n - 1, n - 1);
            w.source(format!("matrix_multiply{n}"), g)
        }
        Shape::PolyNaive => {
            let uses = n * (n + 1) / 2;
            let g = (uses + n) as u64;
            let _ = writeln!(w.text, "function poly (x: ![{uses}]num) : M[{}]num {{", grade_src(g));
            w.push("    let [x1] = x;\n");
            for i in 1..=n {
                // p_1 = x; p_k = rnd (p_{k-1} * x); t_i = rnd (a_i * p_i).
                let mut power = "x1".to_string();
                for k in 2..=i {
                    let _ = writeln!(w.text, "    let p{i}_{k} = rnd (mul ({power}, x1));");
                    power = format!("p{i}_{k}");
                }
                let _ = write!(w.text, "    let t{i} = rnd (mul (");
                w.lit(rng);
                let _ = writeln!(w.text, ", {power}));");
            }
            for i in 1..=n {
                let last = i == n;
                w.push("    ");
                if !last {
                    let _ = write!(w.text, "let c{i} = ");
                }
                w.push("rnd (add (| ");
                if i == 1 {
                    w.lit(rng);
                } else {
                    let _ = write!(w.text, "c{}", i - 1);
                }
                let _ = write!(w.text, ", t{i} |))");
                w.push(if last { "\n" } else { ";\n" });
            }
            w.fns.push(("poly".into(), g));
            w.push("}\npoly [");
            w.lit(rng);
            let _ = writeln!(w.text, "]{{{uses}}}");
            w.source(format!("poly_naive{n}"), g)
        }
    }
}

/// Renders a definitions-only program for the backward (Bean-style)
/// mode: `count` functions, alternating serial sums of `len` inputs and
/// dot products of `len` pairs, each input consumed exactly once.
///
/// Backward grades: in a serial sum, `x0` and `x1` absorb all `len-1`
/// roundings and `x_k` (`k ≥ 2`) absorbs `len-k`; in a dot product
/// `x_i`/`y_i` absorb their own multiply plus every add after it:
/// `len` for `i ≤ 1`, `1 + len - i` after.
pub fn render_backward(count: usize, len: usize, name: &str) -> Source {
    let mut w = Writer::new();
    let mut backward = Vec::new();
    for f in 0..count {
        let fname = format!("f{f}");
        if f % 2 == 0 {
            let _ = write!(w.text, "function {fname}");
            for i in 0..len {
                let _ = write!(w.text, " (x{i}: num)");
            }
            let _ = writeln!(w.text, " : M[{}]num {{", grade_src(len as u64 - 1));
            for i in 1..len {
                let prev = if i == 1 { "x0".to_string() } else { format!("a{}", i - 1) };
                if i < len - 1 {
                    let _ = writeln!(w.text, "    let a{i} = rnd (add (| {prev}, x{i} |));");
                } else {
                    let _ = writeln!(w.text, "    rnd (add (| {prev}, x{i} |))");
                }
            }
            w.push("}\n");
            let grades = (0..len)
                .map(|i| (format!("x{i}"), if i <= 1 { len - 1 } else { len - i } as u64))
                .collect();
            w.fns.push((fname.clone(), len as u64 - 1));
            backward.push((fname, grades));
        } else {
            let _ = write!(w.text, "function {fname}");
            for i in 0..len {
                let _ = write!(w.text, " (x{i}: num) (y{i}: num)");
            }
            let _ = writeln!(w.text, " : M[{}]num {{", grade_src(2 * len as u64 - 1));
            for i in 0..len {
                let _ = writeln!(w.text, "    let p{i} = rnd (mul (x{i}, y{i}));");
                if i == 0 {
                    continue;
                }
                let prev = if i == 1 { "p0".to_string() } else { format!("a{}", i - 1) };
                if i < len - 1 {
                    let _ = writeln!(w.text, "    let a{i} = rnd (add (| {prev}, p{i} |));");
                } else {
                    let _ = writeln!(w.text, "    rnd (add (| {prev}, p{i} |))");
                }
            }
            w.push("}\n");
            let mut grades = Vec::new();
            for i in 0..len {
                let g = if i <= 1 { len } else { 1 + len - i } as u64;
                grades.push((format!("x{i}"), g));
                grades.push((format!("y{i}"), g));
            }
            w.fns.push((fname.clone(), 2 * len as u64 - 1));
            backward.push((fname, grades));
        }
    }
    let last = w.fns.last().map_or(0, |(_, g)| *g);
    let mut s = w.source(name.to_string(), last);
    s.backward = backward;
    s
}

/// Rewrites literal number `pick` of `src` in place with a new seeded
/// value. Every literal keeps its width, so the recorded byte ranges stay
/// valid across any number of edits.
pub fn edit_literal(src: &mut Source, pick: usize, rng: &mut Rng) {
    let (start, end) = src.literals[pick];
    let old = src.text[start..end].to_string();
    let mut new = rng.literal();
    while new == old {
        new = rng.literal();
    }
    src.text.replace_range(start..end, &new);
}
