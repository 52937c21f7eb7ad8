//! The service path: `serve_listener` on loopback, driven by a seeded
//! stream of fuzz-generated programs over two connections — first as a
//! closed loop (throughput), then as an open loop at a fixed rate
//! (latency from each request's due time). The same checker runs here
//! behind the result cache, the judgment memo and the wire.

use crate::gen::{eps_coeff, Rng};
use crate::trace::Tracer;
use crate::{cpu_s, median, percentile, thread_cpu_s, Metrics, Tally};
use numfuzz::core::Instantiation;
use numfuzz::fuzz::ast::RetTy;
use numfuzz::fuzz::generate_case;
use numfuzz::serve::{batch_entry, bound_report, check_report, serve_listener, Json, Service};
use numfuzz::Analyzer;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Distinct programs requests draw from, each equally likely: as many as
/// the repository's load generator (`src/loadgen.rs`) draws from (three
/// templates times sixteen constants).
const POOL: usize = 48;
/// Load comes from one thread over this many connections.
const CONNECTIONS: usize = 2;
/// Closed-loop callers, four pipelined on each connection: a saturation
/// setting, not a model of users (no measured traffic exists). It keeps
/// a request queued for each of the server's two workers, so the rate
/// measures the server, not its event loop's 1 ms idle park.
const CALLERS: usize = 8;
/// Closed-loop capacity of this traffic, requests per second: the
/// per-layer `serve.req_per_s` measured 2255-3248 (median ~2460) over
/// four 34-second traced runs on a 2-vCPU x86-64 VM.
const CLOSED_CAPACITY: f64 = 2400.0;
/// Open-loop arrival rate over all connections: a fifth of the closed
/// loop's capacity, a load the server keeps up with even when the host
/// is slow, so latency is service and wire time plus short queues
/// rather than a growing backlog.
const OPEN_RATE: f64 = 0.2 * CLOSED_CAPACITY;
/// Shares of the path's time: closed loop, open loop.
const SPLIT: [f64; 2] = [0.4, 0.6];

/// A pool program and the replies a correct server gives for it.
struct Entry {
    src: String,
    /// Byte ranges of numeric literals (not grades or annotations).
    literals: Vec<(usize, usize)>,
    check: String,
    bound: String,
    batch_line: String,
    /// Declared result grade coefficient (× eps) of each function the
    /// generator typed as `M[c*eps]num`.
    declared: Vec<(String, f64)>,
}

struct Server {
    addr: SocketAddr,
    thread: Mutex<Option<JoinHandle<std::io::Result<()>>>>,
}

pub struct Inputs {
    pool: Vec<Entry>,
    seed: u64,
    server: Server,
}

fn session() -> Analyzer {
    Analyzer::builder().cache_bytes(64 << 20).judgment_cache_bytes(64 << 20).build()
}

pub fn setup(seed: u64) -> Result<Inputs, String> {
    let reference = Analyzer::new();
    let mut pool = Vec::new();
    let mut index = 0;
    while pool.len() < POOL {
        let case = generate_case(seed ^ 0x5e55_1011, index);
        index += 1;
        if case.plan.instantiation != Instantiation::RelativePrecision {
            continue;
        }
        let src = case.program.render();
        if !(300..=4000).contains(&src.len()) {
            continue;
        }
        let program = reference.parse(&src).map_err(|d| d.render())?;
        let typed = reference.check(&program).map_err(|d| d.render())?;
        let declared = case
            .program
            .fns
            .iter()
            .filter_map(|f| match &f.ret {
                RetTy::MonadNum(c) => Some((f.name.clone(), c.to_f64())),
                RetTy::Num => None,
            })
            .collect();
        let name = format!("p{}.nf", pool.len());
        pool.push(Entry {
            literals: literal_spans(&src),
            check: check_report(&typed),
            bound: bound_report(&reference, &typed),
            batch_line: batch_entry(&reference, &name, &src).0,
            src,
            declared,
        });
    }

    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get()).min(CONNECTIONS);
    let service = Arc::new(Service::new(session(), jobs));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let thread = std::thread::spawn(move || serve_listener(&service, listener));
    Ok(Inputs { pool, seed, server: Server { addr, thread: Mutex::new(Some(thread)) } })
}

impl Server {
    /// Asks the server to shut down and waits for its thread.
    fn stop(&self) {
        let Some(thread) = self.thread.lock().ok().and_then(|mut t| t.take()) else { return };
        if let Ok(mut stream) = TcpStream::connect(self.addr) {
            let _ = stream.write_all(b"{\"op\":\"shutdown\"}\n");
            let _ = BufReader::new(stream).read_line(&mut String::new());
        }
        match thread.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("perfbench: server ended with {e}"),
            Err(_) => eprintln!("perfbench: server thread panicked"),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Byte ranges of the numeric literals of a rendered fuzz program:
/// digits in expression position, skipping type annotations (`M[..]`,
/// `![..]`) and box grades (`]{..}`), whose digits are grades.
fn literal_spans(src: &str) -> Vec<(usize, usize)> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if (c == b'M' || c == b'!') && b.get(i + 1) == Some(&b'[') {
            i = src[i..].find(']').map_or(b.len(), |j| i + j + 1);
        } else if c == b']' && b.get(i + 1) == Some(&b'{') {
            i = src[i..].find('}').map_or(b.len(), |j| i + j + 1);
        } else if c.is_ascii_digit()
            && (i == 0
                || !(b[i - 1].is_ascii_alphanumeric() || matches!(b[i - 1], b'_' | b'.' | b'-')))
        {
            let start = i;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'.') {
                i += 1;
            }
            out.push((start, i));
        } else {
            i += 1;
        }
    }
    out
}

/// What a correct reply to one request looks like.
enum Expect {
    Check(usize),
    Bound(usize),
    Edit(usize),
    Batch(Vec<usize>),
    IllTyped,
}

/// One connection's seeded request stream.
struct Stream<'a> {
    pool: &'a [Entry],
    rng: Rng,
    conn: usize,
    next_id: u64,
}

impl<'a> Stream<'a> {
    fn new(inputs: &'a Inputs, conn: usize, phase: u64) -> Self {
        let rng = Rng::new(inputs.seed ^ (phase << 8) ^ conn as u64 ^ 0x5e7e);
        Stream { pool: &inputs.pool, rng, conn, next_id: 0 }
    }

    /// A pool program, uniformly: after the first few requests every
    /// pick is a repeat, which the result cache answers.
    fn pick(&mut self) -> usize {
        self.rng.below(self.pool.len())
    }

    /// The pool program `i` with one literal rewritten: a new program
    /// for the caches, with the same types.
    fn edited(&mut self, i: usize) -> String {
        let e = &self.pool[i];
        let mut src = e.src.clone();
        if !e.literals.is_empty() {
            let (start, end) = e.literals[self.rng.below(e.literals.len())];
            src.replace_range(start..end, &self.rng.literal());
        }
        src
    }

    /// The next request. The op mix is the one `src/loadgen.rs` documents
    /// for the repository's serve benchmark: 40 % `check`, 20 % `bound`,
    /// 20 % `edit`, 13 % `batch` of three and 7 % ill-typed `check`s.
    fn next(&mut self) -> (String, Expect) {
        self.next_id += 1;
        let roll = self.rng.below(100);
        let (op, fields, expect) = match roll {
            0..=39 => {
                let i = self.pick();
                ("check", vec![("src", Json::str(self.pool[i].src.clone()))], Expect::Check(i))
            }
            40..=59 => {
                let i = self.pick();
                ("bound", vec![("src", Json::str(self.pool[i].src.clone()))], Expect::Bound(i))
            }
            60..=79 => {
                let i = self.pick();
                ("edit", vec![("src", Json::str(self.edited(i)))], Expect::Edit(i))
            }
            80..=92 => {
                let picks: Vec<usize> = (0..3).map(|_| self.pick()).collect();
                let items = picks
                    .iter()
                    .map(|&i| {
                        Json::obj(vec![
                            ("name", Json::str(format!("p{i}.nf"))),
                            ("src", Json::str(self.pool[i].src.clone())),
                        ])
                    })
                    .collect();
                ("batch", vec![("programs", Json::Arr(items))], Expect::Batch(picks))
            }
            _ => {
                let src = format!("{} {}", self.rng.literal(), self.rng.literal());
                ("check", vec![("src", Json::str(src))], Expect::IllTyped)
            }
        };
        let mut obj = vec![
            ("id", Json::int(self.next_id)),
            ("op", Json::str(op)),
            ("tenant", Json::str(format!("c{}", self.conn))),
        ];
        obj.extend(fields);
        (Json::obj(obj).to_string(), expect)
    }
}

/// Outcome of one reply.
enum Verdict {
    Ok,
    Refused,
    Wrong(String),
}

/// The last `M[..]` grade coefficient in a type (× eps).
fn result_grade(ty: &str) -> Option<f64> {
    let start = ty.rfind("M[")? + 2;
    let end = start + ty[start..].find(']')?;
    eps_coeff(&ty[start..end])
}

/// Every function line of a `check` output must show a grade no larger
/// than the one the generator declared for it.
fn within_declared(output: &str, e: &Entry) -> bool {
    e.declared.iter().all(|(name, c)| {
        output
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} : ")))
            .and_then(result_grade)
            .is_some_and(|g| g <= c + 1e-9)
    })
}

fn verify(pool: &[Entry], reply: &str, expect: &Expect) -> Verdict {
    let Ok(json) = Json::parse(reply.trim_end()) else {
        return Verdict::Wrong(format!("unparseable reply {reply:?}"));
    };
    let ok = json.get("ok").and_then(Json::as_bool);
    let code = json.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
    if code == Some("EBUSY") {
        return Verdict::Refused;
    }
    let output = json.get("output").and_then(Json::as_str);
    let good = match expect {
        Expect::Check(i) | Expect::Edit(i) => {
            ok == Some(true)
                && output == Some(pool[*i].check.as_str())
                && within_declared(&pool[*i].check, &pool[*i])
        }
        Expect::Bound(i) => ok == Some(true) && output == Some(pool[*i].bound.as_str()),
        Expect::Batch(picks) => {
            let lines: Option<Vec<&str>> = json
                .get("results")
                .and_then(Json::as_array)
                .map(|rs| rs.iter().filter_map(|r| r.get("line").and_then(Json::as_str)).collect());
            let want: Vec<&str> = picks.iter().map(|&i| pool[i].batch_line.as_str()).collect();
            lines == Some(want)
        }
        Expect::IllTyped => {
            ok == Some(false) && json.get("exit").and_then(Json::as_f64) == Some(1.0)
        }
    };
    if good {
        Verdict::Ok
    } else {
        Verdict::Wrong(reply.chars().take(300).collect())
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// The service path's state across the rounds of a run.
pub struct Runner<'a> {
    inputs: &'a Inputs,
    round: u64,
    closed: Observed,
    open: Observed,
}

/// A nonblocking client connection and the reply bytes read so far.
pub struct Connection(TcpStream, Vec<u8>);

/// The client's connections, kept open for the whole run.
pub fn connect_all(inputs: &Inputs, tally: &Tally) -> Vec<Connection> {
    let mut sockets = Vec::new();
    for _ in 0..CONNECTIONS {
        match connect(inputs.server.addr).and_then(|s| s.set_nonblocking(true).map(|()| s)) {
            Ok(s) => sockets.push(Connection(s, Vec::new())),
            Err(e) => tally.check(false, || format!("cannot connect: {e}")),
        }
    }
    sockets
}

impl<'a> Runner<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        Runner { inputs, round: 0, closed: Observed::default(), open: Observed::default() }
    }

    /// A closed-loop phase, then an open-loop phase, for `budget`. Each
    /// round draws fresh request streams.
    pub fn step(
        &mut self,
        sockets: &mut [Connection],
        budget: Duration,
        tracer: &Tracer,
        tally: &Tally,
    ) {
        self.round += 1;
        let (inputs, round) = (self.inputs, self.round);
        let closed =
            drive(inputs, sockets, Load::Closed, round, budget.mul_f64(SPLIT[0]), tracer, tally);
        self.closed.extend(closed);
        let open =
            drive(inputs, sockets, Load::Open, round, budget.mul_f64(SPLIT[1]), tracer, tally);
        self.open.extend(open);
    }

    pub fn finish(
        &self,
        sockets: &mut [Connection],
        m: &mut Metrics,
        tracer: &Tracer,
        tally: &Tally,
    ) {
        // The closed loop keeps four threads busy on two virtual CPUs, so
        // its wall-clock rate follows how much CPU a shared host takes
        // away, which varies by the minute. The CPU time the server's
        // threads spend per request leaves that out, and the client
        // thread's own work too.
        let requests = self.closed.latencies.len();
        m.set("serve_cpu_ms_per_req", self.closed.cpu * 1e3 / requests as f64, "ms");
        m.samples("serve_cpu_ms_per_req", requests);
        m.set("serve.req_per_s", requests as f64 / self.closed.wall, "1/s");
        // Replies the server writes without TCP_NODELAY wait for the
        // client's ACK, so about half the open-loop requests stall for
        // 2-15 ms: the median sits on the knee between the two groups
        // and the p99 on the 40 ms delayed-ACK timer, and both flip from
        // run to run. The mean and the p90 are steady; the median and
        // the p99 are layer figures.
        let latencies = &self.open.latencies;
        m.set("serve_p90_ms", percentile(latencies, 0.9), "ms");
        m.samples("serve_p90_ms", latencies.len());
        m.set("serve.mean_ms", latencies.iter().sum::<f64>() / latencies.len() as f64, "ms");
        m.set("serve.p50_ms", median(latencies), "ms");
        m.set("serve.p99_ms", percentile(latencies, 0.99), "ms");
        m.set("serve.refused", (self.closed.refused + self.open.refused) as f64, "count");
        m.set("serve.gen_late_p99_ms", percentile(&self.open.late, 0.99), "ms");
        m.set("serve.client_s", self.open.latencies.iter().sum::<f64>() / 1e3, "s");

        // The server's own counters: reply-cache hit ratio from `metrics`.
        match sockets.first_mut().and_then(server_hit_rate) {
            Some(rate) => m.set("serve.reply_cache_hit_ratio", rate, "ratio"),
            None => tally.check(false, || "the `metrics` op failed".into()),
        }

        // Traced run only: the open loops' requests again, in the order
        // they were sent, straight through `Service::handle_line`.
        if tracer.on() {
            let service = Service::new(session(), 1);
            let local = service.analyzer().fork_session();
            for (req, line) in &self.open.lines {
                tracer.span("serve.handle", *req, || service.handle_line(&local, line));
            }
            let stats = service.analyzer().cache_stats().unwrap_or_default();
            let lookups = (stats.hits + stats.misses).max(1);
            m.set("core.cache.result_hit_ratio", stats.hits as f64 / lookups as f64, "ratio");
        }
    }
}

/// How requests are offered to the server.
#[derive(Clone, Copy, PartialEq)]
enum Load {
    /// `CALLERS` callers, each waiting for its reply before sending on.
    Closed,
    /// Poisson arrivals at `OPEN_RATE`, independent of replies.
    Open,
}

/// What load phases observed.
#[derive(Default)]
struct Observed {
    /// Per completed request, in ms: from sending (closed loop) or from
    /// the due time (open loop) to the reply.
    latencies: Vec<f64>,
    /// The request ids and lines, in the order they were sent.
    lines: Vec<(u64, String)>,
    /// Open loop: how late each request was sent, in ms.
    late: Vec<f64>,
    refused: usize,
    /// Seconds from the first send to the last reply.
    wall: f64,
    /// CPU seconds the server's threads used meanwhile.
    cpu: f64,
}

impl Observed {
    fn extend(&mut self, other: Observed) {
        self.latencies.extend(other.latencies);
        self.lines.extend(other.lines);
        self.late.extend(other.late);
        self.refused += other.refused;
        self.wall += other.wall;
        self.cpu += other.cpu;
    }
}

/// One request in flight or done.
struct Request {
    line: String,
    expect: Expect,
    conn: usize,
    caller: usize,
    /// Seconds after the start: when it was due (open loop) or sent.
    due: f64,
}

/// Drives every connection from this one thread with nonblocking
/// sockets, so the load needs no more threads than the benchmark has.
fn drive(
    inputs: &Inputs,
    sockets: &mut [Connection],
    load: Load,
    round: u64,
    budget: Duration,
    tracer: &Tracer,
    tally: &Tally,
) -> Observed {
    let mut observed = Observed::default();
    let callers = if load == Load::Closed { CALLERS } else { CONNECTIONS };
    let phase = 2 * round + (load == Load::Open) as u64;
    // Trace request ids: unique across phases and the other paths' ids.
    let req_id = |k: usize| (2 << 32) + (phase << 24) + k as u64;
    let mut streams: Vec<Stream> = (0..callers).map(|c| Stream::new(inputs, c, phase)).collect();
    let mut requests: Vec<Request> = Vec::new();
    let mut make = |requests: &mut Vec<Request>, caller: usize, due: f64| {
        let (line, expect) = streams[caller].next();
        let conn = caller % CONNECTIONS;
        requests.push(Request { line: format!("{line}\n"), expect, conn, caller, due });
        requests.len() - 1
    };
    // The open loop's schedule and request lines are made before the
    // clock starts.
    if load == Load::Open {
        let mut rng = Rng::new(inputs.seed ^ (round << 16) ^ 0x09e7);
        let mut due = 0.0;
        loop {
            let u = (rng.below(1 << 30) as f64 + 1.0) / (1u64 << 30) as f64;
            due += -u.ln() / OPEN_RATE;
            if due >= budget.as_secs_f64() {
                break;
            }
            let caller = requests.len() % CONNECTIONS;
            make(&mut requests, caller, due);
        }
    }
    if sockets.len() < CONNECTIONS {
        return observed;
    }
    let mut in_flight: Vec<VecDeque<usize>> = vec![VecDeque::new(); CONNECTIONS];
    let mut to_send: VecDeque<usize> = VecDeque::new();
    let start = Instant::now();
    let at = |t: f64| start + Duration::from_secs_f64(t);
    let mut next_due = 0;
    if load == Load::Closed {
        for caller in 0..callers {
            to_send.push_back(make(&mut requests, caller, 0.0));
        }
    }
    let cpu_start = cpu_s() - thread_cpu_s();
    let give_up = budget + Duration::from_secs(10);
    let mut buf = vec![0u8; 1 << 16];
    let mut last_reply = 0.0;
    loop {
        let mut progress = false;
        let now = start.elapsed().as_secs_f64();
        while load == Load::Open && next_due < requests.len() && requests[next_due].due <= now {
            to_send.push_back(next_due);
            next_due += 1;
        }
        while let Some(k) = to_send.pop_front() {
            let r = &mut requests[k];
            let sent = start.elapsed().as_secs_f64();
            if load == Load::Closed {
                r.due = sent;
            } else {
                observed.late.push((sent - r.due) * 1e3);
            }
            if write_fully(&mut sockets[r.conn].0, r.line.as_bytes()).is_err() {
                tally.check(false, || "send failed".into());
                continue;
            }
            in_flight[r.conn].push_back(k);
            observed.lines.push((req_id(k), r.line.clone()));
            progress = true;
        }
        for (conn, Connection(socket, pending)) in sockets.iter_mut().enumerate() {
            match socket.read(&mut buf) {
                Ok(n) if n > 0 => {
                    pending.extend_from_slice(&buf[..n]);
                    progress = true;
                }
                _ => {}
            }
            while let Some(pos) = pending.iter().position(|&c| c == b'\n') {
                let reply: Vec<u8> = pending.drain(..=pos).collect();
                let Some(k) = in_flight[conn].pop_front() else {
                    tally.check(false, || "reply to no request".into());
                    continue;
                };
                let done = start.elapsed().as_secs_f64();
                last_reply = done;
                let r = &requests[k];
                // A refused or wrong reply misses every latency limit: it
                // counts as waiting until the phase's end.
                let missed = (budget.as_secs_f64().max(done) - r.due) * 1e3;
                let latency =
                    match verify(&inputs.pool, &String::from_utf8_lossy(&reply), &r.expect) {
                        Verdict::Ok => {
                            tally.check(true, String::new);
                            (done - r.due) * 1e3
                        }
                        Verdict::Refused => {
                            observed.refused += 1;
                            tally.check(true, String::new);
                            missed
                        }
                        Verdict::Wrong(w) => {
                            tally.check(false, || format!("serve: {w}"));
                            missed
                        }
                    };
                observed.latencies.push(latency);
                tracer.record("serve.request", req_id(k), at(r.due), at(done));
                if load == Load::Closed && start.elapsed() < budget {
                    let caller = r.caller;
                    to_send.push_back(make(&mut requests, caller, 0.0));
                }
            }
        }
        let idle = in_flight.iter().all(VecDeque::is_empty) && to_send.is_empty();
        if idle && (load == Load::Closed || next_due == requests.len()) {
            break;
        }
        if start.elapsed() > give_up {
            tally.check(false, || {
                format!("{} requests got no reply", in_flight.iter().flatten().count())
            });
            break;
        }
        if !progress {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    observed.wall = last_reply;
    // The server's threads only: this thread's own time (making the
    // requests, checking the replies) is left out.
    observed.cpu = cpu_s() - thread_cpu_s() - cpu_start;
    observed
}

fn write_fully(socket: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match socket.write(bytes) {
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The `cache.hit_rate` the server's `metrics` op reports, asked on an
/// idle client connection.
fn server_hit_rate(connection: &mut Connection) -> Option<f64> {
    let Connection(socket, pending) = connection;
    write_fully(socket, b"{\"id\":0,\"op\":\"metrics\"}\n").ok()?;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut buf = [0u8; 4096];
    while !pending.contains(&b'\n') && Instant::now() < deadline {
        match socket.read(&mut buf) {
            Ok(n) if n > 0 => pending.extend_from_slice(&buf[..n]),
            Ok(_) => return None,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(50))
            }
            Err(_) => return None,
        }
    }
    let pos = pending.iter().position(|&c| c == b'\n')?;
    let reply: Vec<u8> = pending.drain(..=pos).collect();
    Json::parse(String::from_utf8_lossy(&reply).trim_end())
        .ok()?
        .get("cache")?
        .get("hit_rate")?
        .as_f64()
}
