//! The `serve-store` workload: the 22 small Table 3 scenarios submitted
//! as jobs to an in-process `cirfix serve` over a Unix socket.
//!
//! One pass is a *cycle*: a fresh store and a freshly started daemon,
//! a cold round in which every candidate is simulated and appended to
//! the store, then a warm round that resubmits the same jobs and is
//! answered from the store. Two client connections run a closed loop
//! (submit, watch to a terminal state, next job), and the daemon admits
//! `max_active × jobs-per-job ≤ nproc`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cirfix::{patch_from_json, verify_repair, RunTotals, SharedEvalCache};
use cirfix_benchmarks::Scenario;
use cirfix_serve::client::{response_error, response_ok};
use cirfix_serve::{serve, Client, Request, ServeAddr, ServeOpts};
use cirfix_store::{field, field_str, field_u64, parse_json, Store};
use cirfix_telemetry::JsonValue;

use crate::expected;
use crate::harness::{self, mismatch, Opts, Prepared, Scale, Tally};
use crate::metrics::Report;
use crate::stats::group_medians;
use crate::trace::Tracer;

/// Client connections in the closed loop.
const CLIENTS: usize = 2;

/// Warm rounds per cycle.
const WARM_ROUNDS: usize = 1;

/// Liveness probes timed before each traced cycle's rounds.
const PINGS: usize = 20;

/// Set-ups without a cycle, timed before the cycles so the set-up
/// median rests on more than the cycles' own.
const EXTRA_SETUPS: usize = 9;

/// Daemon sockets live here, relative to the working directory, so the
/// path stays short enough for `sun_path` wherever the checkout is.
const OUT_SOCKETS: &str = "perfbench/out";

/// Scenarios whose daemon job body is rerun in-process by the traced
/// run, for the worker utilization the wire does not report.
const SIDE_SESSIONS: usize = 3;

/// A scenario written out as a daemon-submittable `repair.conf`.
pub struct Fixture {
    /// The scenario.
    pub scenario: &'static Scenario,
    /// Directory holding the sources, the conf and the job outputs.
    pub dir: PathBuf,
}

impl Fixture {
    fn conf(&self) -> PathBuf {
        self.dir.join("repair.conf")
    }

    fn result_path(&self, round: usize) -> PathBuf {
        self.dir.join(format!("result-{round}.json"))
    }

    fn output_path(&self, round: usize) -> PathBuf {
        self.dir.join(format!("repaired-{round}.v"))
    }
}

/// Writes a scenario's sources and conf under `root`.
pub fn write_fixture(
    root: &Path,
    s: &'static Scenario,
    scale: &Scale,
    jobs_per_job: usize,
) -> Result<Fixture, String> {
    let project = cirfix_benchmarks::project(s.project).ok_or("unknown project")?;
    let dir = root.join(s.id);
    let conf = format!(
        "design = faulty.v\ngolden = golden.v\ntestbench = tb.v\ntop = {}\n\
         design_modules = {}\nprobe_signals = {}\nprobe_start = {}\n\
         probe_period = {}\nmax_time = {}\nsim_step_limit = {}\n\
         popn_size = {}\nmax_generations = {}\nmax_evals = {}\n\
         timeout_s = 3600\ntrials = {}\njobs = {jobs_per_job}\nseed = 42\n",
        project.top,
        project.design_modules.join(","),
        project.probe_signals.join(","),
        project.probe_start,
        project.probe_period,
        project.max_time,
        project.sim_config().max_total_ops,
        scale.popn,
        scale.gens,
        scale.evals,
        scale.trials,
    );
    let write = |name: &str, text: &str| {
        std::fs::write(dir.join(name), text).map_err(|e| format!("{}: {e}", s.id))
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    write("faulty.v", s.faulty_design)?;
    write("golden.v", project.design)?;
    write("tb.v", project.testbench)?;
    write("repair.conf", &conf)?;
    Ok(Fixture { scenario: s, dir })
}

/// An in-process daemon on a Unix socket; stopped (and its thread
/// joined) by [`Daemon::stop`] or on drop.
pub struct Daemon {
    addr: ServeAddr,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Starts a daemon over `store_dir` and returns once its socket is
    /// bound: from then on connections queue until the daemon accepts
    /// them. [`Daemon::wait_ready`] waits for an answer.
    pub fn start(sock: &Path, store_dir: &Path, max_active: usize) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(sock);
        let addr = ServeAddr::Unix(sock.to_path_buf());
        let mut opts = ServeOpts::new(store_dir);
        opts.max_active = max_active;
        let thread = {
            let addr = addr.clone();
            std::thread::spawn(move || serve(&addr, opts))
        };
        let mut daemon = Daemon {
            addr,
            thread: Some(thread),
        };
        daemon.poll_until("bind its socket", |_| sock.exists())?;
        Ok(daemon)
    }

    /// Waits until the daemon answers a ping.
    pub fn wait_ready(&mut self) -> Result<(), String> {
        self.poll_until("answer a ping", |d| d.ping().is_ok())
    }

    fn poll_until(
        &mut self,
        what: &str,
        mut done: impl FnMut(&Daemon) -> bool,
    ) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done(self) {
            if self.thread.as_ref().is_some_and(JoinHandle::is_finished) {
                let ended = self.thread.take().expect("thread present").join();
                return Err(format!("daemon exited before it could {what}: {ended:?}"));
            }
            if Instant::now() > deadline {
                return Err(format!("daemon did not {what} within 30 s"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    fn ping(&self) -> Result<(), String> {
        let mut c = Client::connect(&self.addr).map_err(|e| e.to_string())?;
        let line = c.request(&Request::Ping).map_err(|e| e.to_string())?;
        response_ok(&line)
            .then_some(())
            .ok_or_else(|| response_error(&line))
    }

    /// Shuts the daemon down and waits for its thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let sent = Client::connect(&self.addr)
            .and_then(|mut c| c.request(&Request::Shutdown))
            .map_err(|e| format!("shutdown: {e}"));
        let joined = thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"));
        if let ServeAddr::Unix(p) = &self.addr {
            let _ = std::fs::remove_file(p);
        }
        sent.and(joined).map(drop)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// One job's trip through the daemon.
pub struct JobRun {
    /// Index into the fixtures.
    pub idx: usize,
    /// Submit to the first streamed heartbeat.
    pub first_heartbeat_s: Option<f64>,
    /// Submit to the terminal watch line.
    pub latency_s: f64,
    /// Terminal job state.
    pub state: String,
    /// Rejected by admission control (`queue_full`).
    pub rejected: bool,
    /// Transport or protocol error.
    pub error: Option<String>,
}

fn run_job(
    client: &mut Client,
    fixtures: &[Fixture],
    idx: usize,
    round: usize,
    parent: Option<u64>,
    tracer: &Tracer,
) -> JobRun {
    let fx = &fixtures[idx];
    let id = Some(fx.scenario.id);
    let _job = tracer.span_under("serve.job", parent, id);
    let mut run = JobRun {
        idx,
        first_heartbeat_s: None,
        latency_s: 0.0,
        state: String::new(),
        rejected: false,
        error: None,
    };
    let t0 = Instant::now();
    let submit = Request::Submit {
        conf: fx.conf().display().to_string(),
        overrides: vec![
            (
                "result_out".into(),
                fx.result_path(round).display().to_string(),
            ),
            ("output".into(), fx.output_path(round).display().to_string()),
        ],
    };
    let answer = tracer.time("serve.submit", id, || client.request(&submit));
    let line = match answer {
        Ok(line) if response_ok(&line) => line,
        Ok(line) => {
            run.rejected = field_str(&line, "error") == Some("queue_full");
            run.error = Some(response_error(&line));
            return run;
        }
        Err(e) => {
            run.error = Some(format!("submit: {e}"));
            return run;
        }
    };
    let Some(job) = field_str(&line, "job").map(str::to_string) else {
        run.error = Some("submit answer without a job id".into());
        return run;
    };
    let mut first = None;
    let last = tracer.time("serve.watch", id, || {
        client.watch(&job, false, |l| {
            if first.is_none() && !matches!(field(l, "event"), None | Some(JsonValue::Null)) {
                first = Some(t0.elapsed().as_secs_f64());
            }
        })
    });
    run.latency_s = t0.elapsed().as_secs_f64();
    run.first_heartbeat_s = first;
    match last {
        Ok(l) if response_ok(&l) => run.state = field_str(&l, "state").unwrap_or_default().into(),
        Ok(l) => run.error = Some(response_error(&l)),
        Err(e) => run.error = Some(format!("watch: {e}")),
    }
    run
}

/// Submits every fixture once from [`CLIENTS`] closed-loop connections,
/// in fixture order.
fn run_round(
    addr: &ServeAddr,
    fixtures: &[Fixture],
    round: usize,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Vec<JobRun> {
    let span = tracer.span("serve.round", None);
    let parent = span.id();
    let next = AtomicUsize::new(0);
    let per_client: Vec<Result<Vec<JobRun>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut runs = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::SeqCst);
                        if idx >= fixtures.len() {
                            return Ok(runs);
                        }
                        runs.push(run_job(&mut client, fixtures, idx, round, parent, tracer));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut runs = Vec::new();
    for r in per_client {
        match r {
            Ok(v) => runs.extend(v),
            Err(e) => tally.record(Some(e)),
        }
    }
    runs.sort_by_key(|r| r.idx);
    runs
}

/// A job's canonical result, as the daemon wrote it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Search status.
    pub status: String,
    /// Distinct simulations across every trial.
    pub sims: u64,
    /// The patch, as canonical JSON.
    pub patch: String,
    /// Minimized patch length.
    pub patch_len: usize,
    /// In-memory cache hits.
    pub cache_hits: u64,
    /// Evaluations answered by the store.
    pub store_hits: u64,
    /// Minimization probes.
    pub minimize_evals: u64,
    /// The repaired output passed the held-out bench (cold rounds).
    pub correct: bool,
}

fn read_result(path: &Path) -> Result<JobResult, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = parse_json(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
    let num = |k: &str| field_u64(&v, k).ok_or_else(|| format!("{}: no {k}", path.display()));
    let patch = field(&v, "patch").ok_or("result without a patch")?;
    Ok(JobResult {
        status: field_str(&v, "status").unwrap_or_default().into(),
        sims: num("total_fitness_evals")?,
        patch: patch.to_json(),
        patch_len: patch_from_json(patch)?.len(),
        cache_hits: num("cache_hits")?,
        store_hits: num("store_hits")?,
        minimize_evals: num("minimize_evals")?,
        correct: false,
    })
}

/// What one cycle measured.
pub struct Cycle {
    /// Problem build, fixtures and daemon start-up.
    pub setup_s: f64,
    /// Cold plus warm rounds.
    pub wall_s: f64,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Per round, each job with its result.
    pub rounds: Vec<Vec<(JobRun, JobResult)>>,
    /// Jobs the cold round repaired correctly.
    pub correct: usize,
    /// Store size after the cold round.
    pub store_bytes: u64,
    /// Peak RSS of the cycle, in MB.
    pub peak_rss_mb: f64,
    /// Run totals of the in-process side sessions (traced cycles).
    pub side: Vec<(&'static str, RunTotals)>,
}

impl Cycle {
    /// Distinct simulations across all rounds.
    pub fn sims(&self) -> u64 {
        self.rounds.iter().flatten().map(|(_, r)| r.sims).sum()
    }

    /// Jobs completed.
    pub fn jobs(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }
}

/// Daemon concurrency `(max_active, jobs per job)`: two jobs at once
/// (one per client) when the cores allow, and the cores split between
/// them. One job at a time on every core was slower (a cycle took 14.9 s
/// against 11.5 s on 2 cores) and its latencies no steadier.
pub fn daemon_shape() -> (usize, usize) {
    let nproc = crate::sys::nproc();
    let max_active = CLIENTS.min(nproc);
    (max_active, (nproc / max_active).max(1))
}

/// Checks a job against its pins (cold round) or against its cold twin
/// (warm rounds: same state, same patch, no simulations).
fn check_job(
    fx: &Fixture,
    run: &JobRun,
    result: &JobResult,
    correct: Option<bool>,
    cold: Option<&(JobRun, JobResult)>,
    scale: &Scale,
) -> Option<String> {
    let id = fx.scenario.id;
    let problems: Vec<String> = match cold {
        Some((cold_run, cold_result)) => vec![
            mismatch("warm state", &run.state, &cold_run.state),
            mismatch("warm simulations", result.sims, 0),
            mismatch("warm patch", &result.patch, &cold_result.patch),
        ],
        None if scale.pinned => match expected::serve(id) {
            Some(pin) => vec![
                mismatch("state", run.state.as_str(), pin.state),
                mismatch("simulations", result.sims, pin.evals),
                mismatch("patch_len", result.patch_len, pin.patch_len),
                mismatch("correct", correct.unwrap_or(false), pin.correct),
            ],
            None => vec![Some("no pinned outputs".to_string())],
        },
        None => vec![(!matches!(run.state.as_str(), "plausible" | "failed"))
            .then(|| format!("non-terminal state {}", run.state))],
    }
    .into_iter()
    .flatten()
    .collect();
    (!problems.is_empty()).then(|| format!("{id}: {}", problems.join("; ")))
}

/// Verifies the repaired design a plausible job wrote.
fn verify_output(path: &Path, p: &Prepared, tracer: &Tracer) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let design = cirfix_parser::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let _v = tracer.span("verify", Some(p.scenario.id));
    verify_repair(
        &design,
        &p.problem.design_modules,
        &p.golden,
        &p.verification,
    )
    .map_err(|e| format!("{}: verification failed to run: {e}", p.scenario.id))
}

/// Set-up of one cycle: write the job confs, then, timed, build the
/// problems (for checking the outputs) and start a daemon on a fresh
/// store; then wait until it answers.
fn set_up(
    dir: &Path,
    scenarios: &[&'static Scenario],
    opts: &Opts,
    tracer: &Tracer,
) -> Result<(Vec<Prepared>, Vec<Fixture>, Daemon, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let (max_active, jobs_per_job) = daemon_shape();
    // Writing the job confs is the benchmark making its inputs, not set-up
    // a user pays; its file-system time swung set-up medians fivefold
    // between runs.
    let fixtures = scenarios
        .iter()
        .map(|&s| write_fixture(&dir.join("fx"), s, &opts.scale, jobs_per_job))
        .collect::<Result<Vec<_>, String>>()?;
    let t0 = Instant::now();
    let prepared = tracer.time("setup.problems", None, || harness::prepare(scenarios))?;
    let sock = PathBuf::from(format!("{OUT_SOCKETS}/d{}.sock", std::process::id()));
    let mut daemon = tracer.time("setup.daemon", None, || {
        Daemon::start(&sock, &dir.join("store"), max_active)
    })?;
    let secs = t0.elapsed().as_secs_f64();
    daemon.wait_ready()?;
    Ok((prepared, fixtures, daemon, secs))
}

/// Runs one cycle: set-up, cold round, warm rounds, checks.
fn run_cycle(
    k: usize,
    scenarios: &[&'static Scenario],
    opts: &Opts,
    traced: bool,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<Cycle, String> {
    let dir = opts.out_dir.join(format!("cycle-{k}"));
    let store_dir = dir.join("store");
    // Each cycle models a fresh daemon process: hand the heap the earlier
    // cycles freed back to the system and measure this cycle's own peak.
    crate::sys::release_free_heap();
    crate::sys::reset_peak_rss();
    let (prepared, fixtures, daemon, setup_s) = set_up(&dir, scenarios, opts, tracer)?;

    tracer.set_enabled(traced);
    if traced {
        let pinged = Client::connect(&daemon.addr)
            .map_err(|e| format!("connect: {e}"))
            .and_then(|mut c| timed_pings(&mut c, tracer));
        if let Err(e) = pinged {
            tally.record(Some(format!("ping: {e}")));
        }
    }
    let t1 = Instant::now();
    let mut runs = Vec::new();
    let mut store_bytes = 0;
    for round in 0..=WARM_ROUNDS {
        runs.push(run_round(&daemon.addr, &fixtures, round, tracer, tally));
        if round == 0 {
            store_bytes = crate::sys::dir_bytes(&store_dir);
        }
    }
    let wall_s = t1.elapsed().as_secs_f64();
    let peak_rss_mb = crate::sys::peak_rss_mb();
    daemon.stop()?;

    let mut rounds: Vec<Vec<(JobRun, JobResult)>> = Vec::new();
    let mut correct = 0;
    for (round, jobs) in runs.into_iter().enumerate() {
        let mut done = Vec::new();
        for run in jobs {
            let fx = &fixtures[run.idx];
            if let Some(e) = &run.error {
                tally.record(Some(format!("{}: {e}", fx.scenario.id)));
                continue;
            }
            let mut result = match read_result(&fx.result_path(round)) {
                Ok(r) => r,
                Err(e) => {
                    tally.record(Some(e));
                    continue;
                }
            };
            let cold = (round > 0).then(|| rounds[0].iter().find(|(c, _)| c.idx == run.idx));
            if matches!(cold, Some(None)) {
                tally.record(Some(format!("{}: no cold run to compare", fx.scenario.id)));
                continue;
            }
            let mut ok = None;
            if round == 0 && run.state == "plausible" {
                match verify_output(&fx.output_path(round), &prepared[run.idx], tracer) {
                    Ok(v) => ok = Some(v),
                    Err(e) => {
                        tally.record(Some(e));
                        continue;
                    }
                }
            }
            result.correct = ok == Some(true);
            correct += usize::from(result.correct);
            tally.record(check_job(
                fx,
                &run,
                &result,
                ok,
                cold.flatten(),
                &opts.scale,
            ));
            done.push((run, result));
        }
        rounds.push(done);
    }
    let mut side = Vec::new();
    if traced {
        measure_filled_store(&store_dir, tracer, tally);
        side = side_sessions(&fixtures, &dir.join("side"), &opts.scale, tracer, tally);
    }
    tracer.set_enabled(opts.traced);
    Ok(Cycle {
        setup_s,
        wall_s,
        traced,
        rounds,
        correct,
        store_bytes,
        peak_rss_mb,
        side,
    })
}

/// Times [`PINGS`] liveness round trips on an open connection.
fn timed_pings(client: &mut Client, tracer: &Tracer) -> Result<(), String> {
    for _ in 0..PINGS {
        let line = tracer
            .time("serve.ping", None, || client.request(&Request::Ping))
            .map_err(|e| e.to_string())?;
        if !response_ok(&line) {
            return Err(response_error(&line));
        }
    }
    Ok(())
}

/// Times the open a warm job pays: the store and every evaluation in it.
fn measure_filled_store(store_dir: &Path, tracer: &Tracer, tally: &mut Tally) {
    let opened = tracer.time("store.reopen", None, || {
        Store::open(store_dir).and_then(|s| SharedEvalCache::open(&s))
    });
    if let Err(e) = opened {
        tally.record(Some(format!("store reopen: {e}")));
    }
}

/// Reruns the daemon's job body in-process for the first fixtures: the
/// same conf, problem builder, repair config and `repair_session`, on a
/// fresh store. The wire reports no worker busy time; these runs do.
/// Their simulations must match the daemon's pinned cold runs.
fn side_sessions(
    fixtures: &[Fixture],
    dir: &Path,
    scale: &Scale,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Vec<(&'static str, RunTotals)> {
    let mut out = Vec::new();
    for fx in fixtures.iter().take(SIDE_SESSIONS) {
        let id = fx.scenario.id;
        let run = || -> Result<cirfix::RepairResult, String> {
            let config = cirfix_serve::Config::load(&fx.conf()).map_err(|e| e.to_string())?;
            let problem = cirfix_serve::conf::build_problem(&config).map_err(|e| e.to_string())?;
            let repair = cirfix_serve::conf::repair_config(&config).map_err(|e| e.to_string())?;
            let trials = config.num_or("trials", 3u32).map_err(|e| e.to_string())?;
            let store = dir.join(id);
            let _ = std::fs::remove_dir_all(&store);
            tracer
                .time("side.session", Some(id), || {
                    cirfix::repair_session(&problem, &repair, trials, &store, false)
                })
                .map_err(|e| e.to_string())
        };
        match harness::guarded(id, run) {
            Ok(Ok(r)) => {
                let pin = expected::serve(id).filter(|_| scale.pinned);
                let check = pin.and_then(|p| {
                    mismatch("side session simulations", r.totals.fitness_evals, p.evals)
                });
                tally.record(check.map(|c| format!("{id}: {c}")));
                out.push((id, r.totals));
            }
            Ok(Err(e)) | Err(e) => tally.record(Some(format!("{id}: side session: {e}"))),
        }
    }
    out
}

/// Everything a serve-store run measured.
pub struct ServeRun {
    /// Every set-up's duration: the extra ones, then each cycle's.
    pub setups: Vec<f64>,
    /// The cycles.
    pub cycles: Vec<Cycle>,
    /// The problems (for the replay), in Table 3 order.
    pub prepared: Vec<Prepared>,
}

/// Runs the workload: cycles until the time budget.
pub fn run(opts: &Opts, tracer: &Tracer, tally: &mut Tally) -> Result<ServeRun, String> {
    // Jobs go out in Table 3 order whatever the seed: with two jobs
    // sharing the cores, the order decides which jobs run side by side.
    let scenarios = harness::table3_scenarios(false, &opts.scale);
    let mut setups = Vec::new();
    for k in 0..EXTRA_SETUPS {
        let dir = opts.out_dir.join(format!("setup-{k}"));
        let (_, _, daemon, secs) = set_up(&dir, &scenarios, opts, tracer)?;
        daemon.stop()?;
        setups.push(secs);
    }
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut walls = Vec::new();
    while harness::another_pass(&walls, opts.seconds) {
        let traced = opts.traced && cycles.len() % 2 == 1;
        let c = run_cycle(cycles.len(), &scenarios, opts, traced, tracer, tally)?;
        walls.push(c.wall_s);
        setups.push(c.setup_s);
        cycles.push(c);
    }
    Ok(ServeRun {
        setups,
        cycles,
        prepared: harness::prepare(&scenarios)?,
    })
}

/// One line per job, with its checked outputs, on stderr.
pub fn log(run: &ServeRun) {
    for (i, cycle) in run.cycles.iter().enumerate() {
        for (round, jobs) in cycle.rounds.iter().enumerate() {
            for (j, r) in jobs {
                eprintln!(
                    "[cycle {i} round {round}] {} state={} sims={} patch_len={} correct={} \
                     store_hits={} latency_s={:.3}",
                    run.prepared[j.idx].scenario.id,
                    j.state,
                    r.sims,
                    r.patch_len,
                    r.correct,
                    r.store_hits,
                    j.latency_s,
                );
            }
        }
    }
}

/// The end-to-end metrics of a serve-store run.
pub fn end_to_end(run: &ServeRun, report: &mut Report) {
    let cycles = &run.cycles;
    let per = |f: &dyn Fn(&Cycle) -> f64| cycles.iter().map(f).collect::<Vec<f64>>();
    // Each job at its median across cycles, then the median over jobs.
    let per_job = |cold: bool, plausible_only: bool| {
        group_medians(
            cycles
                .iter()
                .flat_map(|c| if cold { &c.rounds[..1] } else { &c.rounds[1..] })
                .flatten()
                .filter(|(j, _)| j.state == "plausible" || !plausible_only)
                .map(|(j, _)| (j.idx, j.latency_s)),
        )
    };
    report.set_median("setup_s", &run.setups);
    report.set_median("wall_s", &per(&|c| c.wall_s));
    report.set_median("sims_per_s", &per(&|c| c.sims() as f64 / c.wall_s));
    report.set_median("ttp_p50_s", &per_job(true, true));
    let first = &cycles[0].rounds[0];
    report.set(
        "plausible",
        first.iter().filter(|(j, _)| j.state == "plausible").count() as f64,
        first.len(),
    );
    report.set("correct", cycles[0].correct as f64, first.len());
    report.set_median("cold_job_p50_s", &per_job(true, false));
    report.set_median("warm_job_p50_s", &per_job(false, false));
    report.set_median("jobs_per_s", &per(&|c| c.jobs() as f64 / c.wall_s));
    report.set_median("peak_rss_mb", &per(&|c| c.peak_rss_mb));
}

/// The per-layer metrics the daemon rounds expose.
pub fn layers(run: &ServeRun, tracer: &Tracer, report: &mut Report) {
    let cycles = &run.cycles;
    let cold: Vec<&JobResult> = cycles
        .iter()
        .flat_map(|c| c.rounds[0].iter().map(|x| &x.1))
        .collect();
    let warm: Vec<&JobResult> = cycles
        .iter()
        .flat_map(|c| c.rounds[1..].iter().flatten().map(|x| &x.1))
        .collect();
    let all_jobs = || {
        cycles
            .iter()
            .flat_map(|c| c.rounds.iter().flatten())
            .map(|x| &x.0)
    };
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;

    let us =
        |name: &str| -> Vec<f64> { tracer.durations_s(name).iter().map(|s| s * 1e6).collect() };
    report.set_median("serve.ping_rtt_us", &us("serve.ping"));
    report.set_median("serve.submit_rtt_us", &us("serve.submit"));
    report.set_median(
        "serve.first_heartbeat_s",
        &all_jobs()
            .filter_map(|j| j.first_heartbeat_s)
            .collect::<Vec<_>>(),
    );
    report.set(
        "serve.rejections",
        all_jobs().filter(|j| j.rejected).count() as f64,
        all_jobs().count(),
    );

    let (hits, sims) = warm
        .iter()
        .fold((0, 0), |a, r| (a.0 + r.store_hits, a.1 + r.sims));
    report.set("store.hit_ratio", ratio(hits, sims), warm.len());
    report.set_median(
        "store.bytes_written",
        &cycles
            .iter()
            .map(|c| c.store_bytes as f64)
            .collect::<Vec<_>>(),
    );
    report.set_median("store.open_s", &tracer.durations_s("store.reopen"));

    let (hits, sims) = cold
        .iter()
        .fold((0, 0), |a, r| (a.0 + r.cache_hits, a.1 + r.sims));
    report.set("repair.cache_hit_ratio", ratio(hits, sims), cold.len());
    report.set_median(
        "repair.minimize_evals",
        &cycles
            .iter()
            .map(|c| c.rounds[0].iter().map(|x| x.1.minimize_evals).sum::<u64>() as f64)
            .collect::<Vec<_>>(),
    );
    report.set_median("verify.verify_s", &tracer.durations_s("verify"));

    let side: Vec<&(&str, RunTotals)> = cycles.iter().flat_map(|c| &c.side).collect();
    let busy: f64 = side.iter().map(|(_, t)| t.eval_busy.as_secs_f64()).sum();
    let capacity: f64 = side
        .iter()
        .map(|(_, t)| t.wall_time.as_secs_f64() * f64::from(t.jobs.max(1)))
        .sum();
    report.set("engine.worker_util", busy / capacity.max(1e-12), side.len());
    crate::table3::tracing_overhead(
        &cycles
            .iter()
            .map(|c| (c.traced, c.wall_s))
            .collect::<Vec<_>>(),
        report,
    );
}

/// Replay coverage from the side sessions: replayed per-candidate time
/// × simulations ÷ the sessions' evaluation busy time.
pub fn coverage(run: &ServeRun, replay_busy_s: &dyn Fn(&str) -> Option<f64>, report: &mut Report) {
    let mut replayed = 0.0;
    let mut busy = 0.0;
    let side: Vec<&(&str, RunTotals)> = run.cycles.iter().flat_map(|c| &c.side).collect();
    for (id, t) in &side {
        if let Some(per) = replay_busy_s(id) {
            replayed += per * t.fitness_evals as f64;
            busy += t.eval_busy.as_secs_f64();
        }
    }
    report.set("replay.coverage", replayed / busy.max(1e-12), side.len());
}

/// The serve layers for a workload without a daemon of its own: start
/// one on a fresh store, time pings, submit the first scenario as a
/// small job and watch it to the end.
pub fn probe(
    first: &'static Scenario,
    opts: &Opts,
    tracer: &Tracer,
    tally: &mut Tally,
    report: &mut Report,
) {
    let dir = opts.out_dir.join("probe");
    let _ = std::fs::remove_dir_all(&dir);
    let result = (|| -> Result<JobRun, String> {
        let fixture = write_fixture(&dir.join("fx"), first, &Scale::TINY, 1)?;
        let sock = PathBuf::from(format!("{OUT_SOCKETS}/p{}.sock", std::process::id()));
        let mut daemon = Daemon::start(&sock, &dir.join("store"), 1)?;
        daemon.wait_ready()?;
        let mut client = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
        timed_pings(&mut client, tracer)?;
        let run = run_job(&mut client, &[fixture], 0, 0, None, tracer);
        drop(client);
        daemon.stop()?;
        Ok(run)
    })();
    let us =
        |name: &str| -> Vec<f64> { tracer.durations_s(name).iter().map(|s| s * 1e6).collect() };
    match result {
        Ok(run) => {
            let problem = run.error.clone().or_else(|| {
                (!matches!(run.state.as_str(), "plausible" | "failed"))
                    .then(|| format!("probe job ended {}", run.state))
            });
            tally.record(problem.map(|p| format!("{}: probe: {p}", first.id)));
            report.set_median("serve.ping_rtt_us", &us("serve.ping"));
            report.set_median("serve.submit_rtt_us", &us("serve.submit"));
            report.set_median(
                "serve.first_heartbeat_s",
                &run.first_heartbeat_s.into_iter().collect::<Vec<_>>(),
            );
            report.set("serve.rejections", f64::from(u8::from(run.rejected)), 1);
        }
        Err(e) => tally.record(Some(format!("{}: probe: {e}", first.id))),
    }
}
