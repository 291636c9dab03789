//! `serve_jobs`: a closed loop of clients against an in-process
//! `run_daemon` whose worker slots spawn the built `ompfuzz` binary. Each
//! client submits a `--quick --programs 400` job, watches it to the end,
//! then submits the next. Job latency is submit until `watch` sees the job
//! end.
//!
//! Every layer number here is measured from the client side: the
//! `client::submit` round trip, and timestamps taken as each line of the
//! watch stream arrives.

use crate::common::{clients, fresh_dir, job_seed, Digest, JobOutput, Workload, WARMUP_SEED};
use crate::trace::Tracer;
use ompfuzz_backends::{standard_backends, OmpBackend, SimBackend};
use ompfuzz_corpus::{run_evolution, EvolveConfig, TriggerCatalog};
use ompfuzz_obs::Value;
use ompfuzz_serve::{client, run_daemon, JobSpec, ServeConfig};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Programs per round of a job (`submit --quick --programs 400`). Whether a
/// job's round 0 catalogs a trigger, and so runs mutants in round 1, varies
/// by seed. Larger jobs even that out: the spread of `outliers_per_s` over
/// seeds was 0.58 at the `--quick` default of 40 programs, 0.14 at 200 and
/// 0.10 at 400, which still completes 150+ jobs in a 15-second run.
const PROGRAMS: u64 = 400;
/// Programs per round of a tiny (smoke-test) job.
const TINY_PROGRAMS: u64 = 10;

pub struct ServeWorkload {
    seed: u64,
    tiny: bool,
    root: PathBuf,
    socket: PathBuf,
    state_dir: PathBuf,
    daemon: Mutex<Option<JoinHandle<Result<(), String>>>>,
    backends: Vec<SimBackend>,
}

/// Watch-stream sink that timestamps every line as it arrives.
#[derive(Default)]
struct StampedLines {
    pending: Vec<u8>,
    lines: Vec<(Instant, String)>,
}

impl std::io::Write for StampedLines {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        self.pending.extend_from_slice(buf);
        while let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=pos).collect();
            self.lines
                .push((now, String::from_utf8_lossy(&line).trim_end().to_string()));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl ServeWorkload {
    /// Start the daemon and wait until it answers `status`.
    pub fn start(
        seed: u64,
        tiny: bool,
        work_dir: &Path,
        ompfuzz: PathBuf,
    ) -> Result<ServeWorkload, String> {
        if !ompfuzz.is_file() {
            return Err(format!("worker binary {} not found", ompfuzz.display()));
        }
        let root = fresh_dir(work_dir, "serve");
        // Unix socket paths are short: keep it relative to the checkout.
        let socket = root.join("d.sock");
        let state_dir = root.join("state");
        let mut config = ServeConfig::new(socket.clone(), state_dir.clone());
        config.scheduler.slots = clients();
        config.worker = Some(ompfuzz);
        let handle = std::thread::spawn(move || run_daemon(config));
        let workload = ServeWorkload {
            seed,
            tiny,
            root,
            socket,
            state_dir,
            daemon: Mutex::new(Some(handle)),
            backends: standard_backends(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while client::status(&workload.socket, None).is_err() {
            if Instant::now() > deadline {
                workload.teardown();
                return Err("daemon did not answer status within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(workload)
    }

    fn spec(&self, seed: u64) -> JobSpec {
        JobSpec {
            quick: true,
            seed: Some(seed),
            programs: Some(if self.tiny { TINY_PROGRAMS } else { PROGRAMS }),
            ..JobSpec::default()
        }
    }

    fn run_seeded(&self, seed: u64, tracer: Option<&Tracer>) -> JobOutput {
        let spec = self.spec(seed);
        let mut stream = StampedLines::default();
        let started = Instant::now();
        let submitted = match tracer {
            None => client::submit(&self.socket, &spec),
            Some(t) => t.span("serve.submit", || client::submit(&self.socket, &spec)),
        };
        let job = match submitted {
            Ok(job) => job,
            Err(e) => {
                eprintln!("submit failed: {e}");
                return JobOutput {
                    latency: started.elapsed(),
                    failures: 1,
                    ..JobOutput::default()
                };
            }
        };
        let state = match tracer {
            None => client::watch(&self.socket, &job, &mut stream),
            Some(t) => t.span("serve.watch", || {
                client::watch(&self.socket, &job, &mut stream)
            }),
        };
        let ended = Instant::now();
        let mut out = JobOutput {
            latency: ended - started,
            ..JobOutput::default()
        };
        if state.as_deref() != Ok("done") {
            eprintln!("{job} ended {state:?}");
            out.failures = 1;
        }
        let mut first_start = None;
        let mut last_end = None;
        for (at, line) in &stream.lines {
            let Ok(event) = Value::parse(line) else {
                continue;
            };
            let field = |name: &str| event.get(name).and_then(Value::as_u64).unwrap_or(0);
            match event.get("event").and_then(Value::as_str) {
                Some("shard_start") => {
                    first_start.get_or_insert(*at);
                }
                Some("shard_end") => {
                    last_end = Some(*at);
                    out.programs += field("programs");
                    out.outliers += field("outliers");
                    if let Some(t) = tracer {
                        t.count("serve.shards", 1.0);
                        t.count("serve.shard_us", field("wall_us") as f64);
                    }
                }
                Some("shard_spawned") => {
                    if let Some(t) = tracer {
                        t.count("serve.spawns", 1.0);
                    }
                }
                Some("shard_retry") => {
                    if let Some(t) = tracer {
                        t.count("serve.retries", 1.0);
                    }
                }
                _ => {}
            }
        }
        if let Some(t) = tracer {
            if let Some(first) = first_start {
                t.record("stream.queue_wait", started, first);
            }
            if let Some(last) = last_end {
                t.record("stream.merge", last, ended);
            }
        }
        match std::fs::read(self.state_dir.join(&job).join("catalog.txt")) {
            Ok(bytes) => {
                let mut d = Digest::default();
                d.bytes(&bytes);
                out.digest = d.finish();
            }
            Err(e) => {
                eprintln!("{job}: no catalog: {e}");
                out.failures = 1;
            }
        }
        out
    }
}

impl Workload for ServeWorkload {
    fn run_job(&self, index: usize, tracer: Option<&Tracer>) -> JobOutput {
        self.run_seeded(job_seed(self.seed, index), tracer)
    }

    fn warm_up(&self) {
        self.run_seeded(job_seed(WARMUP_SEED, 0), None);
    }

    /// In-process evolution of the same spec (what `ompfuzz evolve --quick
    /// --seed S` runs).
    fn reference_digest(&self, index: usize) -> u64 {
        let spec = self.spec(job_seed(self.seed, index));
        let mut config = EvolveConfig::quick();
        config.base.seed = spec.seed.expect("specs carry a seed");
        config.base.programs = spec.programs.expect("specs carry a budget") as usize;
        let dyns: Vec<&dyn OmpBackend> =
            self.backends.iter().map(|b| b as &dyn OmpBackend).collect();
        let catalog = run_evolution(&config, &dyns, TriggerCatalog::new()).catalog;
        let mut d = Digest::default();
        d.bytes(catalog.save_to_string().as_bytes());
        d.finish()
    }

    /// Every job is checked.
    fn reference_jobs(&self) -> usize {
        usize::MAX
    }

    fn teardown(&self) {
        let handle = self.daemon.lock().expect("daemon handle poisoned").take();
        if let Some(handle) = handle {
            if let Err(e) = client::shutdown(&self.socket, false) {
                eprintln!("daemon shutdown: {e}");
            }
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("daemon exited with error: {e}"),
                Err(_) => eprintln!("daemon thread panicked"),
            }
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
