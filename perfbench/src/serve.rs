//! The serve layer, measured by a probe in firewall's traced run: start
//! `amlserve` with two workers and submit small fixed two-moons jobs from
//! one client on an open-loop schedule.
//!
//! Open-loop discipline: the main thread sends each job when it is due,
//! whatever the earlier jobs are doing; a second thread polls `GET /jobs`
//! and `GET /metrics` every [`POLL`] (well under the server's 20 ms
//! accept-loop sleep) and notes when each job is first seen done. A job's
//! latency runs from its due time to that moment, so a late generator is
//! charged, and how late it ran is reported. Refused (429/503), failed
//! and timed-out jobs are counted as failed.

use crate::digests;
use aml_bench::minijson::{self, Value};
use std::collections::HashMap;
use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// amlserve worker processes; each job searches on one thread, so the
/// probe never runs more than two threads of ML work.
pub const WORKERS: usize = 2;

/// Client poll interval.
pub const POLL: Duration = Duration::from_millis(5);

/// A job not seen done this long after its due time counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(10);

/// The probe's offered rate, jobs per second: well under the 25 to 48
/// jobs/s a 2-core machine sustains, so jobs do not queue.
pub const RATE: f64 = 10.0;

/// Jobs of the probe.
pub const PROBE_JOBS: usize = 60;

/// Distinct job inputs, each with its `final_acc` pinned.
pub const N_INPUTS: usize = 8;

/// Seed of job input `idx` (job seed and dataset seed).
pub fn input_seed(idx: usize) -> u64 {
    0x5E_0000 + idx as u64
}

/// The fixed job for input `idx`.
pub fn job_spec(idx: usize) -> String {
    let seed = input_seed(idx);
    format!(
        "{{\"name\":\"perfbench\",\"seed\":{seed},\
         \"dataset\":{{\"kind\":\"two_moons\",\"n\":240,\"noise\":0.25,\"seed\":{seed}}},\
         \"rounds\":[\"Without feedback\",\"Within-ALE\"],\"n_candidates\":10,\"parallelism\":1}}"
    )
}

/// One HTTP/1.1 request with `Connection: close`; returns the status
/// code and body.
fn http(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    s.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut text = String::new();
    s.read_to_string(&mut text)?;
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

/// A running `amlserve`.
pub struct Server {
    child: Child,
    pub addr: String,
    pub data: PathBuf,
}

impl Server {
    /// Start the server on an ephemeral port in `data`; returns once
    /// `/healthz` answers.
    pub fn start(exe: &Path, data: &Path) -> std::io::Result<Server> {
        let _ = fs::remove_dir_all(data);
        fs::create_dir_all(data)?;
        let started = Instant::now();
        let child = Command::new(exe)
            .args(["amlserve", "--addr", "127.0.0.1:0", "--data"])
            .arg(data)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut server = Server {
            child,
            addr: String::new(),
            data: data.to_path_buf(),
        };
        while started.elapsed() < Duration::from_secs(20) {
            if server.addr.is_empty() {
                if let Ok(a) = fs::read_to_string(data.join("serve.addr")) {
                    server.addr = a.trim().to_string();
                }
            }
            if !server.addr.is_empty()
                && http(&server.addr, "GET", "/healthz", "").is_ok_and(|(code, _)| code == 200)
            {
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(std::io::Error::other(format!("amlserve exited: {status}")));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        server.stop();
        Err(std::io::Error::other("amlserve did not answer /healthz"))
    }

    /// Graceful shutdown, then wait for the process; killed if it does
    /// not drain in time.
    pub fn stop(mut self) {
        if !self.addr.is_empty() {
            let _ = http(&self.addr, "POST", "/shutdown", "");
        }
        let deadline = Instant::now() + Duration::from_secs(15);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    /// A server still running here (a stop that timed out, or a panic
    /// between start and stop) is killed and reaped, never left behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What the client observed of one submitted job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Server job id; `None` when the submit was not accepted.
    pub id: Option<String>,
    pub input: usize,
    /// Submit round trip (ms).
    pub submit_ms: f64,
    /// How late the send was against its due time (ms).
    pub lag_ms: f64,
    /// Due time to first seen done (ms); infinite when refused, failed,
    /// timed out, or when its output fails its check.
    pub latency_ms: f64,
    pub refused: bool,
    /// The worker's own wall time (`result.json` `wall_time_s`).
    pub worker_s: Option<f64>,
}

impl Job {
    pub fn ok(&self) -> bool {
        self.latency_ms.is_finite()
    }
}

/// One schedule of jobs: what each job gave, and the largest
/// `serve_jobs_queued` read from `/metrics` while it ran.
pub struct Probe {
    pub jobs: Vec<Job>,
    pub queued_gauge_max: u64,
}

#[derive(Default)]
struct Observed {
    done: HashMap<String, Instant>,
    failed: HashMap<String, Instant>,
    queued_gauge_max: u64,
}

fn poll_once(addr: &str, seen: &Mutex<Observed>) {
    let Ok((200, body)) = http(addr, "GET", "/jobs", "") else {
        return;
    };
    let now = Instant::now();
    let Ok(v) = minijson::parse(&body) else {
        return;
    };
    let mut obs = seen.lock().unwrap();
    for job in v.get("jobs").and_then(Value::as_arr).unwrap_or(&[]) {
        let (Some(id), Some(state)) = (
            job.get("id").and_then(Value::as_str),
            job.get("state").and_then(Value::as_str),
        ) else {
            continue;
        };
        let slot = match state {
            "done" => &mut obs.done,
            "failed" | "canceled" => &mut obs.failed,
            _ => continue,
        };
        slot.entry(id.to_string()).or_insert(now);
    }
    drop(obs);
    if let Ok((200, text)) = http(addr, "GET", "/metrics", "") {
        let gauge = text
            .lines()
            .find_map(|l| l.strip_prefix("serve_jobs_queued "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0) as u64;
        let mut obs = seen.lock().unwrap();
        obs.queued_gauge_max = obs.queued_gauge_max.max(gauge);
    }
}

fn read_result(job_dir: &Path) -> Option<Value> {
    let text = fs::read_to_string(job_dir.join("result.json")).ok()?;
    minijson::parse(&text).ok()
}

/// A finished job's `final_acc`.
pub fn final_acc(job_dir: &Path) -> Option<f64> {
    read_result(job_dir)?.get("final_acc")?.as_f64()
}

/// Check a finished job's output against its pinned result; returns the
/// worker wall time, or `None` when the output is wrong.
fn check_result(job_dir: &Path, input: usize) -> Option<f64> {
    let v = read_result(job_dir)?;
    let acc = v.get("final_acc")?.as_f64()?;
    let trials_failed = v.get("trials_failed")?.as_u64()?;
    let pinned = digests::SERVE_FINAL_ACC.get(input).copied();
    if trials_failed != 0 || pinned != Some(acc.to_bits()) {
        eprintln!(
            "[perfbench] job {}: final_acc {acc} trials_failed {trials_failed} \
             does not match its pinned result",
            job_dir.display()
        );
        return None;
    }
    v.get("wall_time_s")?.as_f64()
}

/// Send `n_jobs` jobs at `rate` per second, inputs cycling from
/// `first_input`. Waits until every accepted job is done or timed out.
pub fn run_jobs(server: &Server, rate: f64, n_jobs: usize, first_input: usize) -> Probe {
    let seen = Arc::new(Mutex::new(Observed::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let poller = {
        let (addr, seen, stop) = (server.addr.clone(), Arc::clone(&seen), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let next = Instant::now() + POLL;
                poll_once(&addr, &seen);
                std::thread::sleep(next.saturating_duration_since(Instant::now()));
            }
        })
    };

    let t0 = Instant::now() + Duration::from_millis(20);
    let mut sent: Vec<(Instant, Job)> = Vec::with_capacity(n_jobs);
    for j in 0..n_jobs {
        let due = t0 + Duration::from_secs_f64(j as f64 / rate);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let send = Instant::now();
        let input = (first_input + j) % N_INPUTS;
        let reply = http(&server.addr, "POST", "/submit", &job_spec(input));
        let submit_ms = send.elapsed().as_secs_f64() * 1e3;
        let id = match &reply {
            Ok((202, body)) => minijson::parse(body)
                .ok()
                .and_then(|v| v.get("job").and_then(Value::as_str).map(str::to_string)),
            _ => None,
        };
        sent.push((
            due,
            Job {
                id,
                input,
                submit_ms,
                lag_ms: (send - due).as_secs_f64() * 1e3,
                latency_ms: f64::INFINITY,
                refused: matches!(reply, Ok((429 | 503, _))),
                worker_s: None,
            },
        ));
    }
    let last_due = sent.last().map_or(t0, |s| s.0);

    // Wait for every accepted job to end (done, failed, or timeout).
    loop {
        let pending = {
            let seen = seen.lock().unwrap();
            sent.iter().any(|(_, job)| {
                job.id
                    .as_ref()
                    .is_some_and(|id| !seen.done.contains_key(id) && !seen.failed.contains_key(id))
            })
        };
        if !pending || Instant::now() > last_due + JOB_TIMEOUT {
            break;
        }
        std::thread::sleep(POLL);
    }
    stop.store(true, Ordering::Relaxed);
    let _ = poller.join();

    let seen = Arc::try_unwrap(seen)
        .ok()
        .map(|m| m.into_inner().unwrap())
        .unwrap_or_default();
    let mut jobs = Vec::with_capacity(sent.len());
    for (due, mut job) in sent {
        if let Some(id) = &job.id {
            let dir = server.data.join("jobs").join(id);
            if let Some(&at) = seen.done.get(id) {
                if at <= due + JOB_TIMEOUT {
                    if let Some(worker_s) = check_result(&dir, job.input) {
                        job.latency_ms = (at - due).as_secs_f64() * 1e3;
                        job.worker_s = Some(worker_s);
                    }
                }
            }
        }
        jobs.push(job);
    }
    Probe {
        jobs,
        queued_gauge_max: seen.queued_gauge_max,
    }
}

/// Summary figures over a probe's jobs.
pub fn ok_values(jobs: &[Job], f: impl Fn(&Job) -> Option<f64>) -> Vec<f64> {
    jobs.iter().filter(|j| j.ok()).filter_map(f).collect()
}
