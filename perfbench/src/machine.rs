//! What machine made a result: recorded beside every run, so results
//! from unlike machines are never compared.

use aml_telemetry::json_string_literal;
use std::fs;
use std::path::Path;

/// Peak resident set of process `pid` (`"self"` for this one) in KiB:
/// the kernel's `VmHWM`. `None` when `/proc` has no such process.
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// 64-bit FNV-1a, the digest used for output checks and fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    pub fn f64s(&mut self, xs: &[f64]) -> &mut Self {
        self.u64(xs.len() as u64);
        for x in xs {
            self.u64(x.to_bits());
        }
        self
    }

    pub fn usizes(&mut self, xs: &[usize]) -> &mut Self {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.u64(x as u64);
        }
        self
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fingerprint of the hardware: CPU model, logical CPU count and total
/// memory, hashed. Hostnames are left out, so two containers on one
/// kind of machine share a fingerprint.
pub fn host_fingerprint() -> String {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| std::env::consts::ARCH.to_string());
    let meminfo = fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let mem = meminfo
        .lines()
        .find(|l| l.starts_with("MemTotal:"))
        .unwrap_or("")
        .to_string();
    let mut h = Fnv::default();
    h.bytes(model.as_bytes())
        .u64(nproc() as u64)
        .bytes(mem.as_bytes());
    format!("{model} / {:016x}", h.0)
}

/// The git revision of the checkout the benchmark runs in, read from
/// `.git` without running git; `"none"` outside a git checkout.
pub fn git_revision(root: &Path) -> String {
    let head = match fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = fs::read_to_string(root.join(".git").join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(root.join(".git/packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".to_string())
}

/// The machine record printed beside every result, as one JSON object.
pub fn record(workload: &str, seed: u64, input_seeds: &[u64], threads: usize) -> String {
    let seeds: Vec<String> = input_seeds.iter().map(u64::to_string).collect();
    format!(
        "{{\"machine\":{{\"nproc\":{},\"threads\":{threads},\"host\":{},\"git\":{}}},\
         \"workload\":{},\"seed\":{seed},\"input_seeds\":[{}]}}",
        nproc(),
        json_string_literal(&host_fingerprint()),
        json_string_literal(&git_revision(Path::new("."))),
        json_string_literal(workload),
        seeds.join(","),
    )
}
