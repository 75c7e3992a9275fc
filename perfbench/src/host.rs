//! The fingerprint every result row carries: CPU model, the SIMD arms the
//! kernels dispatched to, core count, and the revision of the source that
//! was built.
//!
//! The benchmark may run from a source tree that is not a git checkout, so
//! the revision is a hash of the sources the binary was built from.

use std::path::{Path, PathBuf};

#[derive(Debug, Clone)]
pub struct Host {
    pub cpu: String,
    pub kernel: &'static str,
    pub qkernel: &'static str,
    pub cores: usize,
    pub rev: String,
}

impl Host {
    pub fn detect() -> Self {
        Self {
            cpu: cpu_brand(),
            kernel: tensor::ops::kernel_arch().label(),
            qkernel: tensor::ops::qkernel_arch().label(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rev: source_rev(&repo_root()),
        }
    }

    /// The fingerprint as JSON object members (no braces).
    pub fn json_members(&self) -> String {
        format!(
            "\"host\": {{\"cpu\": {}, \"kernel_arch\": {}, \"qkernel_arch\": {}, \"cores\": {}}}, \"rev\": {}",
            crate::report::json_str(&self.cpu),
            crate::report::json_str(self.kernel),
            crate::report::json_str(self.qkernel),
            self.cores,
            crate::report::json_str(&self.rev)
        )
    }
}

/// The source tree this binary was built from (the benchmark package sits
/// one level below it).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the source tree")
        .to_path_buf()
}

#[cfg(target_arch = "x86_64")]
fn cpu_brand() -> String {
    use std::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown x86_64".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_brand() -> String {
    std::env::consts::ARCH.to_string()
}

/// FNV-1a over the relative path and contents of every Rust source and
/// manifest under the workspace crates, the root package and this
/// benchmark, in sorted path order.
fn source_rev(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"] {
        collect_sources(&root.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("src-fnv64:{h:016x} ({} files)", files.len())
}

fn collect_sources(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        let keep = matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml" | "lock")
        );
        if keep {
            out.push(path.to_path_buf());
        }
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if entry.file_type().is_ok_and(|t| t.is_dir() || t.is_file()) {
            collect_sources(&p, out);
        }
    }
}
