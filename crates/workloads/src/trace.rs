//! Syscall-level workload traces.
//!
//! A [`Trace`] is the replayable representation of one of the paper's
//! evaluation workloads: the exact sequence of process and file-system
//! events the PASS kernel would observe, plus compute/memory phases that
//! consume client CPU time. The [`driver`](crate::driver) replays a trace
//! against a [`PaS3fs`](cloudprov_fs::PaS3fs) instance.

/// One observed event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Process exec with descriptive attributes.
    Exec {
        /// Process id.
        pid: u64,
        /// Process name.
        name: String,
        /// Command line.
        argv: Vec<String>,
        /// Environment size in bytes (synthesized deterministically).
        env_bytes: usize,
        /// Executable path, recorded as a dependency.
        exe: Option<String>,
    },
    /// Process fork.
    Fork {
        /// Parent pid.
        parent: u64,
        /// Child pid.
        child: u64,
    },
    /// File open (s3fs getattr).
    Open {
        /// Acting pid.
        pid: u64,
        /// Path.
        path: String,
    },
    /// Read `bytes` from `path`.
    Read {
        /// Acting pid.
        pid: u64,
        /// Path.
        path: String,
        /// Bytes read.
        bytes: u64,
    },
    /// Write `bytes` to `path`.
    Write {
        /// Acting pid.
        pid: u64,
        /// Path.
        path: String,
        /// Bytes written.
        bytes: u64,
    },
    /// Close (triggers upload of dirty data + provenance).
    Close {
        /// Acting pid.
        pid: u64,
        /// Path.
        path: String,
    },
    /// Standalone getattr (directory scans, lookups).
    Stat {
        /// Acting pid.
        pid: u64,
        /// Path.
        path: String,
    },
    /// Unlink (deletes cloud data; provenance persists).
    Unlink {
        /// Acting pid.
        pid: u64,
        /// Path.
        path: String,
    },
    /// Rename.
    Rename {
        /// Acting pid.
        pid: u64,
        /// Old path.
        from: String,
        /// New path.
        to: String,
    },
    /// Pipe creation.
    PipeCreate {
        /// Pipe id.
        id: u64,
    },
    /// Pipe write.
    PipeWrite {
        /// Acting pid.
        pid: u64,
        /// Pipe id.
        id: u64,
    },
    /// Pipe read.
    PipeRead {
        /// Acting pid.
        pid: u64,
        /// Pipe id.
        id: u64,
    },
    /// CPU-bound phase (UML factor 2×, §5.2).
    Compute {
        /// Native duration in microseconds.
        micros: u64,
    },
    /// Memory-pressure-bound phase (steeper UML factor; this is what made
    /// Blast collapse from 650 s to 1322 s under UML's 512 MB, §5.2).
    MemBound {
        /// Native duration in microseconds.
        micros: u64,
    },
    /// Process exit.
    Exit {
        /// Exiting pid.
        pid: u64,
    },
}

/// A complete workload trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Workload name ("nightly", "blast", "challenge").
    pub name: String,
    /// The event sequence.
    pub events: Vec<TraceEvent>,
}

/// Summary statistics of a trace (used to sanity-check generators against
/// the paper's workload characterizations).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Number of events.
    pub events: usize,
    /// Distinct files written.
    pub files_written: usize,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Close events.
    pub closes: usize,
    /// Open + Stat events (the baseline's HEAD traffic).
    pub lookups: usize,
    /// Exec events.
    pub execs: usize,
    /// Total native compute time, microseconds.
    pub compute_micros: u64,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new(name: impl Into<String>) -> Trace {
        Trace {
            name: name.into(),
            events: Vec::new(),
        }
    }

    /// Appends an event.
    pub fn push(&mut self, e: TraceEvent) {
        self.events.push(e);
    }

    /// Computes summary statistics.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats {
            events: self.events.len(),
            ..TraceStats::default()
        };
        let mut written = std::collections::BTreeSet::new();
        for e in &self.events {
            match e {
                TraceEvent::Write { path, bytes, .. } => {
                    written.insert(path.clone());
                    s.bytes_written += bytes;
                }
                TraceEvent::Read { bytes, .. } => s.bytes_read += bytes,
                TraceEvent::Close { .. } => s.closes += 1,
                TraceEvent::Open { .. } | TraceEvent::Stat { .. } => s.lookups += 1,
                TraceEvent::Exec { .. } => s.execs += 1,
                TraceEvent::Compute { micros } | TraceEvent::MemBound { micros } => {
                    s.compute_micros += micros;
                }
                _ => {}
            }
        }
        s.files_written = written.len();
        s
    }
}

/// Deterministic synthetic environment block of roughly `bytes` bytes:
/// `VAR_<seed>_<i>=<path list>` lines joined by `\n`, the form
/// [`ProcessInfo::env`](cloudprov_pass::ProcessInfo::env) holds (process
/// environments are what push provenance values past SimpleDB's 1 KB
/// limit, forcing the P2/P3 spill path). Empty below 41 bytes.
pub fn synthetic_env(bytes: usize, seed: u64) -> String {
    if bytes <= 40 {
        return String::new();
    }
    // The last line starts below `bytes - 40` and runs some 60 bytes.
    let mut out = String::with_capacity(bytes + 64);
    let key = format!("VAR_{seed:04x}_");
    let dir = format!("/opt/pkg/{seed:x}/");
    let mut digits = [0; 20];
    let mut i = 0u64;
    // The lines' bytes, each with its end, the last one's too.
    let mut total = 0;
    while total + 40 < bytes {
        if i > 0 {
            out.push('\n');
        }
        let i_text = decimal(i, &mut digits);
        out.push_str(&key);
        out.push_str(i_text);
        out.push('=');
        out.push_str(&dir);
        out.push_str(i_text);
        out.push_str("/lib:/usr/lib:/usr/local/lib");
        total = out.len() + 1;
        i += 1;
    }
    out
}

/// `n` in decimal, written into the end of `buf`.
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII")
}

/// The pairs [`synthetic_env`] once returned, joined as `Observer::exec`
/// joined them: the block's reference.
#[cfg(test)]
fn synthetic_env_by_pairs(bytes: usize, seed: u64) -> String {
    let mut out = Vec::new();
    let mut total = 0usize;
    let mut i = 0u64;
    while total + 40 < bytes {
        let k = format!("VAR_{seed:04x}_{i}");
        let v = format!("/opt/pkg/{seed:x}/{i}/lib:/usr/lib:/usr/local/lib");
        total += k.len() + v.len() + 2;
        out.push((k, v));
        i += 1;
    }
    out.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_aggregate_correctly() {
        let mut t = Trace::new("test");
        t.push(TraceEvent::Exec {
            pid: 1,
            name: "p".into(),
            argv: vec![],
            env_bytes: 0,
            exe: None,
        });
        t.push(TraceEvent::Open {
            pid: 1,
            path: "/a".into(),
        });
        t.push(TraceEvent::Write {
            pid: 1,
            path: "/a".into(),
            bytes: 100,
        });
        t.push(TraceEvent::Write {
            pid: 1,
            path: "/a".into(),
            bytes: 50,
        });
        t.push(TraceEvent::Read {
            pid: 1,
            path: "/b".into(),
            bytes: 10,
        });
        t.push(TraceEvent::Close {
            pid: 1,
            path: "/a".into(),
        });
        t.push(TraceEvent::Stat {
            pid: 1,
            path: "/a".into(),
        });
        t.push(TraceEvent::Compute { micros: 500 });
        let s = t.stats();
        assert_eq!(s.events, 8);
        assert_eq!(s.files_written, 1);
        assert_eq!(s.bytes_written, 150);
        assert_eq!(s.bytes_read, 10);
        assert_eq!(s.closes, 1);
        assert_eq!(s.lookups, 2);
        assert_eq!(s.execs, 1);
        assert_eq!(s.compute_micros, 500);
    }

    #[test]
    fn synthetic_env_hits_target_size() {
        for target in [512usize, 2048, 6144] {
            let env = synthetic_env(target, 7);
            // Each variable's key, value, `=` and line end.
            let total: usize = env.lines().map(|line| line.len() + 1).sum();
            assert!(total <= target + 64, "at most one entry of overshoot");
            assert!(total > target / 2, "reasonably close to target");
        }
    }

    #[test]
    fn synthetic_env_is_deterministic() {
        assert_eq!(synthetic_env(1000, 3), synthetic_env(1000, 3));
        assert_ne!(synthetic_env(1000, 3), synthetic_env(1000, 4));
    }

    #[test]
    fn synthetic_env_block_is_the_pairs_joined() {
        for bytes in [0, 40, 41, 42, 100, 999, 2500, 6000] {
            for seed in [0, 1, 7, 0xabcd, 0x1_0000, u64::MAX] {
                let block = synthetic_env(bytes, seed);
                assert_eq!(
                    block,
                    synthetic_env_by_pairs(bytes, seed),
                    "{bytes} bytes, seed {seed}"
                );
                assert_eq!(block.is_empty(), bytes < 41, "{bytes} bytes");
            }
        }
        for n in [0, 9, 10, 99, 100, u64::MAX] {
            assert_eq!(decimal(n, &mut [0; 20]), n.to_string());
        }
    }
}
