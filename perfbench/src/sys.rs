//! Process clocks, `/proc` readings and the host tag every result carries.

use std::time::Instant;

/// Milliseconds since `from`.
#[must_use]
pub fn ms_since(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: std::ffi::c_ulong = 9;

/// Makes the kernel kill the child `cmd` spawns when this process dies,
/// so a benchmark killed from outside leaves no daemon behind.
pub fn die_with_parent(cmd: &mut std::process::Command) {
    use std::os::unix::process::CommandExt;
    // SAFETY: the hook runs in the forked child before exec; it makes one
    // async-signal-safe system call and touches no memory of the parent.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used on all its threads, in milliseconds.
#[must_use]
pub fn process_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux); clock_gettime only writes through it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let ms = ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6;
    ms
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MiB.
#[must_use]
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    #[allow(clippy::cast_precision_loss)]
    let mb = kb as f64 / 1024.0;
    Some(mb)
}

/// User + system CPU of process `pid` in milliseconds, from
/// `/proc/<pid>/stat` (10 ms ticks; read over a whole run, not per
/// request).
#[must_use]
pub fn proc_cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after `) state`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI this runs on.
    #[allow(clippy::cast_precision_loss)]
    let ms = (utime + stime) as f64 * 10.0;
    Some(ms)
}

/// What a result must carry so that results from different hosts or
/// engine builds are never compared.
#[derive(Debug, Clone)]
pub struct HostTag {
    /// The workload seed.
    pub seed: u64,
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Worker threads the program runs with (`SVT_THREADS` or nproc).
    pub threads: usize,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
    /// `svt_core::snapshot::stack_fingerprint` of the stack the workload
    /// runs, as 16 hex digits.
    pub stack_fingerprint: String,
}

impl HostTag {
    /// Tags a run of the stack with fingerprint `fingerprint`.
    #[must_use]
    pub fn collect(seed: u64, fingerprint: u64) -> HostTag {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        // Git must not look above the working directory: a checkout that is
        // not a repository of its own has no commit.
        let ceiling = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
            .unwrap_or_default();
        let git_commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        HostTag {
            seed,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            threads: svt_exec::resolve_threads(None),
            git_commit,
            stack_fingerprint: format!("{fingerprint:016x}"),
        }
    }

    /// The tag as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seed\": {}, \"nproc\": {}, \"cpu_model\": \"{}\", \"threads\": {}, \"git_commit\": \"{}\", \"stack_fingerprint\": \"{}\"}}",
            self.seed,
            self.nproc,
            svt_obs::json::escape_json(&self.cpu_model),
            self.threads,
            svt_obs::json::escape_json(&self.git_commit),
            self.stack_fingerprint
        )
    }
}
