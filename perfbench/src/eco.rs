//! `eco_svtd`: the interactive ECO loop against a real `svtd` daemon.
//!
//! One keep-alive connection drives a closed loop. Each cycle resizes a
//! seeded INVX1 instance of c3540 to INVX2, resizes it back, then reads
//! the design's timing. Reads share the connection with the writes: a
//! second, concurrent reader made read latency bimodal (a read either
//! passed or waited behind an ECO write lock).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use svt_core::snapshot::stack_fingerprint;
use svt_eco::{EcoEdit, EcoError, EcoSession};
use svt_obs::json::JsonValue;
use svt_serve::http::HttpClient;
use svt_serve::server::DesignSpec;
use svt_stdcell::{ExpandOptions, Library};

use crate::report::Report;
use crate::stats::{Samples, Tally};
use crate::sys::{ms_since, peak_rss_mb, proc_cpu_ms};
use crate::trace::{self, SpanTotals};
use crate::{Ctx, SplitMix};

const DESIGN: &str = "c3540";
/// Restore boots per run; `setup_s` is their median.
const SETUP_BOOTS: usize = 7;
/// Timing reads after each resize pair.
const READS_PER_CYCLE: usize = 4;
/// Every this many cycles a read body is compared with the baseline.
const CHECK_EVERY: u64 = 4;
/// How long a boot may take before the run gives up.
const BOOT_TIMEOUT: Duration = Duration::from_secs(120);
/// Larger than any run's request count, so the daemon never closes the
/// connection mid-run.
const KEEP_ALIVE_REQUESTS: &str = "1000000000";

/// The fingerprint of the stack `svtd` serves (fast expansion options).
#[must_use]
pub fn svtd_fingerprint() -> u64 {
    stack_fingerprint(
        &svt_bench::signoff_simulator(),
        &Library::svt90(),
        &ExpandOptions::fast(),
    )
}

/// A running `svtd`, killed and reaped when dropped. Killing is safe at
/// any point: the snapshot is written before the daemon announces its
/// address, and the benchmark needs nothing from a graceful drain.
struct Daemon {
    child: Child,
    addr: String,
    stdout: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `svtd` on an ephemeral port and waits until it announces
    /// its address (it warms the design first) and `/healthz` answers
    /// 200. Returns the daemon, the seconds that took, and the health
    /// body.
    fn boot(ctx: &Ctx, snapshot: &Path) -> Result<(Daemon, f64, JsonValue), String> {
        let start = Instant::now();
        let mut cmd = Command::new(&ctx.svtd);
        cmd.args(["--addr", "127.0.0.1:0", "--design", DESIGN])
            .args(["--keep-alive-requests", KEEP_ALIVE_REQUESTS])
            .arg("--snapshot")
            .arg(snapshot)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if ctx.trace {
            cmd.env("SVT_TRACE", "summary");
        } else {
            // The shipped configuration: the daemon picks its own trace
            // mode and keeps sampler and profiler on.
            cmd.env_remove("SVT_TRACE").env_remove("SVT_PROFILE");
        }
        crate::sys::die_with_parent(&mut cmd);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", ctx.svtd.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Drains the daemon's stdout for its whole life, so it never
        // blocks on a full pipe; the first `listening` line is the address.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("svtd: listening on http://") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stdout: Some(reader),
        };
        daemon.addr = rx
            .recv_timeout(BOOT_TIMEOUT)
            .map_err(|_| "svtd did not announce its address".to_string())?;
        let mut client = HttpClient::connect(&daemon.addr)?;
        let (status, body) = client.send("GET", "/healthz", "")?;
        let secs = start.elapsed().as_secs_f64();
        if status != 200 {
            return Err(format!("/healthz answered {status}: {body}"));
        }
        let health = JsonValue::parse(&body).map_err(|e| format!("/healthz body: {e}"))?;
        Ok((daemon, secs, health))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

fn snapshot_field<'a>(health: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    health.get("snapshot").and_then(|s| s.get(key))
}

fn resize(instance: &str, cell: &str) -> EcoEdit {
    EcoEdit::ResizeCell {
        instance: instance.to_string(),
        new_cell: cell.to_string(),
    }
}

fn resize_body(instance: &str, cell: &str) -> String {
    format!("{{\"type\":\"resize_cell\",\"instance\":\"{instance}\",\"new_cell\":\"{cell}\"}}")
}

/// Seeded choice of the instances to resize: every INVX1 instance of the
/// design whose INVX2 resize and the resize back are both accepted, in
/// seeded order. Every seed thus exercises the same set of edits (their
/// cost varies widely with the edit's fan-out cone), and a run cycles
/// through all of them. Probing happens on an in-process session over
/// the same stack the daemon serves, before any timing starts; a toggle
/// pair returns the session to the baseline.
fn pick_instances(session: &mut EcoSession<'_>, seed: u64) -> Result<Vec<String>, String> {
    let mut candidates: Vec<String> = session
        .netlist()
        .instances()
        .iter()
        .filter(|i| i.cell == "INVX1")
        .map(|i| i.name.clone())
        .collect();
    SplitMix(seed).shuffle(&mut candidates);
    let mut picks = Vec::new();
    for name in candidates {
        match session.apply(&resize(&name, "INVX2")) {
            Ok(_) => {}
            Err(EcoError::InvalidEdit { .. }) => continue,
            Err(e) => return Err(format!("probing {name}: {e}")),
        }
        session
            .apply(&resize(&name, "INVX1"))
            .map_err(|e| format!("resizing {name} back: {e}"))?;
        picks.push(name);
    }
    if picks.is_empty() {
        return Err("no INVX1 instance accepts an INVX2 resize".to_string());
    }
    Ok(picks)
}

/// Everything in a timing body except `edits_applied`.
fn timing_without_edits(body: &JsonValue) -> Vec<(String, JsonValue)> {
    body.as_object()
        .unwrap_or_default()
        .iter()
        .filter(|(k, _)| k != "edits_applied")
        .cloned()
        .collect()
}

/// A timing read must equal the baseline in every field except
/// `edits_applied`, which must equal the edits applied so far.
fn check_timing(body: &str, baseline: &JsonValue, edits: u64) -> Result<(), String> {
    let got = JsonValue::parse(body).map_err(|e| format!("timing body: {e}"))?;
    let applied = got.get("edits_applied").and_then(JsonValue::as_u64);
    if applied != Some(edits) {
        return Err(format!("edits_applied {applied:?}, expected {edits}"));
    }
    if timing_without_edits(&got) != timing_without_edits(baseline) {
        return Err(format!("timing moved after toggle pairs: {body}"));
    }
    Ok(())
}

/// Fields of one ECO response's delta report.
#[derive(Default)]
struct DeltaFields {
    recharacterized: Samples,
    rows_extracted: Samples,
    forward_instances: Samples,
    backward_nets: Samples,
}

impl DeltaFields {
    fn record(&mut self, body: &str) -> Result<(), String> {
        let v = JsonValue::parse(body).map_err(|e| format!("ECO body: {e}"))?;
        let count = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("ECO body has no `{k}`: {body}"))
        };
        let rows = v
            .get("rows_extracted")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("ECO body has no `rows_extracted`: {body}"))?;
        #[allow(clippy::cast_precision_loss)]
        {
            self.recharacterized.push(count("recharacterized")? as f64);
            self.rows_extracted.push(rows.len() as f64);
            self.forward_instances
                .push(count("forward_instances")? as f64);
            self.backward_nets.push(count("backward_nets")? as f64);
        }
        Ok(())
    }
}

/// Applies `edit` in-process with the traced daemon's instrumentation
/// on (summary spans, allocation counting, profiler), so that
/// `op_p50_ms - eco.apply_ms` leaves only the HTTP and serve cost.
/// Returns the wall time in milliseconds and the outcome.
fn apply_as_daemon(
    session: &mut EcoSession<'_>,
    edit: &EcoEdit,
) -> (f64, Result<svt_eco::DeltaReport, EcoError>) {
    crate::set_traced(true);
    svt_obs::profile::set_enabled(true);
    let t = Instant::now();
    let applied = session.apply(edit);
    let ms = ms_since(t);
    svt_obs::profile::set_enabled(false);
    crate::set_traced(false);
    (ms, applied)
}

fn daemon_spans(client: &mut HttpClient) -> Result<SpanTotals, String> {
    let (status, body) = client.send("GET", "/snapshot.json", "")?;
    if status != 200 {
        return Err(format!("/snapshot.json answered {status}"));
    }
    trace::spans_from_json(&body)
}

/// Runs `eco_svtd`; reports its metrics and returns the op tally. An op
/// is one HTTP request (ECO write or timing read).
///
/// # Errors
///
/// Returns a message when the daemon cannot be booted or the seeded
/// instances cannot be validated.
pub fn eco_svtd(ctx: &Ctx, report: &mut Report) -> Result<Tally, String> {
    let snapshot: PathBuf = ctx.tmp_dir.join(format!("{DESIGN}.svtsnap"));

    // Preparation, untimed: a cold boot writes the run's own snapshot.
    let (cold, cold_boot_s, health) = Daemon::boot(ctx, &snapshot)?;
    let size_bytes = snapshot_field(&health, "size_bytes")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    drop(cold);
    if !snapshot.exists() {
        return Err(format!(
            "cold boot wrote no snapshot at {}",
            snapshot.display()
        ));
    }

    // Set-up, timed: restore boots; the last one serves the loop.
    let mut setup = Samples::default();
    let mut restore_ms = Samples::default();
    let mut daemon = None;
    for _ in 0..SETUP_BOOTS {
        drop(daemon.take());
        let (d, secs, health) = Daemon::boot(ctx, &snapshot)?;
        let mode = snapshot_field(&health, "mode").and_then(JsonValue::as_str);
        if mode != Some("restored") {
            return Err(format!("restore boot came up {mode:?}, not restored"));
        }
        setup.push(secs);
        restore_ms.push(
            snapshot_field(&health, "restore_ms")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
        );
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one restore boot");

    // The same stack in-process, restored from the same snapshot: it
    // validates the seeded instances and replays the edits untimed by HTTP.
    svt_serve::server::configure_snapshot(Some(snapshot.display().to_string()));
    let mut session = svt_serve::server::warm_session(&DesignSpec::Iscas(DESIGN.to_string()))?;
    let picks = pick_instances(&mut session, ctx.seed)?;
    eprintln!(
        "perfbench: {} instances of {DESIGN} accept an INVX2 resize",
        picks.len()
    );

    let mut client = HttpClient::connect(&daemon.addr)?;
    let timing_path = format!("/designs/{DESIGN}/timing");
    let eco_path = format!("/designs/{DESIGN}/eco");
    let (status, baseline) = client.send("GET", &timing_path, "")?;
    if status != 200 {
        return Err(format!("baseline timing read answered {status}"));
    }
    let baseline = JsonValue::parse(&baseline).map_err(|e| format!("baseline timing: {e}"))?;
    let mut edits = baseline
        .get("edits_applied")
        .and_then(JsonValue::as_u64)
        .ok_or("baseline timing has no edits_applied")?;

    let spans_before = if ctx.trace {
        daemon_spans(&mut client)?
    } else {
        Vec::new()
    };
    let mut tally = Tally::default();
    let mut non2xx = 0u64;
    let mut ecos = Samples::default();
    let mut reads = Samples::default();
    let mut fields = DeltaFields::default();
    let mut apply = Samples::default();
    let cpu0 = proc_cpu_ms(daemon.pid()).unwrap_or(0.0);
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut cycles = 0u64;
    // An I/O error means the daemon is gone: it counts as a failed op and
    // ends the loop.
    'run: while cycles == 0 || Instant::now() < deadline {
        #[allow(clippy::cast_possible_truncation)]
        let instance = &picks[(cycles % picks.len() as u64) as usize];
        for cell in ["INVX2", "INVX1"] {
            let t = Instant::now();
            let sent = client.send("POST", &eco_path, &resize_body(instance, cell));
            let ms = ms_since(t);
            let ok = match sent {
                Ok((200, body)) => {
                    ecos.push(ms);
                    edits += 1;
                    fields
                        .record(&body)
                        .map_err(|e| eprintln!("perfbench: {e}"))
                        .is_ok()
                }
                Ok((status, body)) => {
                    non2xx += 1;
                    eprintln!("perfbench: ECO {instance} -> {cell} answered {status}: {body}");
                    false
                }
                Err(e) => {
                    eprintln!("perfbench: ECO request: {e}");
                    tally.record(false);
                    break 'run;
                }
            };
            tally.record(ok);
            if ctx.trace {
                // The same edit in-process, right after the request, so
                // both see the same host conditions: the engine's share.
                let (ms, applied) = apply_as_daemon(&mut session, &resize(instance, cell));
                apply.push(ms);
                if let Err(e) = applied {
                    return Err(format!("in-process replay of {instance} -> {cell}: {e}"));
                }
            }
        }
        for r in 0..READS_PER_CYCLE {
            let t = Instant::now();
            let sent = client.send("GET", &timing_path, "");
            let ms = ms_since(t);
            let ok = match sent {
                Ok((200, body)) => {
                    reads.push(ms);
                    if r == 0 && cycles.is_multiple_of(CHECK_EVERY) {
                        check_timing(&body, &baseline, edits)
                            .map_err(|e| eprintln!("perfbench: {e}"))
                            .is_ok()
                    } else {
                        true
                    }
                }
                Ok((status, body)) => {
                    non2xx += 1;
                    eprintln!("perfbench: timing read answered {status}: {body}");
                    false
                }
                Err(e) => {
                    eprintln!("perfbench: timing read: {e}");
                    tally.record(false);
                    break 'run;
                }
            };
            tally.record(ok);
        }
        cycles += 1;
    }
    let daemon_cpu_ms = proc_cpu_ms(daemon.pid()).unwrap_or(0.0) - cpu0;
    let eco = ecos.summary();

    if ctx.trace {
        let spans = trace::since(&daemon_spans(&mut client)?, &spans_before);
        trace::write_spans(
            &ctx.out_dir
                .join(format!("trace-eco_svtd-{}.json", ctx.seed)),
            &spans,
        );
        let apply = apply.summary();
        report.median("eco.apply_ms", "ms", apply);
        report.value("serve.overhead_ms", "ms", eco.p50 - apply.p50);
        #[allow(clippy::cast_precision_loss)]
        report.value(
            "serve.cpu_ms_per_cycle",
            "ms",
            daemon_cpu_ms / cycles as f64,
        );
        report.median(
            "eco.recharacterized",
            "count",
            fields.recharacterized.summary(),
        );
        report.median(
            "eco.rows_extracted",
            "count",
            fields.rows_extracted.summary(),
        );
        report.median(
            "eco.forward_instances",
            "count",
            fields.forward_instances.summary(),
        );
        report.median("eco.backward_nets", "count", fields.backward_nets.summary());
        report.value("serve.cold_boot_s", "s", cold_boot_s);
        #[allow(clippy::cast_precision_loss)]
        report.value("serve.non2xx", "count", non2xx as f64);
        report.median("snap.restore_ms", "ms", restore_ms.summary());
        #[allow(clippy::cast_precision_loss)]
        report.value("snap.size_mb", "MB", size_bytes as f64 / (1024.0 * 1024.0));
        for (name, leaf) in [
            ("trace.eco.litho.self_ms", "eco.litho"),
            ("trace.eco.characterize.self_ms", "eco.characterize"),
            ("trace.eco.timing.self_ms", "eco.timing"),
            (
                "trace.sta.analyze_incremental.self_ms",
                "sta.analyze_incremental",
            ),
        ] {
            report.value(name, "ms", trace::self_ms_per_op(&spans, leaf, eco.n));
        }
        // `serve.request` wraps every request, reads too: the loop's, and
        // the first `/snapshot.json` read, whose span closed after its own
        // snapshot was taken.
        #[allow(clippy::cast_possible_truncation)]
        let requests = tally.attempted as usize + 1;
        report.value(
            "trace.serve.request.self_ms",
            "ms",
            trace::self_ms_per_op(&spans, "serve.request", requests),
        );
    } else {
        report.median("setup_s", "s", setup.summary());
        report.median("op_p50_ms", "ms", eco);
        report.median("read_p50_ms", "ms", reads.summary());
        // 0 only when the daemon died, which already failed the run.
        report.value(
            "peak_rss_mb",
            "MB",
            peak_rss_mb(&daemon.pid().to_string()).unwrap_or(0.0),
        );
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_check_ignores_only_the_edit_count() {
        let baseline =
            JsonValue::parse(r#"{"testcase":"c3540","aware":{"wc_ns":12.363},"edits_applied":0}"#)
                .expect("json");
        let same = r#"{"testcase":"c3540","aware":{"wc_ns":12.363},"edits_applied":6}"#;
        assert_eq!(check_timing(same, &baseline, 6), Ok(()));
        assert!(check_timing(same, &baseline, 4).is_err());
        let moved = r#"{"testcase":"c3540","aware":{"wc_ns":12.364},"edits_applied":6}"#;
        assert!(check_timing(moved, &baseline, 6).is_err());
    }

    #[test]
    fn delta_fields_read_the_report_counts() {
        let mut f = DeltaFields::default();
        f.record(
            r#"{"edit":"resize g1 -> INVX2","rows_extracted":[3,4],"recharacterized":5,
                "forward_instances":40,"backward_nets":12}"#,
        )
        .expect("complete body");
        assert_eq!(f.rows_extracted.p50(), 2.0);
        assert_eq!(f.recharacterized.p50(), 5.0);
        assert!(f.record(r#"{"edit":"x"}"#).is_err());
    }
}
