//! Always-on continuous profiler: collapsed span-stack aggregation with
//! a hand-rolled flame-graph renderer.
//!
//! Every [`crate::Span`] drop already knows its full `/`-joined stack
//! path and duration; when profiling is enabled, the drop additionally
//! folds `(path, wall_ns, alloc_bytes)` into a sharded aggregation map
//! here. The profile therefore stays consistent with the registry's
//! [`crate::SpanEntry`] aggregates by construction — the wall-ns folded
//! under a stack equals the `total_ns` of the same span path, which the
//! profiler differential test asserts exactly on a single-threaded run.
//!
//! # Cost contract
//!
//! Mirrors `SVT_TRACE`: disabled (the default), the only cost is **one
//! relaxed atomic load** inside an already-enabled span drop — and spans
//! themselves are inert when tracing is off, so batch runs pay nothing
//! at all. Enabled, each span drop takes one shard lock (the same order
//! of cost as the registry's own `span_stat` lookup on that path).
//! `SVT_PROFILE=1`/`on` arms it from the environment; `svtd` arms it
//! explicitly at boot.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Environment variable arming the profiler (`1`, `true`, or `on`).
pub const PROFILE_ENV: &str = "SVT_PROFILE";

const STATE_UNSET: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);

#[cold]
fn init_from_env() -> u8 {
    let raw = std::env::var(PROFILE_ENV).unwrap_or_default();
    let raw = raw.trim();
    let code = if raw == "1" || raw.eq_ignore_ascii_case("on") || raw.eq_ignore_ascii_case("true") {
        STATE_ON
    } else {
        STATE_OFF
    };
    STATE.store(code, Ordering::Relaxed);
    code
}

/// Whether stack folding is active. One relaxed load after the first
/// call — this is the only cost a profiler-off span drop pays.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_UNSET => init_from_env() == STATE_ON,
        code => code == STATE_ON,
    }
}

/// Arms or disarms the profiler at runtime, overriding `SVT_PROFILE`.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Aggregate of one collapsed stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Agg {
    count: u64,
    wall_ns: u64,
    alloc_bytes: u64,
}

const SHARDS: usize = 16;

fn shards() -> &'static [Mutex<HashMap<String, Agg>>; SHARDS] {
    static SHARDS_CELL: OnceLock<[Mutex<HashMap<String, Agg>>; SHARDS]> = OnceLock::new();
    SHARDS_CELL.get_or_init(|| std::array::from_fn(|_| Mutex::new(HashMap::new())))
}

fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Folds one completed span into the profile under its `/`-joined stack
/// path. Called from [`crate::Span`]'s drop with the **same** duration
/// it records into the registry, so the two stay bit-consistent.
pub fn record(stack: &str, wall_ns: u64, alloc_bytes: u64) {
    let hash = BuildHasherDefault::<DefaultHasher>::default().hash_one(stack);
    let shard = &shards()[(hash >> 32) as usize & (SHARDS - 1)];
    let mut map = lock_recovering(shard);
    // Look up before inserting: `entry` would allocate the key on every
    // span drop, not just on a stack's first sight.
    let agg = match map.get_mut(stack) {
        Some(agg) => agg,
        None => map.entry(stack.to_string()).or_default(),
    };
    agg.count += 1;
    agg.wall_ns += wall_ns;
    agg.alloc_bytes += alloc_bytes;
}

/// One collapsed stack in a profile snapshot. `wall_ns` is inclusive
/// (children's time is also inside their ancestors' stacks — exactly as
/// span aggregation works); the renderers derive self time as
/// `inclusive − Σ direct children`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackEntry {
    /// `/`-separated span stack, root first.
    pub stack: String,
    /// Completed spans folded under this exact stack.
    pub count: u64,
    /// Inclusive wall nanoseconds.
    pub wall_ns: u64,
    /// Inclusive heap bytes allocated while the stack was innermost-open
    /// (0 unless alloc telemetry was active).
    pub alloc_bytes: u64,
}

/// The profile so far, sorted by stack path.
#[must_use]
pub fn snapshot() -> Vec<StackEntry> {
    let mut entries: Vec<StackEntry> = Vec::new();
    for shard in shards() {
        for (stack, agg) in lock_recovering(shard).iter() {
            entries.push(StackEntry {
                stack: stack.clone(),
                count: agg.count,
                wall_ns: agg.wall_ns,
                alloc_bytes: agg.alloc_bytes,
            });
        }
    }
    entries.sort_by(|a, b| a.stack.cmp(&b.stack));
    entries
}

/// Discards every folded stack (benchmark sections, tests).
pub fn reset() {
    for shard in shards() {
        lock_recovering(shard).clear();
    }
}

/// Self wall-ns of `entry` within `entries`: inclusive time minus the
/// inclusive time of its direct children (clamped at zero — relaxed
/// counters can skew a few ns between parent and child).
#[must_use]
pub fn self_ns(entry: &StackEntry, entries: &[StackEntry]) -> u64 {
    let prefix = format!("{}/", entry.stack);
    let children: u64 = entries
        .iter()
        .filter(|e| e.stack.starts_with(&prefix) && !e.stack[prefix.len()..].contains('/'))
        .map(|e| e.wall_ns)
        .sum();
    entry.wall_ns.saturating_sub(children)
}

/// Renders the profile in Brendan-Gregg collapsed form — one
/// `seg;seg;seg self_wall_ns` line per stack, the format every flame
/// graph tool ingests. Stacks whose self time rounds to zero still
/// print (count carries information), sorted by path.
#[must_use]
pub fn render_collapsed(entries: &[StackEntry]) -> String {
    let mut out = String::with_capacity(entries.len() * 48);
    for entry in entries {
        out.push_str(&entry.stack.replace('/', ";"));
        out.push(' ');
        out.push_str(&self_ns(entry, entries).to_string());
        out.push('\n');
    }
    out
}

/// Renders the profile as a JSON array of stack objects.
#[must_use]
pub fn to_json(entries: &[StackEntry]) -> String {
    let mut out = String::from("{\"stacks\":[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"stack\":\"{}\",\"count\":{},\"wall_ns\":{},\"self_ns\":{},\"alloc_bytes\":{}}}",
            crate::json::escape_json(&e.stack),
            e.count,
            e.wall_ns,
            self_ns(e, entries),
            e.alloc_bytes
        ));
    }
    out.push_str("]}");
    out
}

/// A node of the flame tree built from collapsed stacks.
struct Node {
    name: String,
    /// Inclusive ns: the recorded value for this exact stack (when any)
    /// widened to at least the sum of its children.
    value: u64,
    count: u64,
    alloc_bytes: u64,
    children: Vec<Node>,
}

fn build_tree(entries: &[StackEntry]) -> Node {
    let mut root = Node {
        name: "all".to_string(),
        value: 0,
        count: 0,
        alloc_bytes: 0,
        children: Vec::new(),
    };
    for entry in entries {
        let mut node = &mut root;
        for seg in entry.stack.split('/') {
            let pos = node.children.iter().position(|c| c.name == seg);
            let idx = match pos {
                Some(idx) => idx,
                None => {
                    node.children.push(Node {
                        name: seg.to_string(),
                        value: 0,
                        count: 0,
                        alloc_bytes: 0,
                        children: Vec::new(),
                    });
                    node.children.len() - 1
                }
            };
            node = &mut node.children[idx];
        }
        node.value += entry.wall_ns;
        node.count += entry.count;
        node.alloc_bytes += entry.alloc_bytes;
    }
    fn widen(node: &mut Node) -> u64 {
        let child_sum: u64 = node.children.iter_mut().map(widen).sum();
        node.value = node.value.max(child_sum);
        node.value
    }
    widen(&mut root);
    root
}

/// Deterministic warm palette: the hue derives from the frame name, so
/// the same span is the same colour across captures.
fn frame_color(name: &str) -> String {
    let hash = BuildHasherDefault::<DefaultHasher>::default().hash_one(name);
    let r = 205 + hash % 50;
    let g = 80 + ((hash >> 8) % 110);
    let b = (hash >> 16) % 55;
    format!("rgb({r},{g},{b})")
}

const FRAME_H: f64 = 17.0;
const SVG_W: f64 = 1200.0;

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Renders the profile as a self-contained flame-graph SVG: nested
/// frames, width proportional to inclusive wall time, hover titles with
/// exact ns/count/alloc figures. No scripts, no external assets.
#[must_use]
pub fn render_flame_svg(entries: &[StackEntry]) -> String {
    let root = build_tree(entries);
    fn depth_of(node: &Node) -> usize {
        1 + node.children.iter().map(depth_of).max().unwrap_or(0)
    }
    let depth = depth_of(&root);
    #[allow(clippy::cast_precision_loss)]
    let height = (depth as f64) * FRAME_H + 40.0;
    let mut svg = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{SVG_W}\" height=\"{height}\" \
         font-family=\"monospace\" font-size=\"11\">\n\
         <rect width=\"100%\" height=\"100%\" fill=\"#f8f8f8\"/>\n\
         <text x=\"8\" y=\"16\">svt continuous profile — {} stacks, {} ns total</text>\n",
        entries.len(),
        root.value
    );
    #[allow(clippy::cast_precision_loss)]
    fn emit(node: &Node, x: f64, y: f64, scale: f64, svg: &mut String) {
        let w = node.value as f64 * scale;
        if w < 0.4 {
            return;
        }
        let name = xml_escape(&node.name);
        svg.push_str(&format!(
            "<g><title>{name}: {} ns, {} calls, {} alloc bytes</title>\
             <rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{w:.2}\" height=\"{:.1}\" \
             fill=\"{}\" stroke=\"#f8f8f8\" stroke-width=\"0.5\"/>",
            node.value,
            node.count,
            node.alloc_bytes,
            FRAME_H - 1.0,
            frame_color(&node.name)
        ));
        if w > 28.0 {
            let max_chars = ((w - 6.0) / 6.6) as usize;
            let label: String = node.name.chars().take(max_chars).collect();
            svg.push_str(&format!(
                "<text x=\"{:.2}\" y=\"{:.2}\" fill=\"#111\">{}</text>",
                x + 3.0,
                y + FRAME_H - 5.0,
                xml_escape(&label)
            ));
        }
        svg.push_str("</g>\n");
        let mut cx = x;
        for child in &node.children {
            emit(child, cx, y + FRAME_H, scale, svg);
            cx += child.value as f64 * scale;
        }
    }
    if root.value > 0 {
        #[allow(clippy::cast_precision_loss)]
        let scale = (SVG_W - 16.0) / root.value as f64;
        emit(&root, 8.0, 28.0, scale, &mut svg);
    }
    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;

    // The fold map is process-global; tests that reset it serialize.
    fn profile_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn folding_aggregates_by_stack() {
        let _guard = profile_lock();
        reset();
        record("a", 100, 10);
        record("a/b", 60, 4);
        record("a/b", 40, 2);
        record("a/c", 10, 0);
        let snap = snapshot();
        let ab = snap.iter().find(|e| e.stack == "a/b").unwrap();
        assert_eq!((ab.count, ab.wall_ns, ab.alloc_bytes), (2, 100, 6));
        let a = snap.iter().find(|e| e.stack == "a").unwrap();
        assert_eq!(self_ns(a, &snap), 0, "children consume all of a's time");
        let collapsed = render_collapsed(&snap);
        assert!(collapsed.contains("a;b 100"));
        assert!(collapsed.contains("a;c 10"));
        reset();
    }

    #[test]
    fn flame_svg_nests_frames_and_is_well_formed() {
        let _guard = profile_lock();
        reset();
        record("root", 1_000_000, 0);
        record("root/work", 800_000, 128);
        record("root/work/inner", 500_000, 64);
        let snap = snapshot();
        let svg = render_flame_svg(&snap);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains(">root:"), "hover title present");
        assert!(svg.contains("inner"), "deep frame rendered");
        assert_eq!(
            svg.matches("<rect").count() - 1, // minus the background
            4,                                // all + root + work + inner
            "one frame rect per tree node"
        );
        reset();
    }

    #[test]
    fn json_rendering_parses() {
        let _guard = profile_lock();
        reset();
        record("x/y", 42, 7);
        let json = to_json(&snapshot());
        let doc = crate::json::JsonValue::parse(&json).expect("profile JSON parses");
        let stacks = doc
            .get("stacks")
            .and_then(crate::json::JsonValue::as_array)
            .unwrap();
        assert_eq!(stacks.len(), 1);
        assert_eq!(
            stacks[0]
                .get("wall_ns")
                .and_then(crate::json::JsonValue::as_u64),
            Some(42)
        );
        reset();
    }

    #[test]
    fn enable_toggle_is_runtime() {
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(was);
    }
}
