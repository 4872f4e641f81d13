//! Continuous profiler: the registry's span aggregates rendered as
//! collapsed stacks, JSON, or a hand-rolled flame-graph SVG.
//!
//! There is no profiler store. Every [`crate::Span`] drop records its
//! time and same-thread allocations into the registry's
//! [`crate::SpanStat`] for its `/`-joined path, and the renderers here
//! read a snapshot of those aggregates ([`crate::Snapshot::spans`]).
//! Each path's `total_ns` is inclusive (children's time is also inside
//! their ancestors' paths); the renderers derive self time as
//! `inclusive − Σ direct children` ([`crate::registry::self_values`]).
//! A path's `alloc_bytes` is the bytes allocated on the span's own thread
//! while it was open, children included (0 unless [`crate::alloc`] was
//! active).
//!
//! [`enabled`] only decides whether `svtd` answers `/debug/profile`:
//! `SVT_PROFILE=1`/`on` arms it from the environment, and `svtd` arms it
//! explicitly at boot. It adds no work to any span.

use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::atomic::{AtomicU8, Ordering};

use crate::registry::{self_values, SpanEntry};

/// Environment variable arming `/debug/profile` (`1`, `true`, or `on`).
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

/// Whether the profile is served. One relaxed load after the first call.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_UNSET => init_from_env() == STATE_ON,
        code => code == STATE_ON,
    }
}

/// Arms or disarms `/debug/profile` at runtime, overriding `SVT_PROFILE`.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Renders the profile in Brendan-Gregg collapsed form — one
/// `seg;seg;seg self_wall_ns` line per span path, the format every flame
/// graph tool ingests. Paths whose self time rounds to zero still print
/// (count carries information), in entry order.
#[must_use]
pub fn render_collapsed(spans: &[SpanEntry]) -> String {
    let self_ns = self_values(spans, |e| e.total_ns);
    let mut out = String::with_capacity(spans.len() * 48);
    for (entry, self_ns) in spans.iter().zip(self_ns) {
        out.push_str(&entry.path.replace('/', ";"));
        out.push(' ');
        out.push_str(&self_ns.to_string());
        out.push('\n');
    }
    out
}

/// Renders the profile as a JSON array of stack objects.
#[must_use]
pub fn to_json(spans: &[SpanEntry]) -> String {
    let self_ns = self_values(spans, |e| e.total_ns);
    let mut out = String::from("{\"stacks\":[");
    for (i, (e, self_ns)) in spans.iter().zip(self_ns).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"stack\":\"{}\",\"count\":{},\"wall_ns\":{},\"self_ns\":{self_ns},\"alloc_bytes\":{}}}",
            crate::json::escape_json(&e.path),
            e.count,
            e.total_ns,
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

fn build_tree(spans: &[SpanEntry]) -> Node {
    let mut root = Node {
        name: "all".to_string(),
        value: 0,
        count: 0,
        alloc_bytes: 0,
        children: Vec::new(),
    };
    for entry in spans {
        let mut node = &mut root;
        for seg in entry.path.split('/') {
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
        node.value += entry.total_ns;
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
pub fn render_flame_svg(spans: &[SpanEntry]) -> String {
    let root = build_tree(spans);
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
        spans.len(),
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
    use crate::TraceMode;

    fn entry(path: &str, count: u64, total_ns: u64, alloc_bytes: u64) -> SpanEntry {
        SpanEntry {
            path: path.into(),
            count,
            total_ns,
            alloc_bytes,
            ..SpanEntry::default()
        }
    }

    #[test]
    fn real_spans_fold_by_path_and_self_time_subtracts_direct_children() {
        // A deterministic nested workload: repeated roots with two
        // children, one of which recurses one level deeper. Work inside
        // each span is real (a checksum loop) so wall times are non-zero.
        let _guard = crate::tests::mode_lock();
        crate::set_mode(TraceMode::Summary);
        let mut checksum = 0u64;
        for round in 0..25u64 {
            let _root = crate::span("t.prof.root");
            {
                let _a = crate::span("t.prof.parse");
                for i in 0..200 {
                    checksum = checksum
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(i);
                }
            }
            let _b = crate::span("t.prof.solve");
            for i in 0..400 {
                checksum = checksum
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(i);
            }
            if round % 2 == 0 {
                let _c = crate::span("t.prof.refine");
                for i in 0..100u64 {
                    checksum ^= i.wrapping_mul(round);
                }
            }
        }
        crate::set_mode(TraceMode::Off);
        assert_ne!(checksum, 0, "workload optimized away");

        let ours: Vec<SpanEntry> = crate::registry()
            .snapshot()
            .spans
            .into_iter()
            .filter(|e| e.path.starts_with("t.prof.root"))
            .collect();
        let paths: Vec<(&str, u64)> = ours.iter().map(|e| (e.path.as_str(), e.count)).collect();
        assert_eq!(
            paths,
            [
                ("t.prof.root", 25),
                ("t.prof.root/t.prof.parse", 25),
                ("t.prof.root/t.prof.solve", 25),
                ("t.prof.root/t.prof.solve/t.prof.refine", 13),
            ]
        );
        let (solve, refine) = (&ours[2], &ours[3]);
        assert!(
            solve.total_ns >= refine.total_ns,
            "child wider than parent: solve {} < refine {}",
            solve.total_ns,
            refine.total_ns
        );
        let self_ns = self_values(&ours, |e| e.total_ns);
        assert_eq!(
            self_ns[2],
            solve.total_ns - refine.total_ns,
            "self time must subtract exactly the direct children"
        );
        assert_eq!(
            self_ns[0],
            ours[0]
                .total_ns
                .saturating_sub(ours[1].total_ns + solve.total_ns),
            "grandchildren are not subtracted twice"
        );
        let collapsed = render_collapsed(&ours);
        assert!(collapsed.contains(&format!("t.prof.root;t.prof.solve {}\n", self_ns[2])));
    }

    #[test]
    fn collapsed_lines_carry_self_time() {
        let spans = [
            entry("a", 1, 100, 10),
            entry("a/b", 2, 100, 6),
            entry("a/c", 1, 10, 0),
        ];
        assert_eq!(render_collapsed(&spans), "a 0\na;b 100\na;c 10\n");
    }

    #[test]
    fn flame_svg_nests_frames_and_is_well_formed() {
        let spans = [
            entry("root", 1, 1_000_000, 0),
            entry("root/work", 1, 800_000, 128),
            entry("root/work/inner", 1, 500_000, 64),
        ];
        let svg = render_flame_svg(&spans);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains(">root:"), "hover title present");
        assert!(svg.contains("128 alloc bytes"), "hover carries alloc bytes");
        assert!(svg.contains("inner"), "deep frame rendered");
        assert_eq!(
            svg.matches("<rect").count() - 1, // minus the background
            4,                                // all + root + work + inner
            "one frame rect per tree node"
        );
    }

    #[test]
    fn json_rendering_parses() {
        let json = to_json(&[entry("x", 1, 50, 0), entry("x/y", 3, 42, 7)]);
        let doc = crate::json::JsonValue::parse(&json).expect("profile JSON parses");
        let stacks = doc
            .get("stacks")
            .and_then(crate::json::JsonValue::as_array)
            .unwrap();
        assert_eq!(stacks.len(), 2);
        let field =
            |i: usize, key: &str| stacks[i].get(key).and_then(crate::json::JsonValue::as_u64);
        assert_eq!(field(1, "wall_ns"), Some(42));
        assert_eq!(field(1, "alloc_bytes"), Some(7));
        assert_eq!(field(0, "self_ns"), Some(8));
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
