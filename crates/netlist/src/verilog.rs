//! Gate-level structural Verilog for mapped netlists.
//!
//! The paper's flow synthesizes benchmarks onto the cell library; the
//! industry interchange for that artifact is structural Verilog. This
//! module writes and parses the small subset such netlists use:
//!
//! ```text
//! module c432 (I0, I1, N12);
//!   input I0, I1;
//!   output N12;
//!   wire n1;
//!   NAND2X1 u0 (.A(I0), .B(I1), .Z(n1));
//!   INVX1 u1 (.A(n1), .Z(N12));
//! endmodule
//! ```
//!
//! # Examples
//!
//! ```
//! use svt_netlist::{bench, technology_map, verilog};
//! use svt_stdcell::Library;
//!
//! let lib = Library::svt90();
//! let n = bench::parse("# t\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")?;
//! let mapped = technology_map(&n, &lib)?;
//! let text = verilog::write(&mapped, &lib);
//! let round_trip = verilog::parse(&text, &lib)?;
//! assert_eq!(round_trip, mapped);
//! # Ok::<(), svt_netlist::NetlistError>(())
//! ```

use std::collections::BTreeSet;

use svt_stdcell::Library;

use crate::{MappedInstance, MappedNetlist, NetlistError};

/// Sanitizes a net name into a Verilog identifier. The workspace's own
/// names are already clean; this guards against exotic bench names.
fn ident(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Serializes a mapped netlist as structural Verilog.
#[must_use]
pub fn write(netlist: &MappedNetlist, library: &Library) -> String {
    let mut out = String::new();
    let ports: Vec<String> = netlist
        .inputs()
        .iter()
        .chain(netlist.outputs())
        .map(|n| ident(n))
        .collect();
    out.push_str(&format!(
        "module {} ({});\n",
        ident(netlist.name()),
        ports.join(", ")
    ));
    for pi in netlist.inputs() {
        out.push_str(&format!("  input {};\n", ident(pi)));
    }
    for po in netlist.outputs() {
        out.push_str(&format!("  output {};\n", ident(po)));
    }
    // Internal wires: every connected net that is neither a PI nor a PO.
    let mut ports_set: BTreeSet<String> = netlist.inputs().iter().map(|n| ident(n)).collect();
    ports_set.extend(netlist.outputs().iter().map(|n| ident(n)));
    let mut wires: BTreeSet<String> = BTreeSet::new();
    for inst in netlist.instances() {
        for (_, net) in &inst.connections {
            let w = ident(net);
            if !ports_set.contains(&w) {
                wires.insert(w);
            }
        }
    }
    for w in &wires {
        out.push_str(&format!("  wire {w};\n"));
    }
    for inst in netlist.instances() {
        let conns: Vec<String> = inst
            .connections
            .iter()
            .map(|(pin, net)| format!(".{pin}({})", ident(net)))
            .collect();
        out.push_str(&format!(
            "  {} {} ({});\n",
            inst.cell,
            ident(&inst.name),
            conns.join(", ")
        ));
    }
    out.push_str("endmodule\n");
    let _ = library; // the writer needs no library data; kept for symmetry
    out
}

/// Parses structural Verilog back into a mapped netlist, validated against
/// the library.
///
/// # Errors
///
/// Returns [`NetlistError::ParseBenchError`] (reused for line-tagged syntax
/// failures) or [`NetlistError::InvalidNetlist`] for semantic problems.
pub fn parse(text: &str, library: &Library) -> Result<MappedNetlist, NetlistError> {
    // Statement-oriented: strip comments, split on `;`, keep the module
    // header and `endmodule` special.
    let mut name = String::new();
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    let mut instances = Vec::new();

    let mut lineno = 0usize;
    let mut buffer = String::new();
    let mut statements: Vec<(usize, String)> = Vec::new();
    for line in text.lines() {
        lineno += 1;
        let line = match line.find("//") {
            Some(k) => &line[..k],
            None => line,
        };
        for c in line.chars() {
            if c == ';' {
                statements.push((lineno, buffer.trim().to_string()));
                buffer.clear();
            } else {
                buffer.push(c);
            }
        }
        buffer.push(' ');
    }
    let tail = buffer.trim().to_string();
    if !tail.is_empty() {
        statements.push((lineno, tail));
    }

    let err = |line: usize, reason: &str| NetlistError::ParseBenchError {
        line,
        reason: format!("verilog: {reason}"),
    };

    for (line, stmt) in statements {
        if stmt.is_empty() {
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("module") {
            let rest = rest.trim();
            let open = rest
                .find('(')
                .ok_or_else(|| err(line, "module missing ports"))?;
            name = rest[..open].trim().to_string();
            // Port list is re-derived from input/output declarations.
            continue;
        }
        if stmt == "endmodule" {
            break;
        }
        if let Some(rest) = stmt.strip_prefix("input") {
            for n in rest.split(',') {
                let n = n.trim();
                if n.is_empty() {
                    return Err(err(line, "empty input name"));
                }
                inputs.push(n.to_string());
            }
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("output") {
            for n in rest.split(',') {
                let n = n.trim();
                if n.is_empty() {
                    return Err(err(line, "empty output name"));
                }
                outputs.push(n.to_string());
            }
            continue;
        }
        if stmt.starts_with("wire") {
            continue; // wires are implied by connections
        }
        // Instance: `CELL name ( .PIN(net), … )`.
        let open = stmt
            .find('(')
            .ok_or_else(|| err(line, "instance missing `(`"))?;
        let close = stmt
            .rfind(')')
            .ok_or_else(|| err(line, "instance missing `)`"))?;
        if close < open {
            return Err(err(line, "mismatched parentheses"));
        }
        let head: Vec<&str> = stmt[..open].split_whitespace().collect();
        let [cell, inst_name] = head.as_slice() else {
            return Err(err(line, "expected `CELL name (…)`"));
        };
        let mut connections = Vec::new();
        for conn in stmt[open + 1..close].split(',') {
            let conn = conn.trim();
            if conn.is_empty() {
                continue;
            }
            let conn = conn
                .strip_prefix('.')
                .ok_or_else(|| err(line, "expected named connection `.PIN(net)`"))?;
            let p_open = conn
                .find('(')
                .ok_or_else(|| err(line, "connection missing `(`"))?;
            let p_close = conn
                .rfind(')')
                .ok_or_else(|| err(line, "connection missing `)`"))?;
            if p_close < p_open {
                return Err(err(line, "mismatched parentheses"));
            }
            let pin = conn[..p_open].trim().to_string();
            let net = conn[p_open + 1..p_close].trim().to_string();
            if pin.is_empty() || net.is_empty() {
                return Err(err(line, "empty pin or net in connection"));
            }
            connections.push((pin, net));
        }
        instances.push(MappedInstance {
            name: (*inst_name).to_string(),
            cell: (*cell).to_string(),
            connections,
        });
    }

    if name.is_empty() {
        return Err(err(1, "no module declaration"));
    }
    MappedNetlist::new(name, inputs, outputs, instances, library)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bench, generate_benchmark, technology_map, BenchmarkProfile};

    fn lib() -> Library {
        Library::svt90()
    }

    fn sample() -> MappedNetlist {
        let n = bench::parse("# t\nINPUT(a)\nINPUT(b)\nOUTPUT(z)\nx = NAND(a, b)\nz = NOT(x)\n")
            .unwrap();
        technology_map(&n, &lib()).unwrap()
    }

    #[test]
    fn writes_recognizable_verilog() {
        let text = write(&sample(), &lib());
        assert!(text.starts_with("module t ("));
        assert!(text.contains("input a"));
        assert!(text.contains("output z"));
        assert!(text.contains("wire x"));
        assert!(text.contains("NAND2X1 u0 (.A(a), .B(b), .Z(x))"));
        assert!(text.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn round_trips_a_small_netlist() {
        let m = sample();
        let text = write(&m, &lib());
        assert_eq!(parse(&text, &lib()).unwrap(), m);
    }

    #[test]
    fn round_trips_a_benchmark() {
        let n = generate_benchmark(&BenchmarkProfile::iscas85("c432").unwrap());
        let m = technology_map(&n, &lib()).unwrap();
        let text = write(&m, &lib());
        let parsed = parse(&text, &lib()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn tolerates_comments_and_multiline_statements() {
        let text = "\
// a comment
module t (a,
          z);
  input a; // trailing comment
  output z;
  INVX1 u0 (.A(a),
            .Z(z));
endmodule
";
        let m = parse(text, &lib()).unwrap();
        assert_eq!(m.instances().len(), 1);
        assert_eq!(m.instances()[0].cell, "INVX1");
    }

    #[test]
    fn rejects_malformed_and_inconsistent_text() {
        assert!(parse("not verilog", &lib()).is_err());
        assert!(parse("module t (a); input a; endmodule", &lib()).is_ok());
        // Positional connections are not supported.
        let text = "module t (a, z);\n input a;\n output z;\n INVX1 u0 (a, z);\nendmodule\n";
        assert!(parse(text, &lib()).is_err());
        // Unknown cells are semantic errors.
        let text =
            "module t (a, z);\n input a;\n output z;\n GHOST u0 (.A(a), .Z(z));\nendmodule\n";
        assert!(matches!(
            parse(text, &lib()),
            Err(NetlistError::InvalidNetlist { .. })
        ));
    }

    #[test]
    fn exotic_net_names_are_sanitized_on_write() {
        let n = bench::parse("# t\nINPUT(a.b)\nOUTPUT(z)\nz = NOT(a.b)\n").unwrap();
        let m = technology_map(&n, &lib()).unwrap();
        let text = write(&m, &lib());
        assert!(text.contains("a_b"), "dots must be sanitized: {text}");
    }
}
