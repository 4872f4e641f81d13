//! A Liberty-flavoured text format for characterized libraries.
//!
//! Real sign-off flows exchange timing libraries as `.lib` text; the
//! expanded 81-version libraries of this workspace round-trip through the
//! same kind of format. The dialect is a faithful subset: `group(args) {}`
//! nesting, `attribute : value;` statements, quoted index/value arrays.
//!
//! ```text
//! library(svt90_expanded) {
//!   cell(INVX1_ctx2222) {
//!     source_cell : INVX1;
//!     device_lengths : "90, 90";
//!     pin(A) { direction : input; capacitance : 0.002; }
//!     pin(Z) {
//!       direction : output;
//!       timing() {
//!         related_pin : A;
//!         devices : "0, 1";
//!         cell_delay() { index_1("…"); index_2("…"); values("…", "…"); }
//!         output_slew() { index_1("…"); index_2("…"); values("…", "…"); }
//!       }
//!     }
//!   }
//! }
//! ```
//!
//! # Examples
//!
//! ```
//! use svt_stdcell::{characterize, CharacterizeOptions, Library, liberty};
//!
//! let lib = Library::svt90();
//! let inv = lib.cell("INVX1").expect("INVX1 exists");
//! let cc = characterize(inv, &[90.0, 90.0], "INVX1_nom", CharacterizeOptions::default())?;
//! let text = liberty::write_library("demo", &[cc.clone()]);
//! let (name, cells) = liberty::parse_library(&text)?;
//! assert_eq!(name, "demo");
//! assert_eq!(cells[0], cc);
//! # Ok::<(), svt_stdcell::StdcellError>(())
//! ```

use crate::{CharacterizedCell, DeviceId, Direction, NldmTable, Pin, StdcellError, TimingArc};

/// Serializes characterized cells as Liberty-flavoured text.
#[must_use]
pub fn write_library(name: &str, cells: &[CharacterizedCell]) -> String {
    let mut out = String::new();
    out.push_str(&format!("library({name}) {{\n"));
    for cell in cells {
        write_cell(&mut out, cell);
    }
    out.push_str("}\n");
    out
}

fn write_cell(out: &mut String, cell: &CharacterizedCell) {
    out.push_str(&format!("  cell({}) {{\n", cell.variant_name));
    out.push_str(&format!("    source_cell : {};\n", cell.cell_name));
    out.push_str(&format!(
        "    device_lengths : \"{}\";\n",
        join_floats(&cell.device_lengths_nm)
    ));
    for pin in &cell.pins {
        match pin.direction {
            Direction::Input => {
                out.push_str(&format!(
                    "    pin({}) {{ direction : input; capacitance : {}; }}\n",
                    pin.name, pin.capacitance_pf
                ));
            }
            Direction::Output => {
                out.push_str(&format!("    pin({}) {{\n", pin.name));
                out.push_str("      direction : output;\n");
                for arc in cell.arcs.iter().filter(|a| a.to_pin == pin.name) {
                    write_arc(out, arc);
                }
                out.push_str("    }\n");
            }
        }
    }
    out.push_str("  }\n");
}

fn write_arc(out: &mut String, arc: &TimingArc) {
    out.push_str("      timing() {\n");
    out.push_str(&format!("        related_pin : {};\n", arc.from_pin));
    let devices: Vec<String> = arc.devices.iter().map(|d| d.0.to_string()).collect();
    out.push_str(&format!("        devices : \"{}\";\n", devices.join(", ")));
    write_table(out, "cell_delay", &arc.delay);
    write_table(out, "output_slew", &arc.output_slew);
    out.push_str("      }\n");
}

fn write_table(out: &mut String, group: &str, table: &NldmTable) {
    out.push_str(&format!("        {group}() {{\n"));
    out.push_str(&format!(
        "          index_1(\"{}\");\n",
        join_floats(table.slew_axis())
    ));
    out.push_str(&format!(
        "          index_2(\"{}\");\n",
        join_floats(table.load_axis())
    ));
    let rows: Vec<String> = table
        .values()
        .iter()
        .map(|row| format!("\"{}\"", join_floats(row)))
        .collect();
    out.push_str(&format!("          values({});\n", rows.join(", ")));
    out.push_str("        }\n");
}

fn join_floats(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join(", ")
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A parsed Liberty group: `name(args) { attributes; children }`.
#[derive(Debug, Clone, PartialEq)]
struct Group {
    name: String,
    args: Vec<String>,
    attributes: Vec<(String, String)>,
    children: Vec<Group>,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Str(String),
    LParen,
    RParen,
    LBrace,
    RBrace,
    Colon,
    Semi,
    Comma,
    Eof,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            pos: 0,
            line: 1,
        }
    }

    fn error(&self, reason: impl Into<String>) -> StdcellError {
        StdcellError::ParseLibertyError {
            line: self.line,
            reason: reason.into(),
        }
    }

    fn next_token(&mut self) -> Result<Token, StdcellError> {
        // Lex by `char`, not by byte: outside input may hold multi-byte
        // UTF-8, and every slice below must end on a char boundary.
        let rest = &self.src[self.pos..];
        let text = rest.trim_start();
        self.line += rest[..rest.len() - text.len()].matches('\n').count();
        self.pos += rest.len() - text.len();
        let Some(c) = text.chars().next() else {
            return Ok(Token::Eof);
        };
        let simple = match c {
            '(' => Some(Token::LParen),
            ')' => Some(Token::RParen),
            '{' => Some(Token::LBrace),
            '}' => Some(Token::RBrace),
            ':' => Some(Token::Colon),
            ';' => Some(Token::Semi),
            ',' => Some(Token::Comma),
            _ => None,
        };
        if let Some(tok) = simple {
            self.pos += 1;
            return Ok(tok);
        }
        if c == '"' {
            let body = &text[1..];
            let Some(end) = body.find('"') else {
                self.line += body.matches('\n').count();
                return Err(self.error("unterminated string"));
            };
            self.line += body[..end].matches('\n').count();
            self.pos += end + 2;
            return Ok(Token::Str(body[..end].to_string()));
        }
        let ident = |ch: char| ch.is_alphanumeric() || "_.-+".contains(ch);
        if ident(c) {
            let end = text.find(|ch| !ident(ch)).unwrap_or(text.len());
            self.pos += end;
            return Ok(Token::Ident(text[..end].to_string()));
        }
        Err(self.error(format!("unexpected character `{c}`")))
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    lookahead: Option<Token>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        Parser {
            lexer: Lexer::new(src),
            lookahead: None,
        }
    }

    fn peek(&mut self) -> Result<Token, StdcellError> {
        if self.lookahead.is_none() {
            self.lookahead = Some(self.lexer.next_token()?);
        }
        Ok(self.lookahead.clone().expect("just filled"))
    }

    fn bump(&mut self) -> Result<Token, StdcellError> {
        let t = self.peek()?;
        self.lookahead = None;
        Ok(t)
    }

    fn expect(&mut self, tok: &Token) -> Result<(), StdcellError> {
        let got = self.bump()?;
        if &got == tok {
            Ok(())
        } else {
            Err(self.lexer.error(format!("expected {tok:?}, got {got:?}")))
        }
    }

    /// Parses `name ( args ) { body }`.
    fn group(&mut self) -> Result<Group, StdcellError> {
        let name = match self.bump()? {
            Token::Ident(s) => s,
            other => {
                return Err(self
                    .lexer
                    .error(format!("expected group name, got {other:?}")))
            }
        };
        self.expect(&Token::LParen)?;
        let mut args = Vec::new();
        loop {
            match self.bump()? {
                Token::RParen => break,
                Token::Ident(s) | Token::Str(s) => args.push(s),
                Token::Comma => {}
                other => return Err(self.lexer.error(format!("bad group arg {other:?}"))),
            }
        }
        self.expect(&Token::LBrace)?;
        let mut attributes = Vec::new();
        let mut children = Vec::new();
        loop {
            match self.peek()? {
                Token::RBrace => {
                    self.bump()?;
                    break;
                }
                Token::Ident(_) => {
                    // Either `ident : value ;` or a nested group.
                    let ident = match self.bump()? {
                        Token::Ident(s) => s,
                        _ => unreachable!("peeked Ident"),
                    };
                    match self.peek()? {
                        Token::Colon => {
                            self.bump()?;
                            let value = match self.bump()? {
                                Token::Ident(s) | Token::Str(s) => s,
                                other => {
                                    return Err(self
                                        .lexer
                                        .error(format!("bad attribute value {other:?}")))
                                }
                            };
                            self.expect(&Token::Semi)?;
                            attributes.push((ident, value));
                        }
                        Token::LParen => {
                            // Re-parse as a group by reusing the logic with
                            // the name already consumed.
                            self.expect(&Token::LParen)?;
                            let mut args = Vec::new();
                            loop {
                                match self.bump()? {
                                    Token::RParen => break,
                                    Token::Ident(s) | Token::Str(s) => args.push(s),
                                    Token::Comma => {}
                                    other => {
                                        return Err(self
                                            .lexer
                                            .error(format!("bad group arg {other:?}")))
                                    }
                                }
                            }
                            match self.peek()? {
                                Token::LBrace => {
                                    self.bump()?;
                                    let mut grp = Group {
                                        name: ident,
                                        args,
                                        attributes: Vec::new(),
                                        children: Vec::new(),
                                    };
                                    self.group_body(&mut grp)?;
                                    children.push(grp);
                                }
                                Token::Semi => {
                                    // Statement form: `index_1("…");`
                                    self.bump()?;
                                    children.push(Group {
                                        name: ident,
                                        args,
                                        attributes: Vec::new(),
                                        children: Vec::new(),
                                    });
                                }
                                other => {
                                    return Err(self
                                        .lexer
                                        .error(format!("expected body or `;`, got {other:?}")))
                                }
                            }
                        }
                        other => {
                            return Err(self.lexer.error(format!("unexpected token {other:?}")))
                        }
                    }
                }
                other => return Err(self.lexer.error(format!("unexpected token {other:?}"))),
            }
        }
        Ok(Group {
            name,
            args,
            attributes,
            children,
        })
    }

    /// Parses a group body into `grp` (after `{` was consumed).
    fn group_body(&mut self, grp: &mut Group) -> Result<(), StdcellError> {
        loop {
            match self.peek()? {
                Token::RBrace => {
                    self.bump()?;
                    return Ok(());
                }
                _ => {
                    // Delegate: temporarily parse one item via the same
                    // machinery used in `group`. Simplest correct approach:
                    // parse an identifier and dispatch.
                    let before = self.peek()?;
                    if !matches!(before, Token::Ident(_)) {
                        return Err(self.lexer.error(format!("unexpected token {before:?}")));
                    }
                    let ident = match self.bump()? {
                        Token::Ident(s) => s,
                        _ => unreachable!("peeked Ident"),
                    };
                    match self.peek()? {
                        Token::Colon => {
                            self.bump()?;
                            let value = match self.bump()? {
                                Token::Ident(s) | Token::Str(s) => s,
                                other => {
                                    return Err(self
                                        .lexer
                                        .error(format!("bad attribute value {other:?}")))
                                }
                            };
                            self.expect(&Token::Semi)?;
                            grp.attributes.push((ident, value));
                        }
                        Token::LParen => {
                            self.expect(&Token::LParen)?;
                            let mut args = Vec::new();
                            loop {
                                match self.bump()? {
                                    Token::RParen => break,
                                    Token::Ident(s) | Token::Str(s) => args.push(s),
                                    Token::Comma => {}
                                    other => {
                                        return Err(self
                                            .lexer
                                            .error(format!("bad group arg {other:?}")))
                                    }
                                }
                            }
                            match self.peek()? {
                                Token::LBrace => {
                                    self.bump()?;
                                    let mut child = Group {
                                        name: ident,
                                        args,
                                        attributes: Vec::new(),
                                        children: Vec::new(),
                                    };
                                    self.group_body(&mut child)?;
                                    grp.children.push(child);
                                }
                                Token::Semi => {
                                    self.bump()?;
                                    grp.children.push(Group {
                                        name: ident,
                                        args,
                                        attributes: Vec::new(),
                                        children: Vec::new(),
                                    });
                                }
                                other => {
                                    return Err(self
                                        .lexer
                                        .error(format!("expected body or `;`, got {other:?}")))
                                }
                            }
                        }
                        other => {
                            return Err(self.lexer.error(format!("unexpected token {other:?}")))
                        }
                    }
                }
            }
        }
    }
}

/// Parses Liberty-flavoured text into `(library_name, cells)`.
///
/// # Errors
///
/// Returns [`StdcellError::ParseLibertyError`] with the failing line on any
/// lexical, syntactic, or semantic problem.
pub fn parse_library(text: &str) -> Result<(String, Vec<CharacterizedCell>), StdcellError> {
    let mut parser = Parser::new(text);
    let root = parser.group()?;
    if parser.peek()? != Token::Eof {
        return Err(parser
            .lexer
            .error("unexpected content after the library group"));
    }
    if root.name != "library" {
        return Err(StdcellError::ParseLibertyError {
            line: 1,
            reason: format!("expected `library`, got `{}`", root.name),
        });
    }
    let lib_name = root
        .args
        .first()
        .cloned()
        .ok_or_else(|| StdcellError::ParseLibertyError {
            line: 1,
            reason: "library has no name".into(),
        })?;
    let mut cells = Vec::new();
    for child in &root.children {
        if child.name == "cell" {
            cells.push(interpret_cell(child)?);
        }
    }
    Ok((lib_name, cells))
}

fn semantic(reason: impl Into<String>) -> StdcellError {
    StdcellError::ParseLibertyError {
        line: 0,
        reason: reason.into(),
    }
}

fn attr<'g>(group: &'g Group, name: &str) -> Option<&'g str> {
    group
        .attributes
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn parse_floats(list: &str) -> Result<Vec<f64>, StdcellError> {
    list.split(',')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| semantic(format!("bad number `{}`", s.trim())))
        })
        .collect()
}

fn interpret_cell(group: &Group) -> Result<CharacterizedCell, StdcellError> {
    let variant_name = group
        .args
        .first()
        .cloned()
        .ok_or_else(|| semantic("cell has no name"))?;
    let cell_name = attr(group, "source_cell")
        .unwrap_or(&variant_name)
        .to_string();
    let device_lengths_nm = parse_floats(
        attr(group, "device_lengths").ok_or_else(|| semantic("missing device_lengths"))?,
    )?;
    let mut pins = Vec::new();
    let mut arcs = Vec::new();
    for child in &group.children {
        if child.name != "pin" {
            continue;
        }
        let pin_name = child
            .args
            .first()
            .cloned()
            .ok_or_else(|| semantic("pin has no name"))?;
        match attr(child, "direction") {
            Some("input") => {
                let cap = attr(child, "capacitance")
                    .ok_or_else(|| semantic("input pin missing capacitance"))?
                    .parse::<f64>()
                    .map_err(|_| semantic("bad capacitance"))?;
                pins.push(Pin::input(pin_name, cap));
            }
            Some("output") => {
                for timing in child.children.iter().filter(|g| g.name == "timing") {
                    arcs.push(interpret_arc(timing, &pin_name)?);
                }
                pins.push(Pin::output(pin_name));
            }
            other => return Err(semantic(format!("bad pin direction {other:?}"))),
        }
    }
    Ok(CharacterizedCell {
        cell_name,
        variant_name,
        device_lengths_nm,
        pins,
        arcs,
    })
}

fn interpret_arc(group: &Group, to_pin: &str) -> Result<TimingArc, StdcellError> {
    let from_pin = attr(group, "related_pin")
        .ok_or_else(|| semantic("timing missing related_pin"))?
        .to_string();
    let devices: Vec<DeviceId> =
        parse_floats(attr(group, "devices").ok_or_else(|| semantic("timing missing devices"))?)?
            .into_iter()
            .map(|v| DeviceId(v as usize))
            .collect();
    let delay = interpret_table(
        group
            .children
            .iter()
            .find(|g| g.name == "cell_delay")
            .ok_or_else(|| semantic("timing missing cell_delay"))?,
    )?;
    let output_slew = interpret_table(
        group
            .children
            .iter()
            .find(|g| g.name == "output_slew")
            .ok_or_else(|| semantic("timing missing output_slew"))?,
    )?;
    Ok(TimingArc::new(
        from_pin,
        to_pin,
        delay,
        output_slew,
        devices,
    ))
}

fn interpret_table(group: &Group) -> Result<NldmTable, StdcellError> {
    let stmt = |name: &str| -> Result<&Group, StdcellError> {
        group
            .children
            .iter()
            .find(|g| g.name == name)
            .ok_or_else(|| semantic(format!("table missing {name}")))
    };
    let index_1 = parse_floats(
        stmt("index_1")?
            .args
            .first()
            .ok_or_else(|| semantic("index_1 empty"))?,
    )?;
    let index_2 = parse_floats(
        stmt("index_2")?
            .args
            .first()
            .ok_or_else(|| semantic("index_2 empty"))?,
    )?;
    let values: Result<Vec<Vec<f64>>, StdcellError> = stmt("values")?
        .args
        .iter()
        .map(|row| parse_floats(row))
        .collect();
    NldmTable::new(index_1, index_2, values?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{characterize, CharacterizeOptions, Library};

    fn sample_cells() -> Vec<CharacterizedCell> {
        let lib = Library::svt90();
        let opts = CharacterizeOptions::default();
        let mut out = Vec::new();
        for name in ["INVX1", "NAND2X1", "AOI21X1"] {
            let cell = lib.cell(name).unwrap();
            let n = cell.layout().devices().len();
            let lengths: Vec<f64> = (0..n).map(|i| 88.0 + i as f64 * 1.5).collect();
            out.push(characterize(cell, &lengths, &format!("{name}_v"), opts).unwrap());
        }
        out
    }

    #[test]
    fn round_trip_preserves_everything() {
        let cells = sample_cells();
        let text = write_library("svt90_rt", &cells);
        let (name, parsed) = parse_library(&text).unwrap();
        assert_eq!(name, "svt90_rt");
        assert_eq!(parsed, cells);
    }

    #[test]
    fn parse_rejects_malformed_text() {
        assert!(parse_library("not liberty at all").is_err());
        assert!(parse_library("library() {").is_err());
        assert!(parse_library("cell(X) {}").is_err());
        let bad_string = "library(x) { cell(Y) { device_lengths : \"1, oops\"; } }";
        assert!(parse_library(bad_string).is_err());
    }

    #[test]
    fn parse_reports_line_numbers() {
        let text = "library(x) {\n  cell(Y) {\n    !bad\n  }\n}";
        match parse_library(text) {
            Err(StdcellError::ParseLibertyError { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn unterminated_string_is_an_error() {
        let text = "library(x) { cell(Y) { device_lengths : \"1, 2; } }";
        assert!(parse_library(text).is_err());
    }

    #[test]
    fn empty_library_round_trips() {
        let text = write_library("empty", &[]);
        let (name, cells) = parse_library(&text).unwrap();
        assert_eq!(name, "empty");
        assert!(cells.is_empty());
    }

    #[test]
    fn tables_survive_with_full_precision() {
        let cells = sample_cells();
        let text = write_library("p", &cells);
        let (_, parsed) = parse_library(&text).unwrap();
        let a = &cells[0].arcs[0].delay;
        let b = &parsed[0].arcs[0].delay;
        assert_eq!(a.lookup(0.123, 0.0456), b.lookup(0.123, 0.0456));
    }
}
