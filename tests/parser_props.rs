//! Byte-soup properties for the text parsers that read outside input:
//! the layout interchange format, the Liberty-flavoured library format
//! and structural Verilog. Whatever the bytes, each parser returns `Ok`
//! or a typed error; none may panic.
//!
//! Two generators per format: token soup (keywords, numbers and
//! punctuation of the format in random order, so statements are often
//! well-formed but semantically wrong) and byte mutations of a valid
//! document (deletions, insertions and overwrites).

use std::sync::OnceLock;

use proptest::prelude::*;
use svt::geom::text_format::parse_layout;
use svt::netlist::{generate_benchmark, technology_map, verilog, BenchmarkProfile};
use svt::stdcell::{characterize, liberty, CharacterizeOptions, Library};

/// Token palettes, one token per whitespace-separated word; the soup
/// adds line breaks itself.
const LAYOUT_TOKENS: &str = "LAYOUT END CELL RECT ENDCELL INST INVX1 u1 poly diffusion metal1 \
    R0 MY R180 0 5 10 20 -7 600 2400 #";
const LIBERTY_TOKENS: &str = "library cell pin timing cell_delay output_slew index_1 index_2 \
    values direction input output capacitance related_pin source_cell device_lengths devices \
    ( ) { } : ; , \" * /* */ 0.5 90 -1 A Z INVX1";
const VERILOG_TOKENS: &str = "module endmodule input output wire INVX1 NAND2X1 u1 n1 a z \
    .A .B .Z ( ) , ; // \\esc";

/// Random sequences of palette tokens and line breaks, space-joined.
fn token_soup(palette: &'static str) -> impl Strategy<Value = String> {
    let tokens: Vec<&str> = palette.split_whitespace().chain(["\n"; 3]).collect();
    prop::collection::vec(0usize..tokens.len(), 0..80)
        .prop_map(move |idx| idx.iter().map(|&i| tokens[i]).collect::<Vec<_>>().join(" "))
}

/// Up to 12 random edits: each is `(position, op, byte)` with op 0 =
/// delete, 1 = insert, 2 = overwrite, and any byte value (invalid UTF-8
/// reaches the parsers as U+FFFD).
fn mutations() -> impl Strategy<Value = Vec<(usize, u8, u16)>> {
    prop::collection::vec((0usize..1 << 20, 0u8..3, 0u16..256), 1..12)
}

fn mutate(seed: &str, edits: &[(usize, u8, u16)]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for &(pos, op, byte) in edits {
        let byte = u8::try_from(byte).expect("byte range");
        let at = pos % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 if at < bytes.len() => bytes[at] = byte,
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

const LAYOUT_SEED: &str = "LAYOUT\n\
    CELL INVX1 0 0 600 2400\n\
    RECT poly 255 200 345 2200\n\
    RECT diffusion 100 300 500 1000\n\
    ENDCELL\n\
    INST u1 INVX1 1000 0 MY\n\
    END\n";

fn liberty_seed() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let lib = Library::svt90();
        let inv = lib.cell("INVX1").expect("INVX1 exists");
        let cc = characterize(
            inv,
            &[90.0, 90.0],
            "INVX1_nom",
            CharacterizeOptions::default(),
        )
        .expect("characterization succeeds");
        liberty::write_library("soup", &[cc])
    })
}

fn verilog_seed() -> &'static (Library, String) {
    static SEED: OnceLock<(Library, String)> = OnceLock::new();
    SEED.get_or_init(|| {
        let library = Library::svt90();
        let netlist = generate_benchmark(&BenchmarkProfile::custom("soup", 4, 2, 10, 7));
        let mapped = technology_map(&netlist, &library).expect("mapping succeeds");
        let text = verilog::write(&mapped, &library);
        (library, text)
    })
}

#[test]
fn seeds_parse() {
    assert!(parse_layout(LAYOUT_SEED).is_ok());
    assert!(liberty::parse_library(liberty_seed()).is_ok());
    let (library, text) = verilog_seed();
    assert!(verilog::parse(text, library).is_ok());
}

#[test]
fn inverted_rectangles_are_parse_errors() {
    for text in [
        "CELL A 0 0 100 100\nRECT poly 10 0 5 20\nENDCELL\n",
        "CELL A 0 0 100 100\nRECT poly 0 20 5 10\nENDCELL\n",
        "CELL A 100 0 0 100\nENDCELL\n",
    ] {
        let err = parse_layout(text).expect_err("inverted rectangle rejected");
        assert!(err.to_string().contains("inverted rectangle"), "{err}");
    }
}

#[test]
fn malformed_liberty_is_an_error() {
    for text in [
        // An unterminated group.
        "library (demo) {\n  comment : \"www\";\n",
        // A stray `*` after the library group.
        "library (demo) {\n  comment : \"www\";\n}\n*",
        // Nothing but comments.
        "/*\n  SPDX-License-Identifier: Apache-2.0\n*/\n\n/* delay model : typ */\n",
    ] {
        assert!(liberty::parse_library(text).is_err(), "{text:?}");
    }
}

#[test]
fn liberty_lexes_multi_byte_utf8() {
    let (name, cells) = liberty::parse_library("library (d\u{e9}mo) {\n}\n").expect("parses");
    assert_eq!((name.as_str(), cells.len()), ("d\u{e9}mo", 0));
    assert!(liberty::parse_library("library (x) {\n  a : \u{fffd};\n}\n").is_err());
}

#[test]
fn crossed_verilog_connection_parentheses_are_an_error() {
    let (library, _) = verilog_seed();
    let text = "module m (a);\n  input a;\n  INVX1 u1 (.A)x(a);\nendmodule\n";
    assert!(verilog::parse(text, library).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn layout_token_soup_never_panics(text in token_soup(LAYOUT_TOKENS)) {
        let _ = parse_layout(&text);
    }

    #[test]
    fn mutated_layouts_never_panic(edits in mutations()) {
        let _ = parse_layout(&mutate(LAYOUT_SEED, &edits));
    }

    #[test]
    fn liberty_token_soup_never_panics(text in token_soup(LIBERTY_TOKENS)) {
        let _ = liberty::parse_library(&text);
    }

    #[test]
    fn mutated_liberty_never_panics(edits in mutations()) {
        let _ = liberty::parse_library(&mutate(liberty_seed(), &edits));
    }

    #[test]
    fn verilog_token_soup_never_panics(text in token_soup(VERILOG_TOKENS)) {
        let (library, _) = verilog_seed();
        let _ = verilog::parse(&text, library);
    }

    #[test]
    fn mutated_verilog_never_panics(edits in mutations()) {
        let (library, seed) = verilog_seed();
        let _ = verilog::parse(&mutate(seed, &edits), library);
    }
}
