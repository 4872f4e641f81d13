//! A GDS-flavoured text interchange format for layouts.
//!
//! Real flows move mask data as GDSII streams; this workspace uses an
//! equivalent line-oriented text form so layouts (cell masters + placed
//! instances) survive round trips to disk and diffs stay readable:
//!
//! ```text
//! LAYOUT
//! CELL INVX1 0 0 600 2400
//!   RECT poly 255 200 345 2200
//! ENDCELL
//! INST u1 INVX1 1000 0 R0
//! END
//! ```
//!
//! # Examples
//!
//! ```
//! use svt_geom::{text_format, CellLayout, Layer, Layout, Nm, Rect, Shape};
//!
//! let mut cell = CellLayout::new("INVX1", Rect::new(Nm(0), Nm(0), Nm(600), Nm(2400)));
//! cell.push(Shape::new(Layer::Poly, Rect::new(Nm(255), Nm(200), Nm(345), Nm(2200))));
//! let mut layout = Layout::new();
//! layout.add_cell(cell);
//! let text = text_format::write_layout(&layout);
//! let parsed = text_format::parse_layout(&text)?;
//! assert_eq!(parsed, layout);
//! # Ok::<(), svt_geom::GeomError>(())
//! ```

use std::fmt::Write as _;

use crate::{
    CellLayout, GeomError, Instance, Layer, Layout, Nm, Orientation, Point, Rect, Shape, Transform,
};

fn layer_name(layer: Layer) -> &'static str {
    match layer {
        Layer::Poly => "poly",
        Layer::Diffusion => "diffusion",
        Layer::DummyPoly => "dummy-poly",
        Layer::Sraf => "sraf",
        Layer::Outline => "outline",
    }
}

fn parse_layer(s: &str) -> Option<Layer> {
    match s {
        "poly" => Some(Layer::Poly),
        "diffusion" => Some(Layer::Diffusion),
        "dummy-poly" => Some(Layer::DummyPoly),
        "sraf" => Some(Layer::Sraf),
        "outline" => Some(Layer::Outline),
        _ => None,
    }
}

fn orientation_name(o: Orientation) -> &'static str {
    match o {
        Orientation::R0 => "R0",
        Orientation::MY => "MY",
        Orientation::MX => "MX",
        Orientation::R180 => "R180",
    }
}

fn parse_orientation(s: &str) -> Option<Orientation> {
    match s {
        "R0" => Some(Orientation::R0),
        "MY" => Some(Orientation::MY),
        "MX" => Some(Orientation::MX),
        "R180" => Some(Orientation::R180),
        _ => None,
    }
}

/// Serializes a layout.
#[must_use]
pub fn write_layout(layout: &Layout) -> String {
    let mut out = String::from("LAYOUT\n");
    for cell in layout.cells() {
        let o = cell.outline();
        let _ = writeln!(
            out,
            "CELL {} {} {} {} {}",
            cell.name(),
            o.lo().x.0,
            o.lo().y.0,
            o.hi().x.0,
            o.hi().y.0
        );
        for s in cell.shapes() {
            let r = s.rect;
            let _ = writeln!(
                out,
                "  RECT {} {} {} {} {}",
                layer_name(s.layer),
                r.lo().x.0,
                r.lo().y.0,
                r.hi().x.0,
                r.hi().y.0
            );
        }
        out.push_str("ENDCELL\n");
    }
    for inst in layout.instances() {
        let t = &inst.transform;
        let _ = writeln!(
            out,
            "INST {} {} {} {} {}",
            inst.name,
            inst.cell,
            t.origin.x.0,
            t.origin.y.0,
            orientation_name(t.orientation)
        );
    }
    out.push_str("END\n");
    out
}

/// Parses the text form back into a layout.
///
/// # Errors
///
/// Returns [`GeomError::ParseLayoutError`] with the failing line for any
/// syntax or semantic problem (unknown layer/orientation, inverted
/// rectangle, instance of an undeclared cell, …).
pub fn parse_layout(text: &str) -> Result<Layout, GeomError> {
    let mut layout = Layout::new();
    let mut current: Option<CellLayout> = None;
    let err = |line: usize, reason: &str| GeomError::ParseLayoutError {
        line,
        reason: reason.to_string(),
    };
    let int = |line: usize, s: &str| -> Result<i64, GeomError> {
        s.parse().map_err(|_| err(line, "expected an integer"))
    };
    let rect = |line: usize, corners: [&str; 4]| -> Result<Rect, GeomError> {
        let [x0, y0, x1, y1] = corners.map(|s| int(line, s));
        let (x0, y0, x1, y1) = (x0?, y0?, x1?, y1?);
        if x0 > x1 || y0 > y1 {
            return Err(err(line, "inverted rectangle"));
        }
        Ok(Rect::new(Nm(x0), Nm(y0), Nm(x1), Nm(y1)))
    };

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            ["LAYOUT"] => {}
            ["END"] => break,
            ["CELL", name, x0, y0, x1, y1] => {
                if current.is_some() {
                    return Err(err(lineno, "nested CELL"));
                }
                let outline = rect(lineno, [x0, y0, x1, y1])?;
                current = Some(CellLayout::new(*name, outline));
            }
            ["RECT", layer, x0, y0, x1, y1] => {
                let cell = current
                    .as_mut()
                    .ok_or_else(|| err(lineno, "RECT outside a CELL"))?;
                let layer = parse_layer(layer).ok_or_else(|| err(lineno, "unknown layer"))?;
                cell.push(Shape::new(layer, rect(lineno, [x0, y0, x1, y1])?));
            }
            ["ENDCELL"] => {
                let cell = current
                    .take()
                    .ok_or_else(|| err(lineno, "ENDCELL without CELL"))?;
                layout.add_cell(cell);
            }
            ["INST", name, cell, x, y, orient] => {
                if current.is_some() {
                    return Err(err(lineno, "INST inside a CELL"));
                }
                let master = layout
                    .cell(cell)
                    .ok_or_else(|| err(lineno, "instance of undeclared cell"))?;
                let (w, h) = (master.width(), master.height());
                let orientation =
                    parse_orientation(orient).ok_or_else(|| err(lineno, "unknown orientation"))?;
                let t = Transform::new(
                    Point::new(Nm(int(lineno, x)?), Nm(int(lineno, y)?)),
                    orientation,
                    w,
                    h,
                );
                layout
                    .add_instance(Instance::new(*name, *cell, t))
                    .map_err(|_| err(lineno, "invalid instance"))?;
            }
            _ => return Err(err(lineno, "unrecognized statement")),
        }
    }
    if current.is_some() {
        return Err(GeomError::ParseLayoutError {
            line: text.lines().count(),
            reason: "unterminated CELL".into(),
        });
    }
    Ok(layout)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Layout {
        let mut inv = CellLayout::new("INVX1", Rect::new(Nm(0), Nm(0), Nm(600), Nm(2400)));
        inv.push(Shape::new(
            Layer::Poly,
            Rect::new(Nm(255), Nm(200), Nm(345), Nm(2200)),
        ));
        inv.push(Shape::new(
            Layer::Diffusion,
            Rect::new(Nm(100), Nm(300), Nm(500), Nm(1000)),
        ));
        let mut layout = Layout::new();
        layout.add_cell(inv);
        let t = Transform::new(
            Point::new(Nm(1000), Nm(0)),
            Orientation::MY,
            Nm(600),
            Nm(2400),
        );
        layout
            .add_instance(Instance::new("u1", "INVX1", t))
            .expect("master exists");
        layout
    }

    #[test]
    fn round_trip_preserves_layout() {
        let layout = sample();
        let text = write_layout(&layout);
        assert_eq!(parse_layout(&text).expect("parses"), layout);
    }

    #[test]
    fn all_layers_and_orientations_round_trip() {
        for layer in [
            Layer::Poly,
            Layer::Diffusion,
            Layer::DummyPoly,
            Layer::Sraf,
            Layer::Outline,
        ] {
            assert_eq!(parse_layer(layer_name(layer)), Some(layer));
        }
        for o in [
            Orientation::R0,
            Orientation::MY,
            Orientation::MX,
            Orientation::R180,
        ] {
            assert_eq!(parse_orientation(orientation_name(o)), Some(o));
        }
    }

    #[test]
    fn parse_errors_carry_lines() {
        let bad = "LAYOUT\nRECT poly 0 0 1 1\nEND\n";
        match parse_layout(bad) {
            Err(GeomError::ParseLayoutError { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(
            parse_layout("LAYOUT\nCELL A 0 0 10 10\nEND\n").is_err(),
            "unterminated cell"
        );
        assert!(
            parse_layout("LAYOUT\nINST u X 0 0 R0\nEND\n").is_err(),
            "undeclared master"
        );
        assert!(parse_layout("LAYOUT\nGARBAGE\nEND\n").is_err());
        assert!(parse_layout("LAYOUT\nCELL A 0 0 ten 10\nENDCELL\nEND\n").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_tolerated() {
        let text = "# header\nLAYOUT\n\nCELL A 0 0 10 10\n# inner\nENDCELL\nEND\n";
        let layout = parse_layout(text).expect("parses");
        assert_eq!(layout.cells().len(), 1);
    }

    #[test]
    fn flattened_masks_survive_the_round_trip() {
        let layout = sample();
        let parsed = parse_layout(&write_layout(&layout)).expect("parses");
        assert_eq!(parsed.flatten_mask(), layout.flatten_mask());
    }
}
