use std::collections::BTreeMap;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use svt_exec::{qf64, resolve_threads, try_par_map_threads, MemoCache};
use svt_litho::LithoSimulator;
use svt_opc::{LibraryOpc, ModelOpc, OpcOptions};

use crate::{
    characterize, CellContext, CharacterizeOptions, CharacterizedCell, Library, Region,
    StdcellError,
};

/// A post-OPC printed-CD lookup table over (left, right) neighbor-poly
/// spacing — the "look-up table which matches pitch to printed CD" of paper
/// §3.1.1, used for cell-boundary devices.
///
/// Each entry is built by running model-based OPC on a three-line pattern
/// (the device flanked at the requested spacings) and measuring the printed
/// device CD with the sign-off simulator. Spacings at or beyond the radius
/// of influence are represented by an "isolated" sentinel column/row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PitchCdTable {
    /// Grid of characterized spacings (nm), ascending; the last entry acts
    /// as the isolated sentinel.
    spacings_nm: Vec<f64>,
    /// `cd[i][j]` for left spacing `spacings_nm[i]`, right `spacings_nm[j]`.
    cd_nm: Vec<Vec<f64>>,
    drawn_cd_nm: f64,
}

impl PitchCdTable {
    /// Builds the table by OPC + sign-off simulation on every spacing pair.
    ///
    /// # Errors
    ///
    /// Returns [`StdcellError::Expansion`] if any pattern fails to correct
    /// or print.
    pub fn build(
        signoff: &LithoSimulator,
        opc: &ModelOpc,
        drawn_cd_nm: f64,
        spacings_nm: &[f64],
    ) -> Result<PitchCdTable, StdcellError> {
        Self::build_with_threads(signoff, opc, drawn_cd_nm, spacings_nm, None)
    }

    /// [`PitchCdTable::build`] with an explicit worker-thread count
    /// (`None` resolves via `SVT_THREADS` / available parallelism). All
    /// spacing pairs are simulated independently across the pool; the
    /// table layout is identical to the sequential nested loop.
    ///
    /// # Errors
    ///
    /// See [`PitchCdTable::build`].
    pub fn build_with_threads(
        signoff: &LithoSimulator,
        opc: &ModelOpc,
        drawn_cd_nm: f64,
        spacings_nm: &[f64],
        threads: Option<usize>,
    ) -> Result<PitchCdTable, StdcellError> {
        if spacings_nm.len() < 2 || spacings_nm.windows(2).any(|w| w[0] >= w[1]) {
            return Err(StdcellError::Expansion {
                reason: "need at least two strictly increasing spacings".into(),
            });
        }
        let _span = svt_obs::span("stdcell.pitch_table.build");
        let n = spacings_nm.len();
        let pairs: Vec<(f64, f64)> = spacings_nm
            .iter()
            .flat_map(|&left| spacings_nm.iter().map(move |&right| (left, right)))
            .collect();
        let flat = try_par_map_threads(resolve_threads(threads), &pairs, |&(left, right)| {
            let _pair = svt_obs::span("stdcell.pitch_table.pair");
            Self::entry(signoff, opc, drawn_cd_nm, left, right)
        })?;
        let cd = flat.chunks(n).map(<[f64]>::to_vec).collect();
        Ok(PitchCdTable {
            spacings_nm: spacings_nm.to_vec(),
            cd_nm: cd,
            drawn_cd_nm,
        })
    }

    fn entry(
        signoff: &LithoSimulator,
        opc: &ModelOpc,
        drawn: f64,
        left: f64,
        right: f64,
    ) -> Result<f64, StdcellError> {
        // OPC + sign-off on the three-line pattern is the dominant cost of
        // a table build; identical (engine, geometry) inputs always print
        // the same CD, so rebuilds hit the memo. Failures are never cached.
        let key = (
            signoff.identity(),
            opc.identity(),
            qf64(drawn),
            qf64(left),
            qf64(right),
        );
        if let Some(cd) = pair_cache().get(&key) {
            return Ok(cd);
        }
        let cd = Self::entry_uncached(signoff, opc, drawn, left, right)?;
        pair_cache().insert(key, cd);
        Ok(cd)
    }

    fn entry_uncached(
        signoff: &LithoSimulator,
        opc: &ModelOpc,
        drawn: f64,
        left: f64,
        right: f64,
    ) -> Result<f64, StdcellError> {
        use svt_opc::{CutlinePattern, OpcLine};
        let mut pattern = CutlinePattern::new(-2048.0, 4096.0);
        pattern.push(OpcLine::gate(0.0, drawn));
        pattern.push(OpcLine::dummy(-(left + drawn), drawn));
        pattern.push(OpcLine::dummy(right + drawn, drawn));
        opc.correct(&mut pattern)
            .map_err(|e| StdcellError::Expansion {
                reason: format!("OPC failed at spacings ({left}, {right}): {e}"),
            })?;
        signoff
            .print_device_cd(
                pattern.x0(),
                pattern.length(),
                &pattern.chrome(),
                0.0,
                0.0,
                1.0,
            )
            .map_err(|e| StdcellError::Expansion {
                reason: format!("sign-off failed at spacings ({left}, {right}): {e}"),
            })
    }

    /// Drawn CD the table was characterized for.
    #[must_use]
    pub fn drawn_cd_nm(&self) -> f64 {
        self.drawn_cd_nm
    }

    /// The characterized spacing grid.
    #[must_use]
    pub fn spacings_nm(&self) -> &[f64] {
        &self.spacings_nm
    }

    /// Printed CD for a device with the given neighbor spacings (`None` =
    /// no neighbor within the radius of influence). Bilinear interpolation
    /// inside the grid; spacings clamp to the grid ends.
    #[must_use]
    pub fn cd_at(&self, left_nm: Option<f64>, right_nm: Option<f64>) -> f64 {
        let iso = *self.spacings_nm.last().expect("validated nonempty");
        let l = left_nm.unwrap_or(iso).clamp(self.spacings_nm[0], iso);
        let r = right_nm.unwrap_or(iso).clamp(self.spacings_nm[0], iso);
        let (i, ti) = segment(&self.spacings_nm, l);
        let (j, tj) = segment(&self.spacings_nm, r);
        let v00 = self.cd_nm[i][j];
        let v01 = self.cd_nm[i][j + 1];
        let v10 = self.cd_nm[i + 1][j];
        let v11 = self.cd_nm[i + 1][j + 1];
        let a = v00 + (v01 - v00) * tj;
        let b = v10 + (v11 - v10) * tj;
        a + (b - a) * ti
    }

    /// Half-range of the CD variation across the table — the `lvar_pitch`
    /// contribution of paper §3.3 ("denote the total range of CD variation
    /// after OPC by ±lvar_pitch").
    #[must_use]
    pub fn lvar_pitch(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for row in &self.cd_nm {
            for &v in row {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        (hi - lo) / 2.0
    }
}

/// Key of one pitch-table entry: sign-off identity, OPC-engine identity,
/// and exact bits of (drawn, left spacing, right spacing).
pub type PitchPairKey = ([u64; 10], [u64; 16], u64, u64, u64);
type PairKey = PitchPairKey;

fn pair_cache() -> &'static MemoCache<PairKey, f64> {
    static CACHE: OnceLock<MemoCache<PairKey, f64>> = OnceLock::new();
    static TELEMETRY: OnceLock<()> = OnceLock::new();
    let cache = CACHE.get_or_init(MemoCache::default);
    TELEMETRY.get_or_init(|| svt_exec::register_cache_telemetry("stdcell.pitch_pairs", cache));
    cache
}

/// Key of one library-OPC row: engine identity, exact bits of every gate
/// `(center, drawn)`, and the cell width (`cell_lo` is always 0 here).
pub type OpcRowKey = ([u64; 18], Vec<(u64, u64)>, u64);
type RowKey = OpcRowKey;

fn row_cache() -> &'static MemoCache<RowKey, Vec<f64>> {
    static CACHE: OnceLock<MemoCache<RowKey, Vec<f64>>> = OnceLock::new();
    static TELEMETRY: OnceLock<()> = OnceLock::new();
    let cache = CACHE.get_or_init(MemoCache::default);
    TELEMETRY.get_or_init(|| svt_exec::register_cache_telemetry("stdcell.opc_rows", cache));
    cache
}

/// Drops the expansion memo caches (pitch-table entries and library-OPC
/// row CDs). Benchmarks call this between cold-cache measurements; cached
/// values are bit-identical to recomputed ones, so results never depend on
/// cache state.
pub fn clear_expand_caches() {
    pair_cache().clear();
    row_cache().clear();
}

/// Targeted invalidation of pitch-table memo entries: drops every cached
/// pair whose left *or* right neighbor spacing matches one of
/// `spacings_nm` (exact-bit match, the same [`qf64`] quantization the
/// keys use), across all engine identities. Returns the number of
/// entries dropped.
///
/// This is the keyed-invalidation hook the ECO flow calls when an edit
/// moves geometry at the given spacings: the affected table rows go cold
/// and are recomputed (and re-memoized) on the next
/// [`PitchCdTable::build`], while every other pair stays warm. Memoized
/// CDs are pure in their key, so invalidation is always *conservative* —
/// it can cost a recomputation, never change a printed CD; the
/// differential suite holds results bit-identical across any cache
/// state.
pub fn invalidate_pitch_pairs(spacings_nm: &[f64]) -> usize {
    let bits: Vec<u64> = spacings_nm.iter().map(|&s| qf64(s)).collect();
    let dropped = pair_cache()
        .retain(|&(_, _, _, left, right), _| !bits.contains(&left) && !bits.contains(&right));
    svt_obs::counter!("stdcell.pitch_pairs.invalidated").add(dropped as u64);
    dropped
}

/// Hit/miss counters of the expansion memo caches, as
/// `(pitch-table pairs, library-OPC rows)`.
#[must_use]
pub fn expand_cache_stats() -> (svt_exec::CacheStats, svt_exec::CacheStats) {
    (pair_cache().stats(), row_cache().stats())
}

/// A portable copy of the expansion memo caches (pitch-table pairs and
/// library-OPC row CDs), as produced by [`export_expand_caches`] and
/// consumed by [`preload_expand_caches`]. Entries are key-sorted, so the
/// same cache contents always serialize to the same bytes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExpandCacheSnapshot {
    /// Pitch-table pair entries (key → printed CD bits).
    pub pairs: Vec<(PitchPairKey, f64)>,
    /// Library-OPC row entries (key → per-device printed CDs).
    pub rows: Vec<(OpcRowKey, Vec<f64>)>,
}

/// Exports the current contents of the expansion memo caches, key-sorted
/// for deterministic serialization. Memoized values are pure in their
/// keys, so an exported snapshot is valid for any process whose engine
/// identities match the keys.
#[must_use]
pub fn export_expand_caches() -> ExpandCacheSnapshot {
    let mut pairs = pair_cache().export_entries();
    pairs.sort_unstable_by_key(|a| a.0);
    let mut rows = row_cache().export_entries();
    rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    ExpandCacheSnapshot { pairs, rows }
}

/// Preloads the expansion memo caches from a snapshot (existing entries
/// win). Returns the number of entries actually loaded. Keys embed the
/// engine identities, so a snapshot from a different engine build simply
/// never hits — preloading is always safe, at worst useless.
pub fn preload_expand_caches(snapshot: &ExpandCacheSnapshot) -> usize {
    pair_cache().preload(snapshot.pairs.iter().cloned())
        + row_cache().preload(snapshot.rows.iter().cloned())
}

impl svt_snap::Serialize for ExpandCacheSnapshot {
    fn serialize(&self, out: &mut svt_snap::Serializer) {
        self.pairs.serialize(out);
        self.rows.serialize(out);
    }
}

impl svt_snap::Deserialize for ExpandCacheSnapshot {
    fn deserialize(
        input: &mut svt_snap::Deserializer<'_>,
    ) -> Result<ExpandCacheSnapshot, svt_snap::SnapError> {
        Ok(ExpandCacheSnapshot {
            pairs: svt_snap::Deserialize::deserialize(input)?,
            rows: svt_snap::Deserialize::deserialize(input)?,
        })
    }
}

impl svt_snap::Serialize for PitchCdTable {
    fn serialize(&self, out: &mut svt_snap::Serializer) {
        self.spacings_nm.serialize(out);
        self.cd_nm.serialize(out);
        self.drawn_cd_nm.serialize(out);
    }
}

impl svt_snap::Deserialize for PitchCdTable {
    fn deserialize(
        input: &mut svt_snap::Deserializer<'_>,
    ) -> Result<PitchCdTable, svt_snap::SnapError> {
        let spacings_nm: Vec<f64> = svt_snap::Deserialize::deserialize(input)?;
        let cd_nm: Vec<Vec<f64>> = svt_snap::Deserialize::deserialize(input)?;
        let drawn_cd_nm: f64 = svt_snap::Deserialize::deserialize(input)?;
        // Re-validate the build invariants so a tampered snapshot cannot
        // produce a table `cd_at` would index out of bounds.
        if spacings_nm.len() < 2 || spacings_nm.windows(2).any(|w| w[0] >= w[1]) {
            return Err(svt_snap::SnapError::Malformed {
                what: "pitch table spacings must be >= 2 and strictly increasing".into(),
            });
        }
        if cd_nm.len() != spacings_nm.len()
            || cd_nm.iter().any(|row| row.len() != spacings_nm.len())
        {
            return Err(svt_snap::SnapError::Malformed {
                what: format!(
                    "pitch table CD matrix must be {n}x{n}",
                    n = spacings_nm.len()
                ),
            });
        }
        Ok(PitchCdTable {
            spacings_nm,
            cd_nm,
            drawn_cd_nm,
        })
    }
}

impl svt_snap::Serialize for ExpandedLibrary {
    fn serialize(&self, out: &mut svt_snap::Serializer) {
        self.library_name.serialize(out);
        self.pitch_table.serialize(out);
        self.base_cds.serialize(out);
        self.variants.serialize(out);
    }
}

impl svt_snap::Deserialize for ExpandedLibrary {
    fn deserialize(
        input: &mut svt_snap::Deserializer<'_>,
    ) -> Result<ExpandedLibrary, svt_snap::SnapError> {
        Ok(ExpandedLibrary {
            library_name: svt_snap::Deserialize::deserialize(input)?,
            pitch_table: svt_snap::Deserialize::deserialize(input)?,
            base_cds: svt_snap::Deserialize::deserialize(input)?,
            variants: svt_snap::Deserialize::deserialize(input)?,
        })
    }
}

fn segment(axis: &[f64], x: f64) -> (usize, f64) {
    let i = match axis.partition_point(|&a| a <= x) {
        0 => 0,
        k if k >= axis.len() => axis.len() - 2,
        k => k - 1,
    };
    let t = ((x - axis[i]) / (axis[i + 1] - axis[i])).clamp(0.0, 1.0);
    (i, t)
}

/// Options of the expanded-library build.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpandOptions {
    /// Spacing grid of the boundary-device CD table.
    pub table_spacings_nm: Vec<f64>,
    /// OPC engine options.
    pub opc: OpcOptions,
    /// Characterization options.
    pub characterize: CharacterizeOptions,
    /// Worker-thread count for the expansion (`None` resolves via the
    /// `SVT_THREADS` environment variable, then available parallelism).
    /// Results are identical for every thread count.
    pub threads: Option<usize>,
}

impl Default for ExpandOptions {
    fn default() -> ExpandOptions {
        ExpandOptions {
            table_spacings_nm: vec![150.0, 200.0, 250.0, 300.0, 400.0, 500.0, 700.0],
            opc: OpcOptions::default(),
            characterize: CharacterizeOptions::default(),
            threads: None,
        }
    }
}

impl ExpandOptions {
    /// A cheap configuration for tests and quick experiments.
    #[must_use]
    pub fn fast() -> ExpandOptions {
        ExpandOptions {
            table_spacings_nm: vec![200.0, 400.0, 700.0],
            ..ExpandOptions::default()
        }
    }
}

/// The context-expanded library: every cell of the base library
/// characterized in all 81 placement contexts, "a `.lib` which has 81
/// versions of each cell in the original library" (paper §3.1.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpandedLibrary {
    library_name: String,
    pitch_table: PitchCdTable,
    /// Library-OPC printed CD per device of each cell (interior baseline).
    base_cds: BTreeMap<String, Vec<f64>>,
    variants: BTreeMap<String, CharacterizedCell>,
}

impl ExpandedLibrary {
    /// Name of the base library.
    #[must_use]
    pub fn library_name(&self) -> &str {
        &self.library_name
    }

    /// The boundary-device CD lookup table.
    #[must_use]
    pub fn pitch_table(&self) -> &PitchCdTable {
        &self.pitch_table
    }

    /// The library-OPC printed CDs of a cell (aligned with its devices).
    #[must_use]
    pub fn base_cds(&self, cell: &str) -> Option<&[f64]> {
        self.base_cds.get(cell).map(Vec::as_slice)
    }

    /// The characterized variant of a cell in a placement context.
    #[must_use]
    pub fn variant(&self, cell: &str, context: CellContext) -> Option<&CharacterizedCell> {
        self.variants.get(&variant_name(cell, context))
    }

    /// All variants (≈ 81 × cell count).
    pub fn variants(&self) -> impl Iterator<Item = &CharacterizedCell> {
        self.variants.values()
    }

    /// Number of variants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.variants.len()
    }

    /// Whether the library is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.variants.is_empty()
    }
}

/// The canonical variant name of a cell in a context.
#[must_use]
pub fn variant_name(cell: &str, context: CellContext) -> String {
    format!("{cell}_ctx{}", context.code())
}

/// Builds the context-expanded library.
///
/// Pipeline (paper §3.1):
/// 1. library-based OPC of every cell master in a dummy environment —
///    interior devices get their printed CD from this step;
/// 2. a through-pitch CD table for boundary devices;
/// 3. for each of the 81 contexts, boundary-device CDs are re-read from the
///    table at the context's representative (pessimistic) spacings and the
///    cell is re-characterized.
///
/// # Errors
///
/// Returns [`StdcellError::Expansion`] when OPC or simulation fails.
pub fn expand_library(
    library: &Library,
    signoff: &LithoSimulator,
    options: &ExpandOptions,
) -> Result<ExpandedLibrary, StdcellError> {
    let _span = svt_obs::span("stdcell.expand");
    let threads = resolve_threads(options.threads);
    let opc = ModelOpc::with_production_model(signoff, options.opc);
    let pitch_table = PitchCdTable::build_with_threads(
        signoff,
        &opc,
        options.characterize.nominal_length_nm,
        &options.table_spacings_nm,
        options.threads,
    )?;
    let library_opc = LibraryOpc::new(opc, 150.0, options.characterize.nominal_length_nm);

    // Phase 1 — library OPC, parallel over cells. Each cell's printed
    // baseline CDs and its boundary corners are independent of every
    // other cell.
    let cells = library.cells();
    let prepped: Vec<(Vec<f64>, Vec<BoundaryCorner>)> =
        try_par_map_threads(threads, cells, |cell| {
            let _cell = svt_obs::span("stdcell.expand.library_opc");
            let layout = cell.layout();
            let mut cds = vec![options.characterize.nominal_length_nm; layout.devices().len()];
            // Library OPC row by row: each device row has its own cutline.
            for region in [Region::P, Region::N] {
                let gates: Vec<(f64, f64)> = layout
                    .row_spans(region)
                    .iter()
                    .map(|&(_, (lo, hi))| ((lo + hi) / 2.0, hi - lo))
                    .collect();
                let ids: Vec<usize> = layout
                    .row_spans(region)
                    .iter()
                    .map(|&(id, _)| id.0)
                    .collect();
                let key: RowKey = (
                    library_opc.identity(),
                    gates.iter().map(|&(c, w)| (qf64(c), qf64(w))).collect(),
                    qf64(layout.width_nm()),
                );
                let printed = if let Some(cached) = row_cache().get(&key) {
                    cached
                } else {
                    let corrected = library_opc
                        .correct_cell(&gates, 0.0, layout.width_nm())
                        .map_err(|e| StdcellError::Expansion {
                            reason: format!(
                                "library OPC failed for `{}` {region:?} row: {e}",
                                cell.name()
                            ),
                        })?;
                    row_cache().insert(key, corrected.printed_cd_nm.clone());
                    corrected.printed_cd_nm
                };
                for (k, &cd) in printed.iter().enumerate() {
                    cds[ids[k]] = cd;
                }
            }
            // Identify the four boundary devices (leftmost/rightmost per row)
            // and the in-cell spacing on their interior side.
            Ok((cds, boundary_corners(layout)))
        })?;

    // Phase 2 — characterization, parallel over cell × context pairs.
    let work: Vec<(usize, CellContext)> = (0..cells.len())
        .flat_map(|ci| CellContext::enumerate().map(move |context| (ci, context)))
        .collect();
    let characterized = try_par_map_threads(threads, &work, |&(ci, context)| {
        let _ctx = svt_obs::span("stdcell.expand.characterize");
        let cell = &cells[ci];
        let (cds, corners) = &prepped[ci];
        let mut lengths = cds.clone();
        for corner in corners {
            let bin = match (corner.left_is_outside, corner.region) {
                (true, Region::P) => context.lt,
                (true, Region::N) => context.lb,
                (false, Region::P) => context.rt,
                (false, Region::N) => context.rb,
            };
            // nps is measured device edge to neighbor poly, so the
            // bin's representative spacing is used directly.
            let outside = bin.representative_spacing_nm();
            let (left, right) = if corner.left_is_outside {
                (outside, Some(corner.inside_space_nm))
            } else {
                (Some(corner.inside_space_nm), outside)
            };
            lengths[corner.device_index] = pitch_table.cd_at(left, right);
        }
        let name = variant_name(cell.name(), context);
        let cell_variant = characterize(cell, &lengths, &name, options.characterize)?;
        Ok((name, cell_variant))
    })?;

    let base_cds: BTreeMap<String, Vec<f64>> = cells
        .iter()
        .zip(&prepped)
        .map(|(cell, (cds, _))| (cell.name().to_string(), cds.clone()))
        .collect();
    let variants: BTreeMap<String, CharacterizedCell> = characterized.into_iter().collect();

    Ok(ExpandedLibrary {
        library_name: library.name().to_string(),
        pitch_table,
        base_cds,
        variants,
    })
}

/// A boundary device of a cell: which device, which row, which side faces
/// the neighboring cell, and the known in-cell spacing on its interior
/// side.
struct BoundaryCorner {
    device_index: usize,
    region: Region,
    left_is_outside: bool,
    inside_space_nm: f64,
}

fn boundary_corners(layout: &crate::CellAbstract) -> Vec<BoundaryCorner> {
    let mut corners = Vec::with_capacity(4);
    for region in [Region::P, Region::N] {
        let spaces = layout.in_row_spaces(region);
        if spaces.is_empty() {
            continue;
        }
        let first = spaces[0];
        let last = spaces[spaces.len() - 1];
        // With a single device per row the same device owns both corners;
        // both are emitted and the right-corner lookup runs last.
        corners.push(BoundaryCorner {
            device_index: first.0 .0,
            region,
            left_is_outside: true,
            inside_space_nm: first.2,
        });
        corners.push(BoundaryCorner {
            device_index: last.0 .0,
            region,
            left_is_outside: false,
            inside_space_nm: last.1,
        });
    }
    corners
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ContextBin;
    use svt_litho::Process;
    use svt_snap::Serialize as _;

    fn signoff() -> LithoSimulator {
        Process::nm90().simulator()
    }

    fn small_library() -> Library {
        // Expansion over the full 10-cell library is exercised by the
        // experiment binaries; tests use a 2-cell subset for speed.
        let full = Library::svt90();
        let cells: Vec<_> = full
            .cells()
            .iter()
            .filter(|c| matches!(c.name(), "INVX1" | "NAND2X1"))
            .cloned()
            .collect();
        Library::from_cells("svt90_sub", cells)
    }

    #[test]
    fn targeted_invalidation_recomputes_bit_identically() {
        let sim = signoff();
        let lib = small_library();
        let opts = ExpandOptions::fast();
        let first = expand_library(&lib, &sim, &opts).unwrap();
        assert!(
            expand_cache_stats().0.entries > 0,
            "expansion must populate the pair cache"
        );

        // Invalidate every pair touching one grid spacing: with the fast
        // 3-point grid [200, 400, 700], spacing 400 participates in
        // 3 + 3 - 1 = 5 of the 9 pairs (possibly more if sibling tests
        // populated the shared cache concurrently).
        let dropped = invalidate_pitch_pairs(&[400.0]);
        assert!(dropped >= 5, "dropped only {dropped} of the family");
        // A spacing off every grid drops nothing.
        assert_eq!(invalidate_pitch_pairs(&[123.456]), 0);

        // Rebuild: cold pairs recompute, warm pairs hit, and the table
        // is bit-identical to the fully-warm build.
        let second = expand_library(&lib, &sim, &opts).unwrap();
        let a = first.pitch_table();
        let b = second.pitch_table();
        assert_eq!(a.spacings_nm(), b.spacings_nm());
        for (l, r) in a.spacings_nm().iter().zip(b.spacings_nm()) {
            assert_eq!(l.to_bits(), r.to_bits());
        }
        for (&l, &r) in a.spacings_nm().iter().zip(b.spacings_nm()) {
            let ca = a.cd_at(Some(l), Some(r));
            let cb = b.cd_at(Some(l), Some(r));
            assert_eq!(ca.to_bits(), cb.to_bits());
        }
    }

    #[test]
    fn parallel_expansion_matches_sequential() {
        let sim = signoff();
        let lib = small_library();
        let seq = expand_library(
            &lib,
            &sim,
            &ExpandOptions {
                threads: Some(1),
                ..ExpandOptions::fast()
            },
        )
        .unwrap();
        let par = expand_library(
            &lib,
            &sim,
            &ExpandOptions {
                threads: Some(4),
                ..ExpandOptions::fast()
            },
        )
        .unwrap();
        // Bit-for-bit: worker count must not change a single CD or arc.
        assert_eq!(seq, par);
    }

    #[test]
    fn warm_pitch_table_rebuild_is_identical() {
        let sim = signoff();
        let opc = ModelOpc::with_production_model(&sim, OpcOptions::default());
        let spacings = [200.0, 400.0, 700.0];
        let cold = PitchCdTable::build(&sim, &opc, 90.0, &spacings).unwrap();
        let warm = PitchCdTable::build(&sim, &opc, 90.0, &spacings).unwrap();
        assert_eq!(cold, warm);
    }

    #[test]
    fn pitch_table_varies_with_spacing() {
        let sim = signoff();
        let opc = ModelOpc::with_production_model(&sim, OpcOptions::default());
        let table = PitchCdTable::build(&sim, &opc, 90.0, &[200.0, 400.0, 700.0]).unwrap();
        assert!(
            table.lvar_pitch() > 0.1,
            "lvar_pitch {}",
            table.lvar_pitch()
        );
        assert!(
            table.lvar_pitch() < 10.0,
            "lvar_pitch {}",
            table.lvar_pitch()
        );
        // Interpolation stays within the corner values.
        let mid = table.cd_at(Some(300.0), Some(300.0));
        assert!(mid > 70.0 && mid < 110.0);
        // Isolated sentinel works.
        let iso = table.cd_at(None, None);
        assert!((iso - table.cd_at(Some(700.0), Some(700.0))).abs() < 1e-9);
    }

    #[test]
    fn pitch_table_rejects_bad_grids() {
        let sim = signoff();
        let opc = ModelOpc::with_production_model(&sim, OpcOptions::default());
        assert!(PitchCdTable::build(&sim, &opc, 90.0, &[300.0]).is_err());
        assert!(PitchCdTable::build(&sim, &opc, 90.0, &[400.0, 300.0]).is_err());
    }

    #[test]
    fn expansion_produces_81_variants_per_cell() {
        let lib = small_library();
        let expanded = expand_library(&lib, &signoff(), &ExpandOptions::fast()).unwrap();
        assert_eq!(expanded.len(), 2 * 81);
        assert!(!expanded.is_empty());
        let ctx = CellContext::default();
        let v = expanded.variant("INVX1", ctx).unwrap();
        assert_eq!(v.cell_name, "INVX1");
        assert_eq!(v.variant_name, variant_name("INVX1", ctx));
        assert!(expanded.variant("NORX9", ctx).is_none());
    }

    #[test]
    fn context_changes_boundary_device_lengths_only() {
        let lib = small_library();
        let expanded = expand_library(&lib, &signoff(), &ExpandOptions::fast()).unwrap();
        let dense = expanded
            .variant("NAND2X1", CellContext::uniform(ContextBin::Dense))
            .unwrap();
        let iso = expanded
            .variant("NAND2X1", CellContext::uniform(ContextBin::Isolated))
            .unwrap();
        let differing: usize = dense
            .device_lengths_nm
            .iter()
            .zip(&iso.device_lengths_nm)
            .filter(|(a, b)| (*a - *b).abs() > 1e-9)
            .count();
        assert!(differing > 0, "contexts must matter");
        // NAND2 has 4 devices, all of which are boundary devices (2 per
        // row), so up to 4 may differ — but never more.
        assert!(differing <= 4);
    }

    #[test]
    fn dense_context_is_slower_or_faster_consistently() {
        // Whatever the sign of the iso-dense bias, a context change must
        // change arc delay through the device lengths.
        let lib = small_library();
        let expanded = expand_library(&lib, &signoff(), &ExpandOptions::fast()).unwrap();
        let dense = expanded
            .variant("INVX1", CellContext::uniform(ContextBin::Dense))
            .unwrap();
        let iso = expanded
            .variant("INVX1", CellContext::uniform(ContextBin::Isolated))
            .unwrap();
        let d_dense = dense.arcs[0].delay.lookup(0.05, 0.01);
        let d_iso = iso.arcs[0].delay.lookup(0.05, 0.01);
        assert!(
            (d_dense - d_iso).abs() > 1e-6,
            "dense {d_dense} vs iso {d_iso} should differ"
        );
    }

    #[test]
    fn expanded_library_snapshot_round_trips_bit_exactly() {
        let lib = small_library();
        let expanded = expand_library(&lib, &signoff(), &ExpandOptions::fast()).unwrap();
        let back: ExpandedLibrary = svt_snap::from_bytes(&svt_snap::to_bytes(&expanded)).unwrap();
        assert_eq!(back, expanded);
        // PartialEq compares f64 by value; additionally require exact bits
        // on a boundary-device length, the most derived quantity we store.
        let ctx = CellContext::uniform(ContextBin::Dense);
        let a = expanded.variant("NAND2X1", ctx).unwrap();
        let b = back.variant("NAND2X1", ctx).unwrap();
        for (x, y) in a.device_lengths_nm.iter().zip(&b.device_lengths_nm) {
            assert_eq!(x.to_bits(), y.to_bits());
        }

        // The memo caches round-trip the same way, and preloading them into
        // a warm cache is a no-op (existing entries win).
        let caches = export_expand_caches();
        assert!(!caches.pairs.is_empty());
        let restored: ExpandCacheSnapshot =
            svt_snap::from_bytes(&svt_snap::to_bytes(&caches)).unwrap();
        assert_eq!(restored, caches);
        assert_eq!(preload_expand_caches(&restored), 0);
    }

    #[test]
    fn tampered_pitch_table_snapshot_is_rejected() {
        let sim = signoff();
        let opc = ModelOpc::with_production_model(&sim, OpcOptions::default());
        let table = PitchCdTable::build(&sim, &opc, 90.0, &[200.0, 400.0, 700.0]).unwrap();
        let good = svt_snap::to_bytes(&table);
        // Shrink the spacing grid to a single entry without touching the
        // CD matrix: shape validation must reject the decode.
        let mut bad = svt_snap::Serializer::default();
        vec![200.0f64].serialize(&mut bad);
        let mut bytes = bad.into_bytes();
        bytes.extend_from_slice(&good[to_bytes_len_of_spacings(&table)..]);
        assert!(matches!(
            svt_snap::from_bytes::<PitchCdTable>(&bytes),
            Err(svt_snap::SnapError::Malformed { .. })
        ));
    }

    fn to_bytes_len_of_spacings(table: &PitchCdTable) -> usize {
        let mut s = svt_snap::Serializer::default();
        table.spacings_nm.serialize(&mut s);
        s.into_bytes().len()
    }

    #[test]
    fn base_cds_are_near_target_after_library_opc() {
        let lib = small_library();
        let expanded = expand_library(&lib, &signoff(), &ExpandOptions::fast()).unwrap();
        for cell in lib.cells() {
            let cds = expanded.base_cds(cell.name()).unwrap();
            for &cd in cds {
                assert!(
                    (cd - 90.0).abs() < 8.0,
                    "{}: library-OPC CD {cd} too far from target",
                    cell.name()
                );
            }
        }
    }
}
