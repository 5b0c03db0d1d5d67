//! Plan-cache persistence: spill cached plans to a versioned on-disk
//! manifest ([`sm_dbcsr::wire::PlanManifest`]) so a warm restart replans
//! nothing. The symbolic phase is the cost the paper amortizes across SCF
//! iterations; persistence amortizes it across *process lifetimes*.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use sm_dbcsr::wire::{self, PatternFingerprint};
use sm_dbcsr::{BlockedDims, CooPattern};

use super::{ExecutionPlan, SubmatrixEngine};
use crate::assembly::{AssemblyMap, AssemblySlot, ExtractionMap, ExtractionSlot, SubmatrixSpec};
use crate::mu::contributing_rows;
use crate::transfers::TransferStats;

/// Failure of [`SubmatrixEngine::export_plans`] /
/// [`SubmatrixEngine::import_plans`].
#[derive(Debug)]
pub enum PlanPersistError {
    /// Filesystem error reading or writing the manifest.
    Io(std::io::Error),
    /// The file is not a decodable plan manifest (wrong magic, foreign
    /// schema version, truncated, or a payload failing its checksum).
    Wire(wire::ManifestError),
    /// The manifest was produced under a different grouping policy; its
    /// plans would be wrong for this engine, so the import refuses.
    ForeignGrouping {
        /// Producer tag found in the manifest header.
        found: u64,
        /// This engine's grouping cache tag.
        expected: u64,
    },
    /// The container decoded but an entry's plan payload is malformed.
    Corrupt(String),
}

impl std::fmt::Display for PlanPersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanPersistError::Io(e) => write!(f, "plan manifest io: {e}"),
            PlanPersistError::Wire(e) => write!(f, "{e}"),
            PlanPersistError::ForeignGrouping { found, expected } => write!(
                f,
                "plan manifest was exported under grouping tag {found:#x} but this \
                 engine groups under {expected:#x} — refusing to import foreign plans"
            ),
            PlanPersistError::Corrupt(what) => {
                write!(f, "plan manifest entry corrupt: {what}")
            }
        }
    }
}

impl std::error::Error for PlanPersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanPersistError::Io(e) => Some(e),
            PlanPersistError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PlanPersistError {
    fn from(e: std::io::Error) -> Self {
        PlanPersistError::Io(e)
    }
}

impl From<wire::ManifestError> for PlanPersistError {
    fn from(e: wire::ManifestError) -> Self {
        PlanPersistError::Wire(e)
    }
}

/// Word-stream writer for the plan codec (`u64` words; `f64` fields travel
/// bit-exactly via `to_bits`, so an imported plan replays the original's
/// numeric behavior byte-for-byte).
fn push_usize_slice(out: &mut Vec<u64>, xs: &[usize]) {
    out.push(xs.len() as u64);
    out.extend(xs.iter().map(|&x| x as u64));
}

fn encode_plan(plan: &ExecutionPlan) -> Vec<u64> {
    let mut w: Vec<u64> = vec![
        plan.pattern_nnz as u64,
        plan.n_submatrices as u64,
        plan.max_dim as u64,
        plan.avg_dim.to_bits(),
        plan.total_cost.to_bits(),
        plan.element_fill.to_bits(),
        plan.symbolic_seconds.to_bits(),
    ];
    push_usize_slice(&mut w, plan.dims.sizes());
    w.push(plan.transfers.unique_bytes);
    w.push(plan.transfers.naive_bytes);
    w.push(plan.transfers.unique_blocks);
    w.push(plan.transfers.total_references);
    w.push(plan.my_specs.len() as u64);
    for spec in &plan.my_specs {
        push_usize_slice(&mut w, &spec.cols);
        push_usize_slice(&mut w, &spec.rows);
        push_usize_slice(&mut w, &spec.row_offsets);
        w.push(spec.dim as u64);
    }
    w.push(plan.remote_wanted.len() as u64);
    for &(br, bc) in &plan.remote_wanted {
        w.push(br as u64);
        w.push(bc as u64);
    }
    w.push(plan.assembly.len() as u64);
    for map in &plan.assembly {
        w.push(map.dim as u64);
        w.push(map.slots.len() as u64);
        for s in &map.slots {
            w.extend_from_slice(&[s.br as u64, s.bc as u64, s.row_off as u64, s.col_off as u64]);
        }
    }
    w.push(plan.extraction.len() as u64);
    for map in &plan.extraction {
        w.push(map.n_sel_cols as u64);
        w.push(map.slots.len() as u64);
        for s in &map.slots {
            w.extend_from_slice(&[
                s.br as u64,
                s.bc as u64,
                s.row_off as u64,
                s.col_off as u64,
                s.sel_off as u64,
                s.nrows as u64,
                s.ncols as u64,
            ]);
        }
    }
    w.push(plan.contributing.len() as u64);
    for cols in &plan.contributing {
        push_usize_slice(&mut w, cols);
    }
    w
}

fn corrupt(what: &str) -> PlanPersistError {
    PlanPersistError::Corrupt(what.into())
}

/// Bounds-checked reader over a plan payload.
struct PlanReader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl PlanReader<'_> {
    fn u(&mut self) -> Result<u64, PlanPersistError> {
        let w = *self
            .words
            .get(self.pos)
            .ok_or_else(|| corrupt("payload ends early"))?;
        self.pos += 1;
        Ok(w)
    }

    fn us(&mut self) -> Result<usize, PlanPersistError> {
        Ok(self.u()? as usize)
    }

    fn f(&mut self) -> Result<f64, PlanPersistError> {
        Ok(f64::from_bits(self.u()?))
    }

    /// A count, then that many items of at least `item_words` words each.
    /// The count is bounded by the words that remain, so a damaged one can
    /// neither reserve memory for items that are not there nor drive a
    /// long loop.
    fn items<T>(
        &mut self,
        item_words: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, PlanPersistError>,
    ) -> Result<Vec<T>, PlanPersistError> {
        let n = self.us()?;
        if n > (self.words.len() - self.pos) / item_words {
            return Err(corrupt("count overruns payload"));
        }
        (0..n).map(|_| read(self)).collect()
    }

    fn usize_vec(&mut self) -> Result<Vec<usize>, PlanPersistError> {
        self.items(1, Self::us)
    }
}

fn decode_plan(entry: &wire::PlanManifestEntry) -> Result<ExecutionPlan, PlanPersistError> {
    let mut r = PlanReader {
        words: &entry.words,
        pos: 0,
    };
    let pattern_nnz = r.us()?;
    let n_submatrices = r.us()?;
    let max_dim = r.us()?;
    let avg_dim = r.f()?;
    let total_cost = r.f()?;
    let element_fill = r.f()?;
    let symbolic_seconds = r.f()?;
    let sizes = r.usize_vec()?;
    let n = sizes.iter().try_fold(0usize, |n, &s| n.checked_add(s));
    if sizes.contains(&0) || n.is_none() {
        return Err(corrupt("zero-sized block or overflowing partition"));
    }
    let dims = BlockedDims::new(sizes);
    let transfers = TransferStats {
        unique_bytes: r.u()?,
        naive_bytes: r.u()?,
        unique_blocks: r.u()?,
        total_references: r.u()?,
    };
    // Struct fields are evaluated in the order written: the wire order.
    let my_specs = r.items(4, |r| {
        Ok(SubmatrixSpec {
            cols: r.usize_vec()?,
            rows: r.usize_vec()?,
            row_offsets: r.usize_vec()?,
            dim: r.us()?,
        })
    })?;
    let remote_wanted = r.items(2, |r| Ok((r.us()?, r.us()?)))?;
    let assembly = r.items(2, |r| {
        let dim = r.us()?;
        let slots = r.items(4, |r| {
            Ok(AssemblySlot {
                br: r.us()?,
                bc: r.us()?,
                row_off: r.us()?,
                col_off: r.us()?,
            })
        })?;
        Ok(AssemblyMap { dim, slots })
    })?;
    let extraction = r.items(2, |r| {
        let n_sel_cols = r.us()?;
        let slots = r.items(7, |r| {
            Ok(ExtractionSlot {
                br: r.us()?,
                bc: r.us()?,
                row_off: r.us()?,
                col_off: r.us()?,
                sel_off: r.us()?,
                nrows: r.us()?,
                ncols: r.us()?,
            })
        })?;
        Ok(ExtractionMap { slots, n_sel_cols })
    })?;
    let contributing = r.items(1, PlanReader::usize_vec)?;
    if r.pos != entry.words.len() {
        return Err(corrupt("trailing words in payload"));
    }
    let plan = ExecutionPlan {
        fingerprint: PatternFingerprint(entry.fingerprint),
        rank: entry.rank as usize,
        size: entry.size as usize,
        pattern_nnz,
        dims,
        n_submatrices,
        max_dim,
        avg_dim,
        total_cost,
        my_specs,
        transfers,
        remote_wanted,
        assembly,
        extraction,
        contributing,
        element_fill,
        symbolic_seconds,
    };
    check_copy_programs(&plan)?;
    Ok(plan)
}

/// Everything the numeric phase indexes with must agree with the decoded
/// partition, or `execute` would read past a matrix (a panic) or copy the
/// wrong elements (a wrong density without an error). A spec's assembly
/// slots name every pattern block inside its principal submatrix — all
/// that the spec and both copy programs were built from — so the three
/// are rebuilt from those blocks and must come out as decoded.
fn check_copy_programs(plan: &ExecutionPlan) -> Result<(), PlanPersistError> {
    let (dims, nb) = (&plan.dims, plan.dims.nb());
    let in_grid = |&(br, bc): &(usize, usize)| br < nb && bc < nb;
    let n = plan.my_specs.len();
    if plan.assembly.len() != n || plan.extraction.len() != n || plan.contributing.len() != n {
        return Err(corrupt("copy programs not parallel to specs"));
    }
    if !plan.remote_wanted.iter().all(in_grid) {
        return Err(corrupt("remote block outside the partition"));
    }
    for (i, spec) in plan.my_specs.iter().enumerate() {
        let blocks: Vec<(usize, usize)> = plan.assembly[i]
            .slots
            .iter()
            .map(|s| (s.br, s.bc))
            .collect();
        if !blocks.iter().all(in_grid) {
            return Err(corrupt("assembly block outside the partition"));
        }
        let pattern = CooPattern::from_coords(blocks, nb);
        // What `SubmatrixSpec::build` would otherwise panic on.
        let has_diagonals = !spec.cols.is_empty()
            && spec
                .cols
                .iter()
                .all(|&c| c < nb && pattern.rows_in_col(c).any(|r| r == c));
        if !has_diagonals
            || *spec != SubmatrixSpec::build(&pattern, dims, &spec.cols)
            || plan.assembly[i] != AssemblyMap::build(spec, &pattern)
            || plan.extraction[i] != ExtractionMap::build(spec, &pattern, dims)
            || plan.contributing[i] != contributing_rows(spec, dims)
        {
            return Err(corrupt("copy program disagrees with its spec"));
        }
    }
    Ok(())
}

impl SubmatrixEngine {
    /// Spill every cached plan to a versioned manifest at `path`
    /// ([`wire::PLAN_MANIFEST_SCHEMA_VERSION`]), preserving LRU stamps so
    /// a later [`import_plans`](Self::import_plans) restores eviction
    /// order faithfully. Entries are sorted by `(fingerprint, rank,
    /// size)`, so equal caches export byte-identical manifests. Returns
    /// the number of plans exported.
    pub fn export_plans(&self, path: &std::path::Path) -> Result<usize, PlanPersistError> {
        let stats = self.stats();
        let manifest = {
            let cache = self.cache();
            let mut entries: Vec<wire::PlanManifestEntry> = cache
                .map
                .values()
                .map(|(plan, stamp)| wire::PlanManifestEntry {
                    fingerprint: plan.fingerprint.0,
                    rank: plan.rank as u64,
                    size: plan.size as u64,
                    lru_stamp: *stamp,
                    words: encode_plan(plan),
                })
                .collect();
            entries.sort_by_key(|e| (e.fingerprint, e.rank, e.size));
            wire::PlanManifest {
                tag: self.opts.grouping.cache_tag(),
                capacity: self.opts.plan_cache_capacity.map_or(u64::MAX, |c| c as u64),
                tick: cache.tick,
                evictions: stats.evictions as u64,
                hits: stats.cache_hits as u64,
                builds: stats.symbolic_builds as u64,
                entries,
            }
        };
        let n = manifest.entries.len();
        std::fs::write(path, manifest.encode())?;
        Ok(n)
    }

    /// Restore plans from a manifest written by
    /// [`export_plans`](Self::export_plans). Rejects manifests from a
    /// different schema version or grouping policy. Imported plans keep
    /// their original LRU stamps (the clock resumes at or above the
    /// newest stamp); if the manifest holds more plans than this engine's
    /// capacity, only the most recently used survive and the overflow
    /// counts as evictions. Importing touches neither the hit nor the
    /// build counter — a warm restart that replans nothing reports
    /// `builds == 0` on resubmission. Returns the number of plans
    /// restored.
    pub fn import_plans(&self, path: &std::path::Path) -> Result<usize, PlanPersistError> {
        let bytes = std::fs::read(path)?;
        let manifest = wire::PlanManifest::decode(&bytes)?;
        let expected = self.opts.grouping.cache_tag();
        if manifest.tag != expected {
            return Err(PlanPersistError::ForeignGrouping {
                found: manifest.tag,
                expected,
            });
        }
        if self.opts.plan_cache_capacity == Some(0) {
            return Ok(0); // caching disabled; nothing to restore into
        }
        let mut decoded = Vec::with_capacity(manifest.entries.len());
        for entry in &manifest.entries {
            decoded.push((decode_plan(entry)?, entry.lru_stamp));
        }
        // Keep only the most recently used plans when over capacity; the
        // dropped overflow is an eviction like any other.
        let cap = self.opts.plan_cache_capacity.unwrap_or(usize::MAX);
        decoded.sort_by_key(|(_, stamp)| std::cmp::Reverse(*stamp));
        let overflow = decoded.len().saturating_sub(cap);
        decoded.truncate(cap);
        let restored = decoded.len();
        {
            let mut cache = self.cache();
            for (plan, stamp) in decoded {
                let key = self.cache_key(plan.fingerprint, plan.rank, plan.size);
                cache.tick = cache.tick.max(stamp);
                cache.map.insert(key, (Arc::new(plan), stamp));
            }
        }
        self.counters
            .evictions
            .fetch_add(overflow, Ordering::Relaxed);
        if sm_trace::enabled() {
            sm_trace::counter_add(
                &sm_trace::scoped_root("plan_cache.imported"),
                restored as u64,
            );
            sm_trace::gauge_set(
                &sm_trace::scoped_root("plan_cache.occupancy"),
                self.cached_plans() as f64,
            );
        }
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::banded_gapped;
    use crate::engine::{EngineOptions, Grouping, NumericOptions};
    use sm_comsim::SerialComm;
    use sm_dbcsr::DbcsrMatrix;

    fn manifest_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sm_engine_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn plan_codec_roundtrips_word_exactly() {
        let (dense, dims) = banded_gapped(5, 2);
        let comm = SerialComm::new();
        let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
        let plan = ExecutionPlan::build(
            m.global_pattern(&comm),
            dims,
            &EngineOptions::default(),
            0,
            1,
        );
        let words = encode_plan(&plan);
        let entry = wire::PlanManifestEntry {
            fingerprint: plan.fingerprint.0,
            rank: 0,
            size: 1,
            lru_stamp: 3,
            words,
        };
        let back = decode_plan(&entry).expect("decode");
        // Re-encoding the decode reproduces the words exactly, so every
        // field (including f64 bit patterns) survived.
        assert_eq!(encode_plan(&back), entry.words);
        assert_eq!(back.fingerprint, plan.fingerprint);
        assert_eq!(back.my_specs, plan.my_specs);
        assert_eq!(back.assembly, plan.assembly);
        assert_eq!(back.extraction, plan.extraction);

        // A truncated payload is rejected, not misparsed.
        let mut chopped = entry.clone();
        chopped.words.truncate(entry.words.len() - 1);
        assert!(matches!(
            decode_plan(&chopped),
            Err(PlanPersistError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_plan_payload_is_a_typed_error_never_a_panic_or_a_wrong_result() {
        let (dense, dims) = banded_gapped(5, 2);
        let comm = SerialComm::new();
        let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
        let plan = ExecutionPlan::build(
            m.global_pattern(&comm),
            dims,
            &EngineOptions::default(),
            0,
            1,
        );
        let entry = wire::PlanManifestEntry {
            fingerprint: plan.fingerprint.0,
            rank: 0,
            size: 1,
            lru_stamp: 1,
            words: encode_plan(&plan),
        };
        let manifest = wire::PlanManifest {
            entries: vec![entry.clone()],
            ..Default::default()
        };
        let bytes = manifest.encode();
        // A one-entry manifest ends with that entry's payload words.
        let payload_start = bytes.len() - 8 * entry.words.len();

        let engine = SubmatrixEngine::default();
        // Both extraction paths: the contributing columns a
        // diagonalization evaluates, and the full sign of an iteration.
        let iterative = NumericOptions {
            solve: crate::solver::SolveOptions {
                method: crate::solver::SignMethod::NewtonSchulz,
                ..Default::default()
            },
            ..Default::default()
        };
        let options = [NumericOptions::default(), iterative];
        let expect = options.map(|numeric| {
            let (sign, _) = engine.execute(&plan, &m, 0.0, &numeric, &comm);
            sign.to_dense(&comm)
        });
        let (mut decoded_ok, mut rejected) = (0, 0);
        for (k, &word) in entry.words.iter().enumerate() {
            for bad in [1u64 << 62, word.wrapping_add(1), 1000] {
                if bad == word {
                    continue;
                }
                // Past the container's checksum the codec's own checks
                // must hold: a plan that decodes also executes, and on the
                // same copy programs.
                let mut damaged = entry.clone();
                damaged.words[k] = bad;
                match decode_plan(&damaged) {
                    Ok(p) => {
                        decoded_ok += 1;
                        for (numeric, expect) in options.iter().zip(&expect) {
                            let (got, _) = engine.execute(&p, &m, 0.0, numeric, &comm);
                            assert!(got.to_dense(&comm).allclose(expect, 1e-12));
                        }
                    }
                    Err(PlanPersistError::Corrupt(_)) => rejected += 1,
                    Err(other) => panic!("word {k} := {bad:#x}: unexpected {other}"),
                }
                // Through the container every damaged payload is refused.
                let mut file = bytes.clone();
                let at = payload_start + 8 * k;
                file[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                assert_eq!(
                    wire::PlanManifest::decode(&file),
                    Err(wire::ManifestError::Checksum { entry: 0 }),
                    "word {k} := {bad:#x}"
                );
            }
        }
        // Only words no copy program reads (the reported plan shape and
        // timings) can change without the codec noticing.
        assert!(decoded_ok > 0 && decoded_ok <= 3 * 11, "{decoded_ok}");
        assert!(rejected > 2 * entry.words.len());
    }

    #[test]
    fn export_import_roundtrip_replans_nothing() {
        let (dense, dims) = banded_gapped(6, 2);
        let comm = SerialComm::new();
        let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);

        let warm = SubmatrixEngine::default();
        let _ = warm.sign(&m, 0.0, &NumericOptions::default(), &comm);
        assert_eq!(warm.stats().symbolic_builds, 1);
        let path = manifest_path("roundtrip.smplans");
        let exported = warm.export_plans(&path).expect("export");
        assert_eq!(exported, 1);

        // Fresh process: import, resubmit the same pattern — zero builds.
        let cold = SubmatrixEngine::default();
        let imported = cold.import_plans(&path).expect("import");
        assert_eq!(imported, exported);
        assert_eq!(cold.cached_plans(), 1);
        let (expect, _) = warm.sign(&m, 0.0, &NumericOptions::default(), &comm);
        let (got, report) = cold.sign(&m, 0.0, &NumericOptions::default(), &comm);
        assert!(
            report.plan_cached,
            "imported plan must serve the resubmission"
        );
        let stats = cold.stats();
        assert_eq!(stats.symbolic_builds, 0, "warm restart must replan nothing");
        assert_eq!(stats.cache_hits, 1);
        assert!(got.to_dense(&comm).allclose(&expect.to_dense(&comm), 0.0));
    }

    #[test]
    fn import_rejects_foreign_grouping_and_respects_capacity() {
        let comm = SerialComm::new();
        let producer = SubmatrixEngine::default();
        // Three distinct patterns, touched in a known LRU order.
        let mut mats = Vec::new();
        for nb in [4usize, 5, 6] {
            let (dense, dims) = banded_gapped(nb, 2);
            let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
            let _ = producer.sign(&m, 0.0, &NumericOptions::default(), &comm);
            mats.push(m);
        }
        let path = manifest_path("capacity.smplans");
        assert_eq!(producer.export_plans(&path).expect("export"), 3);

        // A grouping mismatch is refused outright.
        let foreign = SubmatrixEngine::new(EngineOptions {
            grouping: Grouping::Consecutive(2),
            ..EngineOptions::default()
        });
        assert!(matches!(
            foreign.import_plans(&path),
            Err(PlanPersistError::ForeignGrouping { .. })
        ));

        // A bounded importer keeps only the most recently used plans and
        // books the overflow as evictions.
        let bounded = SubmatrixEngine::new(EngineOptions {
            plan_cache_capacity: Some(2),
            ..EngineOptions::default()
        });
        assert_eq!(bounded.import_plans(&path).expect("import"), 2);
        assert_eq!(bounded.cached_plans(), 2);
        assert_eq!(bounded.stats().evictions, 1);
        // The two newest patterns hit; the evicted oldest must rebuild.
        // (Touch newest-first so the rebuild's own insert can't thrash the
        // bounded cache mid-check.)
        for (i, m) in mats.iter().enumerate().rev() {
            let _ = bounded.sign(m, 0.0, &NumericOptions::default(), &comm);
            let stats = bounded.stats();
            if i == 0 {
                assert_eq!(
                    stats.symbolic_builds, 1,
                    "oldest plan was dropped at import"
                );
            }
        }
        let stats = bounded.stats();
        assert_eq!(stats.symbolic_builds, 1);
        assert_eq!(stats.cache_hits, 2);

        // Garbage and missing files surface typed errors.
        let junk = manifest_path("junk.smplans");
        std::fs::write(&junk, b"not a manifest at all").expect("write junk");
        assert!(matches!(
            SubmatrixEngine::default().import_plans(&junk),
            Err(PlanPersistError::Wire(_))
        ));
        assert!(matches!(
            SubmatrixEngine::default().import_plans(&manifest_path("absent.smplans")),
            Err(PlanPersistError::Io(_))
        ));
    }
}
