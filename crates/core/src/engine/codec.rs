//! Plan-cache persistence: spill cached patterns to a versioned on-disk
//! manifest ([`sm_dbcsr::wire::PlanManifest`]) so a warm restart, at any
//! world size, gathers no pattern. The symbolic phase is the cost the paper
//! amortizes across SCF iterations; persistence amortizes it across
//! *process lifetimes*. A manifest stores what a cache entry is a function
//! of — the partition and the global pattern, once per pattern — and
//! import rebuilds each entry locally with the same [`PatternPlan::new`] a
//! cache miss runs, without the miss's collective pattern gather and
//! before any job asks for it; each rank derives its view on first use.

use std::sync::Arc;

use sm_dbcsr::wire;
use sm_dbcsr::{BlockedDims, CooPattern};

use super::cache::CachedPattern;
use super::{Grouping, SubmatrixEngine};
use crate::plan::PatternPlan;

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
    /// entries would be wrong for this engine, so the import refuses.
    ForeignGrouping {
        /// Producer tag found in the manifest header.
        found: u64,
        /// This engine's grouping cache tag.
        expected: u64,
    },
    /// The container decoded but an entry is malformed, or its payload is
    /// not the pattern its header's fingerprint names.
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

/// An entry's payload: its partition and global block pattern,
/// `[nb, sizes…, nnz, (br, bc)…]` in the pattern's (column, row) order.
fn encode_plan(plan: &PatternPlan) -> Vec<u64> {
    let (sizes, blocks) = (plan.dims.sizes(), plan.pattern.entries());
    let mut w = Vec::with_capacity(2 + sizes.len() + 2 * blocks.len());
    w.push(sizes.len() as u64);
    w.extend(sizes.iter().map(|&s| s as u64));
    w.push(blocks.len() as u64);
    for &(br, bc) in blocks {
        w.extend_from_slice(&[br as u64, bc as u64]);
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
    fn us(&mut self) -> Result<usize, PlanPersistError> {
        let w = *self
            .words
            .get(self.pos)
            .ok_or_else(|| corrupt("payload ends early"))?;
        self.pos += 1;
        Ok(w as usize)
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
}

impl SubmatrixEngine {
    /// Rebuild one manifest entry's pattern plan. The checksum covers the
    /// payload only, so the entry header is checked here: the payload's
    /// pattern must hash to the fingerprint the entry is keyed by. Then
    /// everything `PatternPlan::new` would panic on is refused, and the
    /// plan is built as on a miss.
    fn decode_plan(
        &self,
        entry: &wire::PlanManifestEntry,
    ) -> Result<PatternPlan, PlanPersistError> {
        let mut r = PlanReader {
            words: &entry.words,
            pos: 0,
        };
        let sizes = r.items(1, PlanReader::us)?;
        let blocks = r.items(2, |r| Ok((r.us()?, r.us()?)))?;
        if r.pos != entry.words.len() {
            return Err(corrupt("trailing words in payload"));
        }
        let n = sizes.iter().try_fold(0usize, |n, &s| n.checked_add(s));
        if sizes.contains(&0) || n.and_then(|n| n.checked_mul(n)).is_none() {
            return Err(corrupt("zero-sized block or overflowing partition"));
        }
        let nb = sizes.len();
        if !blocks.iter().all(|&(br, bc)| br < nb && bc < nb) {
            return Err(corrupt("block outside the partition"));
        }
        let dims = BlockedDims::new(sizes);
        let pattern = CooPattern::from_coords(blocks, nb);
        if pattern.fingerprint(&dims).0 != entry.fingerprint {
            return Err(corrupt("payload is not the pattern its entry is keyed by"));
        }
        if !(0..nb).all(|c| pattern.id_of(c, c).is_some()) {
            return Err(corrupt("block column without its diagonal block"));
        }
        if let Grouping::Explicit(groups) = &self.opts.grouping {
            let mut cols: Vec<usize> = groups.iter().flatten().copied().collect();
            cols.sort_unstable();
            if !cols.iter().copied().eq(0..nb) {
                return Err(corrupt("explicit groups do not partition the columns"));
            }
        }
        Ok(PatternPlan::new(pattern, dims, &self.opts.grouping))
    }

    /// Spill every cached pattern to a versioned manifest at `path`
    /// ([`wire::PLAN_MANIFEST_SCHEMA_VERSION`]), preserving LRU stamps so
    /// a later [`import_plans`](Self::import_plans) restores eviction
    /// order faithfully. Entries are sorted by fingerprint, so equal
    /// caches export byte-identical manifests. Returns the number of
    /// patterns exported.
    pub fn export_plans(&self, path: &std::path::Path) -> Result<usize, PlanPersistError> {
        let stats = self.stats();
        let manifest = {
            let cache = self.cache();
            let mut entries: Vec<wire::PlanManifestEntry> = cache
                .map
                .values()
                .map(|e| wire::PlanManifestEntry {
                    fingerprint: e.plan.fingerprint.0,
                    lru_stamp: e.stamp,
                    words: encode_plan(&e.plan),
                })
                .collect();
            entries.sort_by_key(|e| e.fingerprint);
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

    /// Restore patterns from a manifest written by
    /// [`export_plans`](Self::export_plans). Rejects manifests from a
    /// different schema version or grouping policy. Imported entries keep
    /// their original LRU stamps (the clock resumes at or above the
    /// newest stamp); if the manifest holds more patterns than this
    /// engine's capacity, only the most recently used survive and the
    /// overflow counts as evictions. Importing touches neither the hit nor
    /// the build counter — a warm restart at any world size reports
    /// `builds == 0` on resubmission. Returns the number of patterns
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
            decoded.push((self.decode_plan(entry)?, entry.lru_stamp));
        }
        // Keep only the most recently used patterns when over capacity; the
        // dropped overflow is an eviction like any other.
        let cap = self.opts.plan_cache_capacity.unwrap_or(usize::MAX);
        decoded.sort_by_key(|(_, stamp)| std::cmp::Reverse(*stamp));
        let overflow = decoded.len().saturating_sub(cap);
        decoded.truncate(cap);
        let restored = decoded.len();
        {
            let mut cache = self.cache();
            for (plan, stamp) in decoded {
                let key = self.cache_key(plan.fingerprint);
                cache.tick = cache.tick.max(stamp);
                let (plan, views) = (Arc::new(plan), Vec::new());
                cache.map.insert(key, CachedPattern { plan, views, stamp });
            }
        }
        self.book_evictions(overflow);
        if sm_trace::enabled() {
            let occupancy = self.cached_plans() as f64;
            let fields = [("evicted", overflow as f64), ("occupancy", occupancy)];
            sm_trace::emit("plan.import", restored as f64, 0.0, &fields);
        }
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::banded_gapped;
    use crate::engine::{EngineOptions, Grouping, NumericOptions};
    use crate::plan::tests::same_view;
    use sm_comsim::{run_ranks, Comm, SerialComm};
    use sm_dbcsr::DbcsrMatrix;

    fn manifest_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sm_engine_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    /// The global pattern of `banded_gapped(nb, 2)` and its partition.
    fn banded_pattern(nb: usize) -> (CooPattern, BlockedDims) {
        let (dense, dims) = banded_gapped(nb, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
        (m.global_pattern(&SerialComm::new()), dims)
    }

    fn entry_for(plan: &PatternPlan) -> wire::PlanManifestEntry {
        wire::PlanManifestEntry {
            fingerprint: plan.fingerprint.0,
            lru_stamp: 3,
            words: encode_plan(plan),
        }
    }

    #[test]
    fn plan_codec_roundtrips_word_exactly() {
        let (pattern, dims) = banded_pattern(5);
        let engine = SubmatrixEngine::default();
        let plan = PatternPlan::new(pattern, dims, &engine.opts.grouping);
        let entry = entry_for(&plan);
        let back = engine.decode_plan(&entry).expect("decode");
        // Re-encoding the rebuild reproduces the words exactly, and every
        // rank's view of the rebuild is that rank's view of the plan.
        assert_eq!(encode_plan(&back), entry.words);
        assert_eq!(back.fingerprint, plan.fingerprint);
        for rank in 0..3 {
            same_view(&back.rank_view(rank, 3), &plan.rank_view(rank, 3)).expect("same view");
        }

        // A truncated payload is rejected, not misparsed.
        let mut chopped = entry.clone();
        chopped.words.pop();
        assert!(matches!(
            engine.decode_plan(&chopped),
            Err(PlanPersistError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_plan_payload_is_a_typed_error_never_a_panic_or_a_wrong_result() {
        let comm = SerialComm::new();
        let numeric = NumericOptions::default();
        let mats: Vec<DbcsrMatrix> = [5, 6]
            .map(|nb| {
                let (dense, dims) = banded_gapped(nb, 2);
                DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0)
            })
            .into();
        let producer = SubmatrixEngine::default();
        let expect: Vec<_> = (mats.iter())
            .map(|m| producer.sign(m, 0.0, &numeric, &comm).0.to_dense(&comm))
            .collect();
        let path = manifest_path("two_patterns.smplans");
        assert_eq!(producer.export_plans(&path).expect("export"), 2);
        let bytes = std::fs::read(&path).expect("read");
        let manifest = wire::PlanManifest::decode(&bytes).expect("decode");

        // Past the container's checksum every damaged payload word still
        // changes the partition or the pattern, so the rebuilt plan would
        // not be the one its fingerprint names.
        // Through the container every damaged payload is refused.
        let mut payload_start = 8 * 9; // the manifest header's words
        for (e, entry) in manifest.entries.iter().enumerate() {
            payload_start += 8 * 4; // the entry header's words
            for (k, &word) in entry.words.iter().enumerate() {
                for bad in [1u64 << 62, word.wrapping_add(1), 1000] {
                    if bad == word {
                        continue;
                    }
                    let mut damaged = entry.clone();
                    damaged.words[k] = bad;
                    match SubmatrixEngine::default().decode_plan(&damaged) {
                        Err(PlanPersistError::Corrupt(_)) => {}
                        Err(other) => panic!("word {k} := {bad:#x}: unexpected {other}"),
                        Ok(_) => panic!("word {k} := {bad:#x} decoded"),
                    }
                    let mut file = bytes.clone();
                    let at = payload_start + 8 * k;
                    file[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                    assert_eq!(
                        wire::PlanManifest::decode(&file),
                        Err(wire::ManifestError::Checksum { entry: e }),
                        "entry {e} word {k} := {bad:#x}"
                    );
                }
            }
            payload_start += 8 * entry.words.len();
        }

        // Through the file: every truncation is a typed error and restores
        // nothing; every single damaged word is a typed error or an import
        // whose plans give both densities bit for bit.
        let import = |file: &[u8]| {
            std::fs::write(&path, file).expect("write");
            let engine = SubmatrixEngine::default();
            let imported = engine.import_plans(&path);
            (engine, imported)
        };
        for len in 0..bytes.len() {
            let (engine, imported) = import(&bytes[..len]);
            assert!(
                matches!(imported, Err(PlanPersistError::Wire(_))),
                "{len} bytes"
            );
            assert_eq!(engine.cached_plans(), 0);
        }
        for at in (0..bytes.len()).step_by(8) {
            let word = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("a word"));
            for bad in [word ^ 1, word.wrapping_add(1 << 40), 1000] {
                let mut file = bytes.clone();
                file[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                let (engine, imported) = import(&file);
                if imported.is_err() {
                    assert_eq!(engine.cached_plans(), 0, "word {} := {bad:#x}", at / 8);
                    continue;
                }
                for (m, expect) in mats.iter().zip(&expect) {
                    let (got, report) = engine.sign(m, 0.0, &numeric, &comm);
                    assert!(report.plan_cached, "word {} := {bad:#x}", at / 8);
                    assert!(got.to_dense(&comm).allclose(expect, 0.0));
                }
            }
        }
    }

    /// Export `engine`'s cache, rewrite every entry header with `edit`
    /// (the checksum covers payloads only, so the container still
    /// decodes), and import the result into a fresh engine.
    fn import_with_header(
        engine: &SubmatrixEngine,
        name: &str,
        edit: impl Fn(&mut wire::PlanManifestEntry),
    ) -> (SubmatrixEngine, Result<usize, PlanPersistError>) {
        let path = manifest_path(name);
        engine.export_plans(&path).expect("export");
        let mut manifest =
            wire::PlanManifest::decode(&std::fs::read(&path).expect("read")).expect("decode");
        manifest.entries.iter_mut().for_each(edit);
        std::fs::write(&path, manifest.encode()).expect("write");
        let fresh = SubmatrixEngine::default();
        let imported = fresh.import_plans(&path);
        (fresh, imported)
    }

    #[test]
    fn import_refuses_an_entry_keyed_by_another_pattern() {
        let (dense, dims) = banded_gapped(6, 2);
        let comm = SerialComm::new();
        let b = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
        // A: the block-diagonal part of B, on the same partition.
        let mut diag = dense.clone();
        for i in 0..dims.n() {
            for j in 0..dims.n() {
                if i / 2 != j / 2 {
                    diag[(i, j)] = 0.0;
                }
            }
        }
        let a = DbcsrMatrix::from_dense(&diag, dims, 0, 1, 0.0);
        let producer = SubmatrixEngine::default();
        let _ = producer.plan_for_matrix(&a, &comm);
        let b_fp = b.pattern_fingerprint(&comm).0;
        assert_ne!(a.pattern_fingerprint(&comm).0, b_fp);

        // A manifest keyed by B that carries A's plan.
        let (engine, imported) = import_with_header(&producer, "rekeyed.smplans", |e| {
            e.fingerprint = b_fp;
        });
        assert!(
            matches!(imported, Err(PlanPersistError::Corrupt(_))),
            "{imported:?}"
        );
        assert_eq!(engine.cached_plans(), 0);
        let (got, report) = engine.sign(&b, 0.0, &NumericOptions::default(), &comm);
        assert!(!report.plan_cached);
        let (expect, _) =
            SubmatrixEngine::default().sign(&b, 0.0, &NumericOptions::default(), &comm);
        assert!(got.to_dense(&comm) == expect.to_dense(&comm));
    }

    #[test]
    fn damaged_entry_header_is_a_typed_error_never_a_panic() {
        let (dense, dims) = banded_gapped(5, 2);
        let comm = SerialComm::new();
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let producer = SubmatrixEngine::default();
        let _ = producer.plan_for_matrix(&m, &comm);
        let (engine, imported) =
            import_with_header(&producer, "header.smplans", |e| e.fingerprint ^= 1);
        assert!(
            matches!(imported, Err(PlanPersistError::Corrupt(_))),
            "fingerprint ^ 1: {imported:?}"
        );
        assert_eq!(engine.cached_plans(), 0);
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
        assert_eq!((stats.cache_hits, stats.view_derivations), (1, 1));
        assert!(got.to_dense(&comm).allclose(&expect.to_dense(&comm), 0.0));

        // The manifest names no rank: a restart at another world size
        // gathers no pattern either, each rank deriving its own view.
        let wide = SubmatrixEngine::default();
        wide.import_plans(&path).expect("import");
        let (results, _) = run_ranks(3, |c| {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), c.rank(), c.size(), 0.0);
            wide.sign(&m, 0.0, &NumericOptions::default(), c)
                .0
                .to_dense(c)
        });
        let stats = wide.stats();
        assert_eq!(
            stats.symbolic_builds, 0,
            "a wider restart must replan nothing"
        );
        assert_eq!((stats.cache_hits, stats.view_derivations), (3, 3));
        for got in results {
            assert!(got.allclose(&expect.to_dense(&comm), 0.0));
        }
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
