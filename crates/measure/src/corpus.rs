//! On-disk measurement corpora: a directory of binary-encoded
//! [`MeasurementSet`]s (extension `.nniset`), each entry a lazily decoded
//! [`MeasurementSource`].
//!
//! Recording a set writes `encode(set)` under a name derived from its
//! provenance (`<scenario>-<fingerprint>-s<seed>.nniset`, scenario
//! sanitized); listing reads only each file's provenance prefix, so a sweep
//! can enumerate keys over a large corpus without decoding any log.

use std::fs;
use std::path::{Path, PathBuf};

use crate::codec::{self, CodecError};
use crate::dataset::{MeasurementSet, MeasurementSource, Provenance, SetKey, SourceError};

/// File extension of corpus entries.
pub const CORPUS_EXT: &str = "nniset";

/// A directory of encoded measurement sets.
#[derive(Debug, Clone)]
pub struct Corpus {
    dir: PathBuf,
}

impl Corpus {
    /// Opens (and creates, if needed) a corpus directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Corpus> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Corpus { dir })
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Stores one set; returns the file it was written to. Re-recording the
    /// same `(scenario fingerprint, seed)` overwrites the entry.
    pub fn store(&self, set: &MeasurementSet) -> std::io::Result<PathBuf> {
        let path = self.dir.join(entry_file_name(&set.provenance));
        fs::write(&path, codec::encode(set))?;
        Ok(path)
    }

    /// Lists the entries in stable replay order: by name prefix, then by
    /// seed compared *numerically* — `s10` never precedes `s2`, even in
    /// legacy unpadded file names ([`entry_order_key`]).
    pub fn entries(&self) -> Result<Vec<CorpusEntry>, SourceError> {
        list_in_order(&self.dir, &[CORPUS_EXT])?
            .into_iter()
            .map(CorpusEntry::open)
            .collect()
    }

    /// Loads every entry eagerly, in entry order.
    pub fn load_all(&self) -> Result<Vec<MeasurementSet>, SourceError> {
        self.entries()?.iter().map(CorpusEntry::acquire).collect()
    }
}

/// Builds the canonical file name for a set's provenance. The seed is
/// zero-padded so lexicographic listings agree with numeric replay order
/// for any corpus recorded from here on; [`entry_order_key`] keeps legacy
/// unpadded names ordered correctly too.
pub fn entry_file_name(p: &Provenance) -> String {
    format!("{}.{CORPUS_EXT}", entry_stem(p))
}

/// The canonical file name of a *live segment* spill of the same
/// provenance (see [`crate::segment`]): one corpus slot, two extensions.
pub fn segment_file_name(p: &Provenance) -> String {
    format!("{}.{}", entry_stem(p), crate::segment::SEGMENT_EXT)
}

fn entry_stem(p: &Provenance) -> String {
    let slug: String = p
        .scenario
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .take(48)
        .collect();
    format!("{slug}-{:016x}-s{:06}", p.scenario_fingerprint, p.seed)
}

/// Replay/tail sort key of a corpus file: the name prefix, then the
/// trailing `-s<digits>` seed as an *integer* (entry 10 must not precede
/// entry 2), then the raw name as a tiebreak. Files without a parseable
/// seed suffix order by name alone.
pub fn entry_order_key(path: &Path) -> (String, Option<u64>, String) {
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    if let Some((prefix, seed)) = name.rsplit_once("-s") {
        if !seed.is_empty() && seed.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = seed.parse::<u64>() {
                return (prefix.to_string(), Some(n), name);
            }
        }
    }
    (name.clone(), None, name)
}

/// The files in `dir` with one of the extensions `exts`, in replay order
/// ([`entry_order_key`]): the one directory listing behind
/// [`Corpus::entries`], [`CorpusTail`](crate::CorpusTail) and
/// [`RelaySource`](crate::RelaySource). Unreadable directory entries are
/// skipped; an unreadable directory is the caller's to judge.
pub(crate) fn list_in_order(dir: &Path, exts: &[&str]) -> std::io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| exts.iter().any(|x| e == *x)))
        .collect();
    files.sort_by_cached_key(|p| entry_order_key(p));
    Ok(files)
}

/// One corpus file: provenance read eagerly (cheap prefix decode), the log
/// decoded only on [`acquire`](MeasurementSource::acquire).
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    path: PathBuf,
    provenance: Provenance,
}

impl CorpusEntry {
    /// Opens one file, decoding only the provenance prefix.
    pub fn open(path: impl Into<PathBuf>) -> Result<CorpusEntry, SourceError> {
        let path = path.into();
        let bytes = fs::read(&path)?;
        let (provenance, _) = codec::decode_prefix(&bytes)?;
        Ok(CorpusEntry { path, provenance })
    }

    /// The file backing this entry.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The entry's provenance (from the prefix, no full decode).
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }
}

impl MeasurementSource for CorpusEntry {
    fn key(&self) -> SetKey {
        SetKey {
            fingerprint: self.provenance.scenario_fingerprint,
            seed: self.provenance.seed,
        }
    }

    fn acquire(&self) -> Result<MeasurementSet, SourceError> {
        let bytes = fs::read(&self.path)?;
        let set = codec::decode(&bytes)?;
        if set.provenance != self.provenance {
            // The file changed between open() and acquire().
            return Err(SourceError::Codec(CodecError::BadValue(
                "provenance changed under the entry",
            )));
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MeasurementLog;
    use nni_topology::{PathId, TopologyBuilder};

    fn tiny_set(name: &str, seed: u64) -> MeasurementSet {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        let l0 = b.link("l0", h0, h1).unwrap();
        b.path("p0", vec![l0]).unwrap();
        let mut log = MeasurementLog::new(1, 0.1);
        log.record_sent(0, PathId(0), seed + 5);
        MeasurementSet {
            topology: b.build(),
            classes: vec![vec![PathId(0)]],
            log,
            provenance: Provenance {
                scenario: name.into(),
                scenario_fingerprint: 0x1234,
                seed,
                build: "test".into(),
            },
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nni-corpus-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_list_load_round_trip() {
        let dir = temp_dir("roundtrip");
        let corpus = Corpus::open(&dir).unwrap();
        let a = tiny_set("alpha scenario", 1);
        let b = tiny_set("beta", 2);
        corpus.store(&b).unwrap();
        corpus.store(&a).unwrap();
        let entries = corpus.entries().unwrap();
        assert_eq!(entries.len(), 2);
        // Sorted by file name: "alpha_scenario-…" before "beta-…".
        assert_eq!(entries[0].provenance().scenario, "alpha scenario");
        assert_eq!(entries[0].key().seed, 1);
        let loaded = entries[1].acquire().unwrap();
        assert_eq!(loaded, b);
        assert_eq!(corpus.load_all().unwrap().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restore_overwrites_same_key() {
        let dir = temp_dir("overwrite");
        let corpus = Corpus::open(&dir).unwrap();
        let a = tiny_set("gamma", 3);
        let p1 = corpus.store(&a).unwrap();
        let p2 = corpus.store(&a).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(corpus.entries().unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_order_numerically_by_seed() {
        let dir = temp_dir("order");
        let corpus = Corpus::open(&dir).unwrap();
        for seed in [10, 2, 1] {
            corpus.store(&tiny_set("delta", seed)).unwrap();
        }
        // A legacy unpadded name must interleave numerically, not
        // lexicographically (s7 after s2, before s10).
        let legacy = tiny_set("delta", 7);
        fs::write(
            dir.join("delta-0000000000001234-s7.nniset"),
            crate::codec::encode(&legacy),
        )
        .unwrap();
        let seeds: Vec<u64> = corpus
            .entries()
            .unwrap()
            .iter()
            .map(|e| e.key().seed)
            .collect();
        assert_eq!(seeds, vec![1, 2, 7, 10]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_corpus_files_are_ignored() {
        let dir = temp_dir("ignore");
        let corpus = Corpus::open(&dir).unwrap();
        fs::write(dir.join("README.md"), "not a set").unwrap();
        assert!(corpus.entries().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
