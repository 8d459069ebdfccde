//! The on-disk store: directory layout, typed access to the record
//! families (evaluations, sessions, corpus, jobs), verification, and
//! garbage collection.
//!
//! Layout under the store directory:
//!
//! ```text
//! <dir>/evals/<s>/evals-<n>.jsonl append-only evaluation cache segments,
//!                                 sharded by the first hex digit of the
//!                                 record key (16 shard directories)
//! <dir>/evals/evals-<n>.jsonl     legacy flat segments (still read; gc
//!                                 migrates them into shards)
//! <dir>/sessions/<id>.jsonl       one resumable session log per session id
//! <dir>/corpus/corpus.jsonl       plausible repairs, one record each
//! <dir>/crashes/crashes.jsonl     shrunk fuzz findings, one record each
//! <dir>/jobs/jobs.jsonl           daemon job registry (last state wins)
//! ```
//!
//! Every file is a checksummed segment (see [`crate::segment`]). Each
//! writing process appends evaluations to *its own* fresh segments, so
//! concurrent runs never interleave lines; [`Store::gc`] later compacts
//! the segments, dropping corrupt records and duplicate keys.
//!
//! # Concurrent GC
//!
//! `gc` is safe to run while other processes (or the calling process
//! itself) hold open segments: every live writer advertises itself with
//! a `.lease` sidecar file naming its PID, and `gc` skips leased
//! segments whose owner is still alive. Stale leases — left behind by a
//! `kill -9` — are detected (the PID is gone) and cleaned up, so a
//! crashed writer never blocks compaction forever. This is what lets a
//! `cirfix serve` daemon run background GC under live repair jobs.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use cirfix_telemetry::JsonValue;

use crate::hash::Digest;
use crate::segment::{read_segment, recover_segment, SegmentHealth, SegmentWriter};
use cirfix_telemetry::field_str;

/// Aggregate damage counts from reading a family of segments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreHealth {
    /// Records that decoded cleanly.
    pub records: usize,
    /// Records skipped for frame/checksum/shape damage.
    pub corrupt: usize,
    /// Segments ending in an incomplete (torn) record.
    pub torn: usize,
}

impl StoreHealth {
    fn absorb(&mut self, h: &SegmentHealth) {
        self.records += h.records;
        self.corrupt += h.corrupt.len();
        self.torn += usize::from(h.torn_tail.is_some());
    }

    /// `true` when nothing was damaged.
    pub fn is_clean(&self) -> bool {
        self.corrupt == 0 && self.torn == 0
    }
}

/// Per-file detail from [`Store::verify`].
#[derive(Debug, Clone)]
pub struct FileReport {
    /// Path relative to the store directory.
    pub name: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Clean records.
    pub records: usize,
    /// Corrupt lines: 1-based line number and reason.
    pub corrupt: Vec<(usize, String)>,
    /// Whether the file ends in a torn record.
    pub torn: bool,
}

/// The result of a full store verification pass.
#[derive(Debug, Clone, Default)]
pub struct StoreReport {
    /// One entry per segment file, in path order.
    pub files: Vec<FileReport>,
}

impl StoreReport {
    /// `true` when every file verified cleanly.
    pub fn is_clean(&self) -> bool {
        self.files.iter().all(|f| f.corrupt.is_empty() && !f.torn)
    }

    /// Total clean records across all files.
    pub fn records(&self) -> usize {
        self.files.iter().map(|f| f.records).sum()
    }

    /// Total corrupt records across all files.
    pub fn corrupt(&self) -> usize {
        self.files.iter().map(|f| f.corrupt.len()).sum()
    }

    /// Number of files with a torn tail.
    pub fn torn(&self) -> usize {
        self.files.iter().filter(|f| f.torn).count()
    }
}

/// What [`Store::gc`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Segment files removed (compacted away or fully dead).
    pub files_removed: usize,
    /// Records dropped: corrupt, torn, or duplicate-keyed.
    pub records_dropped: usize,
    /// Records surviving compaction.
    pub records_kept: usize,
    /// Bytes reclaimed on disk.
    pub bytes_reclaimed: u64,
    /// Segments left untouched because a live writer holds them.
    pub files_skipped_active: usize,
}

/// A persistent store rooted at one directory.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Opens (creating if necessary) a store at `dir`.
    pub fn open(dir: &Path) -> io::Result<Store> {
        for sub in ["evals", "sessions", "corpus", "jobs", "patterns", "crashes"] {
            fs::create_dir_all(dir.join(sub))?;
        }
        Ok(Store {
            dir: dir.to_path_buf(),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn segments_in(&self, sub: &str) -> io::Result<Vec<PathBuf>> {
        let mut paths: Vec<PathBuf> = fs::read_dir(self.dir.join(sub))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
            .collect();
        paths.sort();
        Ok(paths)
    }

    /// Every evaluation segment, in stable path order: legacy flat
    /// `evals/*.jsonl` files first, then the 16 shard directories.
    pub fn eval_segments(&self) -> io::Result<Vec<PathBuf>> {
        let root = self.dir.join("evals");
        let mut paths = Vec::new();
        let mut shard_dirs = Vec::new();
        for entry in fs::read_dir(&root)?.filter_map(Result::ok) {
            let p = entry.path();
            if p.is_dir() {
                shard_dirs.push(p);
            } else if p.extension().is_some_and(|e| e == "jsonl") {
                paths.push(p);
            }
        }
        shard_dirs.sort();
        paths.sort();
        for shard in shard_dirs {
            let mut in_shard: Vec<PathBuf> = fs::read_dir(&shard)?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
                .collect();
            in_shard.sort();
            paths.extend(in_shard);
        }
        Ok(paths)
    }

    /// Every segment file in the store, in stable family-then-path
    /// order.
    pub fn all_segments(&self) -> io::Result<Vec<PathBuf>> {
        let mut all = self.eval_segments()?;
        for sub in ["sessions", "corpus", "jobs", "patterns", "crashes"] {
            all.extend(self.segments_in(sub)?);
        }
        Ok(all)
    }

    // ----- evaluations ---------------------------------------------------

    /// Loads every evaluation record across all segments. Records are
    /// keyed by their `"key"` digest; damaged records and records
    /// without a valid key are counted in the returned health, never
    /// returned as data.
    pub fn load_evals(&self) -> io::Result<(Vec<(Digest, JsonValue)>, StoreHealth)> {
        let mut entries = Vec::new();
        let mut health = StoreHealth::default();
        for path in self.eval_segments()? {
            let (bodies, seg) = read_segment(&path)?;
            health.absorb(&seg);
            for body in bodies {
                match field_str(&body, "key").and_then(Digest::from_hex) {
                    Some(key) => entries.push((key, body)),
                    None => {
                        health.records -= 1;
                        health.corrupt += 1;
                    }
                }
            }
        }
        Ok((entries, health))
    }

    /// A writer that appends evaluation records to fresh segments of
    /// its own — one per shard touched, created lazily on first write
    /// and leased (see the module docs) until the writer is dropped.
    pub fn eval_writer(&self) -> EvalWriter {
        EvalWriter {
            dir: self.dir.join("evals"),
            shards: HashMap::new(),
        }
    }

    // ----- sessions ------------------------------------------------------

    /// The log file of session `id`.
    pub fn session_path(&self, id: &str) -> PathBuf {
        self.dir.join("sessions").join(format!("{id}.jsonl"))
    }

    /// Reads a session log (empty when none exists yet), skipping
    /// damaged records.
    pub fn load_session(&self, id: &str) -> io::Result<(Vec<JsonValue>, SegmentHealth)> {
        let path = self.session_path(id);
        if !path.exists() {
            return Ok((Vec::new(), SegmentHealth::default()));
        }
        read_segment(&path)
    }

    /// Opens a session log for appending, first truncating any torn
    /// trailing record so new records always start on a clean line.
    pub fn session_writer(&self, id: &str) -> io::Result<SegmentWriter> {
        let path = self.session_path(id);
        recover_segment(&path)?;
        SegmentWriter::append(&path)
    }

    /// Marks session `id` as actively written by this process, so a
    /// concurrent [`Store::gc`] neither reaps nor truncates its log mid-
    /// append. The lease is released when the guard drops (and treated
    /// as stale once the owning process dies).
    pub fn session_lease(&self, id: &str) -> io::Result<Lease> {
        Lease::take(&self.session_path(id))
    }

    // ----- corpus --------------------------------------------------------

    fn corpus_path(&self) -> PathBuf {
        self.dir.join("corpus").join("corpus.jsonl")
    }

    /// Appends one repair record to the corpus.
    pub fn append_corpus(&self, body: &JsonValue) -> io::Result<()> {
        recover_segment(&self.corpus_path())?;
        SegmentWriter::append(&self.corpus_path())?.write_record(body)
    }

    /// Reads the repair corpus, skipping damaged records.
    pub fn load_corpus(&self) -> io::Result<(Vec<JsonValue>, SegmentHealth)> {
        let path = self.corpus_path();
        if !path.exists() {
            return Ok((Vec::new(), SegmentHealth::default()));
        }
        read_segment(&path)
    }

    // ----- crashes -------------------------------------------------------

    /// The fuzz regression corpus (`cirfix fuzz` findings, shrunk).
    pub fn crashes_path(&self) -> PathBuf {
        self.dir.join("crashes").join("crashes.jsonl")
    }

    /// Appends one shrunk fuzz finding to the crash corpus.
    pub fn append_crash(&self, body: &JsonValue) -> io::Result<()> {
        recover_segment(&self.crashes_path())?;
        SegmentWriter::append(&self.crashes_path())?.write_record(body)
    }

    /// Reads the crash corpus, skipping damaged records.
    pub fn load_crashes(&self) -> io::Result<(Vec<JsonValue>, SegmentHealth)> {
        let path = self.crashes_path();
        if !path.exists() {
            return Ok((Vec::new(), SegmentHealth::default()));
        }
        read_segment(&path)
    }

    // ----- patterns ------------------------------------------------------

    /// The mined fix-pattern artifact (`cirfix mine` output).
    pub fn patterns_path(&self) -> PathBuf {
        self.dir.join("patterns").join("patterns.jsonl")
    }

    /// Replaces the pattern artifact atomically with the given records
    /// (write to a tmp segment, then rename). Mining always rewrites
    /// the whole ranked set, so there is no append path.
    pub fn write_patterns(&self, bodies: &[JsonValue]) -> io::Result<()> {
        let path = self.patterns_path();
        let tmp = self.dir.join("patterns").join("compact.tmp");
        let _ = fs::remove_file(&tmp);
        {
            let mut w = SegmentWriter::append(&tmp)?;
            for body in bodies {
                w.write_record(body)?;
            }
            w.sync()?;
        }
        fs::rename(&tmp, path)
    }

    /// Reads the mined pattern artifact, skipping damaged records.
    pub fn load_patterns(&self) -> io::Result<(Vec<JsonValue>, SegmentHealth)> {
        let path = self.patterns_path();
        if !path.exists() {
            return Ok((Vec::new(), SegmentHealth::default()));
        }
        read_segment(&path)
    }

    // ----- jobs ----------------------------------------------------------

    fn jobs_path(&self) -> PathBuf {
        self.dir.join("jobs").join("jobs.jsonl")
    }

    /// Appends one job-state record (its body must carry an `"id"`
    /// field) and syncs it to stable storage — the daemon's job state
    /// machine must survive `kill -9`.
    pub fn append_job(&self, body: &JsonValue) -> io::Result<()> {
        recover_segment(&self.jobs_path())?;
        let mut w = SegmentWriter::append(&self.jobs_path())?;
        w.write_record(body)?;
        w.sync()
    }

    /// Reads the daemon job registry in append order, skipping damaged
    /// records. Folding is the caller's job: the *last* record per job
    /// id is its current state.
    pub fn load_jobs(&self) -> io::Result<(Vec<JsonValue>, SegmentHealth)> {
        let path = self.jobs_path();
        if !path.exists() {
            return Ok((Vec::new(), SegmentHealth::default()));
        }
        read_segment(&path)
    }

    /// Marks the job registry as actively written by this process (the
    /// daemon holds this for its lifetime), so a concurrent
    /// [`Store::gc`] does not rewrite it between two appends.
    pub fn jobs_lease(&self) -> io::Result<Lease> {
        Lease::take(&self.jobs_path())
    }

    // ----- maintenance ---------------------------------------------------

    /// Read-only verification of every segment file: reports clean,
    /// corrupt, and torn records without modifying anything.
    pub fn verify(&self) -> io::Result<StoreReport> {
        let mut report = StoreReport::default();
        for path in self.all_segments()? {
            let (_, health) = read_segment(&path)?;
            let name = path
                .strip_prefix(&self.dir)
                .unwrap_or(&path)
                .display()
                .to_string();
            report.files.push(FileReport {
                name,
                bytes: fs::metadata(&path)?.len(),
                records: health.records,
                corrupt: health.corrupt,
                torn: health.torn_tail.is_some(),
            });
        }
        Ok(report)
    }

    /// Garbage collection: compacts evaluation segments per shard
    /// (dropping corrupt records, torn tails, and duplicate keys —
    /// first write wins, matching the in-memory cache), migrates legacy
    /// flat segments into shards, removes session logs whose final
    /// record marks the session complete, truncates torn tails
    /// elsewhere, rewrites the corpus without damage, and folds the job
    /// registry down to one record per job.
    ///
    /// Safe under concurrent writers: segments (and session logs, and
    /// the job registry) held by a live process — advertised by a
    /// `.lease` sidecar naming a PID that is still running — are left
    /// entirely untouched and counted in
    /// [`GcReport::files_skipped_active`]. Leases whose owner died are
    /// removed and their segments compacted normally.
    pub fn gc(&self) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        let before: u64 = self
            .all_segments()?
            .iter()
            .filter_map(|p| fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();

        // Partition evaluation segments into live (leased by a running
        // process) and compactable.
        let mut active = Vec::new();
        let mut old_segments = Vec::new();
        for path in self.eval_segments()? {
            if lease_is_live(&path) {
                active.push(path);
            } else {
                remove_stale_lease(&path);
                old_segments.push(path);
            }
        }
        report.files_skipped_active += active.len();

        // Compact the compactable segments shard by shard. Fresh
        // segments are written to tmp files and renamed into place
        // *before* the old segments are deleted, so a crash at any
        // point leaves at worst duplicate records (which dedup on
        // load), never lost ones.
        if !old_segments.is_empty() {
            let mut seen = std::collections::HashSet::new();
            let mut kept_per_shard: HashMap<String, Vec<JsonValue>> = HashMap::new();
            let mut kept_total = 0usize;
            for path in &old_segments {
                let (bodies, h) = read_segment(path)?;
                report.records_dropped += h.corrupt.len() + usize::from(h.torn_tail.is_some());
                for body in bodies {
                    match field_str(&body, "key").and_then(Digest::from_hex) {
                        Some(key) if seen.insert(key) => {
                            let shard = shard_of(&key.to_hex());
                            kept_per_shard.entry(shard).or_default().push(body);
                            kept_total += 1;
                        }
                        _ => report.records_dropped += 1,
                    }
                }
            }
            for (shard, bodies) in &kept_per_shard {
                let shard_dir = self.dir.join("evals").join(shard);
                fs::create_dir_all(&shard_dir)?;
                let tmp = shard_dir.join("compact.tmp");
                let _ = fs::remove_file(&tmp);
                {
                    let mut w = SegmentWriter::append(&tmp)?;
                    for body in bodies {
                        w.write_record(body)?;
                    }
                    w.sync()?;
                }
                let existing: Vec<PathBuf> = fs::read_dir(&shard_dir)?
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .collect();
                let next = next_segment_index(&existing);
                fs::rename(&tmp, shard_dir.join(segment_name(next)))?;
            }
            for path in &old_segments {
                fs::remove_file(path)?;
                report.files_removed += 1;
            }
            report.records_kept += kept_total;
        }

        // Sessions: drop completed logs, truncate torn tails elsewhere.
        // A leased log belongs to a running session — hands off even on
        // its torn tail, which may be an append in flight.
        for path in self.segments_in("sessions")? {
            if lease_is_live(&path) {
                report.files_skipped_active += 1;
                continue;
            }
            remove_stale_lease(&path);
            let (bodies, health) = read_segment(&path)?;
            let complete = bodies
                .last()
                .is_some_and(|b| field_str(b, "type") == Some("complete"));
            if complete {
                report.records_dropped += bodies.len() + health.corrupt.len();
                fs::remove_file(&path)?;
                report.files_removed += 1;
            } else {
                recover_segment(&path)?;
                report.records_kept += health.records;
                report.records_dropped += usize::from(health.torn_tail.is_some());
            }
        }

        // Corpus and crash corpus: rewrite without corrupt records when
        // damaged.
        for (sub, path) in [
            ("corpus", self.corpus_path()),
            ("crashes", self.crashes_path()),
        ] {
            if !path.exists() {
                continue;
            }
            let (bodies, health) = read_segment(&path)?;
            if health.is_clean() {
                report.records_kept += health.records;
            } else {
                let tmp = self.dir.join(sub).join("compact.tmp");
                let _ = fs::remove_file(&tmp);
                {
                    let mut w = SegmentWriter::append(&tmp)?;
                    for body in &bodies {
                        w.write_record(body)?;
                    }
                    w.sync()?;
                }
                fs::rename(&tmp, &path)?;
                report.records_kept += bodies.len();
                report.records_dropped +=
                    health.corrupt.len() + usize::from(health.torn_tail.is_some());
            }
        }

        // Patterns: like the corpus, rewrite without corrupt records
        // when damaged (the artifact is small and wholly regenerable).
        let patterns = self.patterns_path();
        if patterns.exists() {
            let (bodies, health) = read_segment(&patterns)?;
            if health.is_clean() {
                report.records_kept += health.records;
            } else {
                self.write_patterns(&bodies)?;
                report.records_kept += bodies.len();
                report.records_dropped +=
                    health.corrupt.len() + usize::from(health.torn_tail.is_some());
            }
        }

        // Jobs: fold to the last record per id — unless a daemon holds
        // the registry open.
        let jobs = self.jobs_path();
        if jobs.exists() {
            if lease_is_live(&jobs) {
                report.files_skipped_active += 1;
            } else {
                remove_stale_lease(&jobs);
                let (bodies, health) = read_segment(&jobs)?;
                let mut last: Vec<(String, JsonValue)> = Vec::new();
                for body in bodies {
                    let Some(id) = field_str(&body, "id").map(str::to_string) else {
                        report.records_dropped += 1;
                        continue;
                    };
                    match last.iter_mut().find(|(i, _)| *i == id) {
                        Some(slot) => {
                            slot.1 = body;
                            report.records_dropped += 1;
                        }
                        None => last.push((id, body)),
                    }
                }
                report.records_dropped +=
                    health.corrupt.len() + usize::from(health.torn_tail.is_some());
                let tmp = self.dir.join("jobs").join("compact.tmp");
                let _ = fs::remove_file(&tmp);
                {
                    let mut w = SegmentWriter::append(&tmp)?;
                    for (_, body) in &last {
                        w.write_record(body)?;
                    }
                    w.sync()?;
                }
                fs::rename(&tmp, &jobs)?;
                report.records_kept += last.len();
            }
        }

        let after: u64 = self
            .all_segments()?
            .iter()
            .filter_map(|p| fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();
        report.bytes_reclaimed = before.saturating_sub(after);
        Ok(report)
    }
}

fn segment_name(index: u64) -> String {
    format!("evals-{index:05}.jsonl")
}

fn next_segment_index(existing: &[PathBuf]) -> u64 {
    existing
        .iter()
        .filter_map(|p| {
            p.file_stem()?
                .to_str()?
                .strip_prefix("evals-")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .map_or(1, |n| n + 1)
}

/// The shard directory name for a record key: its first hex digit.
fn shard_of(key_hex: &str) -> String {
    match key_hex.chars().next() {
        Some(c) if c.is_ascii_hexdigit() => c.to_ascii_lowercase().to_string(),
        _ => "0".to_string(),
    }
}

// ----- leases -------------------------------------------------------------

/// The `.lease` sidecar path for a segment file.
fn lease_path(segment: &Path) -> PathBuf {
    let mut name = segment.as_os_str().to_os_string();
    name.push(".lease");
    PathBuf::from(name)
}

/// Whether `pid` names a currently running process. On Linux this is a
/// `/proc` lookup; elsewhere we conservatively report `true` (leases
/// then only expire when released, never by owner death).
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        true
    }
}

/// Whether `segment` is held by a live writer. A lease naming a dead
/// PID (or unreadable) is stale, not live.
fn lease_is_live(segment: &Path) -> bool {
    let lease = lease_path(segment);
    match fs::read_to_string(&lease) {
        Ok(text) => text.trim().parse::<u32>().is_ok_and(pid_alive),
        Err(_) => false,
    }
}

/// Removes a stale lease sidecar, if any.
fn remove_stale_lease(segment: &Path) {
    let _ = fs::remove_file(lease_path(segment));
}

/// An RAII writer lease on one segment file: a `.lease` sidecar naming
/// this process's PID, removed on drop. [`Store::gc`] leaves leased
/// files alone while the owner lives, and reclaims the lease once it
/// dies.
#[derive(Debug)]
pub struct Lease {
    path: PathBuf,
}

impl Lease {
    fn take(segment: &Path) -> io::Result<Lease> {
        let path = lease_path(segment);
        fs::write(&path, format!("{}\n", std::process::id()))?;
        Ok(Lease { path })
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Appends evaluation records to private fresh segments — one per
/// shard touched, created lazily so read-only (fully warm) runs leave
/// no empty files behind, and leased against concurrent GC until the
/// writer drops.
#[derive(Debug)]
pub struct EvalWriter {
    dir: PathBuf,
    shards: HashMap<String, (SegmentWriter, Lease)>,
}

impl EvalWriter {
    /// Appends one evaluation record to its shard's segment. The body
    /// must carry the `"key"` digest field — it selects the shard.
    pub fn write(&mut self, body: &JsonValue) -> io::Result<()> {
        let Some(key) = field_str(body, "key") else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "evaluation record has no \"key\" field",
            ));
        };
        let shard = shard_of(key);
        if !self.shards.contains_key(&shard) {
            let shard_dir = self.dir.join(&shard);
            fs::create_dir_all(&shard_dir)?;
            let existing: Vec<PathBuf> = fs::read_dir(&shard_dir)?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .collect();
            // Claim a fresh segment; `create_new` guards against racing
            // writers picking the same index.
            let mut index = next_segment_index(&existing);
            let writer = loop {
                let path = shard_dir.join(segment_name(index));
                match fs::OpenOptions::new()
                    .create_new(true)
                    .append(true)
                    .open(&path)
                {
                    Ok(_) => {
                        let lease = Lease::take(&path)?;
                        break (SegmentWriter::append(&path)?, lease);
                    }
                    Err(e) if e.kind() == io::ErrorKind::AlreadyExists => index += 1,
                    Err(e) => return Err(e),
                }
            };
            self.shards.insert(shard.clone(), writer);
        }
        self.shards
            .get_mut(&shard)
            .expect("writer was just created")
            .0
            .write_record(body)
    }

    /// Forces written records to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        for (w, _) in self.shards.values_mut() {
            w.sync()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(name: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("cirfix-store-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Store::open(&dir).unwrap()
    }

    fn eval_body(key: Digest, n: u64) -> JsonValue {
        JsonValue::obj(vec![
            ("key", JsonValue::Str(key.to_hex())),
            ("n", JsonValue::Uint(n)),
        ])
    }

    #[test]
    fn eval_records_round_trip_through_segments() {
        let store = tmp_store("evals");
        let mut w = store.eval_writer();
        for n in 0..4u64 {
            w.write(&eval_body(Digest(u128::from(n)), n)).unwrap();
        }
        w.sync().unwrap();
        let (entries, health) = store.load_evals().unwrap();
        assert_eq!(entries.len(), 4);
        assert!(health.is_clean());
        assert!(entries.iter().any(|(k, _)| *k == Digest(2)));
    }

    #[test]
    fn writes_are_sharded_by_key_prefix() {
        let store = tmp_store("shards");
        let mut w = store.eval_writer();
        // Digest hex is 32 chars; 0x1... and 0xf... land in different
        // shard directories.
        let a = Digest(0x1000_0000_0000_0000_0000_0000_0000_0000);
        let b = Digest(0xf000_0000_0000_0000_0000_0000_0000_0000);
        w.write(&eval_body(a, 1)).unwrap();
        w.write(&eval_body(b, 2)).unwrap();
        drop(w);
        assert!(store.dir().join("evals/1").is_dir());
        assert!(store.dir().join("evals/f").is_dir());
        let (entries, health) = store.load_evals().unwrap();
        assert!(health.is_clean());
        assert_eq!(entries.len(), 2);
    }

    #[test]
    fn legacy_flat_segments_are_read_and_migrated_by_gc() {
        let store = tmp_store("legacy");
        // A pre-sharding store: a segment directly under evals/.
        let flat = store.dir().join("evals").join("evals-00001.jsonl");
        let mut w = SegmentWriter::append(&flat).unwrap();
        w.write_record(&eval_body(Digest(7), 7)).unwrap();
        w.sync().unwrap();
        drop(w);
        let (entries, _) = store.load_evals().unwrap();
        assert_eq!(entries.len(), 1, "flat segments are still read");
        store.gc().unwrap();
        assert!(!flat.exists(), "gc migrates flat segments into shards");
        let (entries, health) = store.load_evals().unwrap();
        assert!(health.is_clean());
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn each_writer_gets_its_own_segment() {
        let store = tmp_store("segments");
        let mut a = store.eval_writer();
        a.write(&eval_body(Digest(1), 1)).unwrap();
        let mut b = store.eval_writer();
        b.write(&eval_body(Digest(2), 2)).unwrap();
        assert_eq!(store.eval_segments().unwrap().len(), 2);
        let (entries, _) = store.load_evals().unwrap();
        assert_eq!(entries.len(), 2);
    }

    #[test]
    fn crash_records_round_trip_and_survive_gc() {
        let store = tmp_store("crashes");
        let (crashes, health) = store.load_crashes().unwrap();
        assert!(
            crashes.is_empty() && health.is_clean(),
            "empty corpus reads clean"
        );
        for n in 0..3u64 {
            store
                .append_crash(&JsonValue::obj(vec![("finding", JsonValue::Uint(n))]))
                .unwrap();
        }
        let (crashes, health) = store.load_crashes().unwrap();
        assert_eq!(crashes.len(), 3);
        assert!(health.is_clean());
        // A torn tail (a crash mid-append) is healed by gc, keeping the
        // intact records.
        use std::io::Write as _;
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(store.crashes_path())
            .unwrap();
        f.write_all(b"{\"truncated").unwrap();
        drop(f);
        store.gc().unwrap();
        let (crashes, health) = store.load_crashes().unwrap();
        assert_eq!(crashes.len(), 3);
        assert!(health.is_clean());
        let report = store.verify().unwrap();
        assert!(report.is_clean(), "crashes are covered by verify");
        assert!(
            report.files.iter().any(|f| f.name.contains("crashes")),
            "verify lists the crash segment"
        );
    }

    #[test]
    fn gc_compacts_dedups_and_reports() {
        let store = tmp_store("gc");
        let mut a = store.eval_writer();
        a.write(&eval_body(Digest(1), 1)).unwrap();
        a.write(&eval_body(Digest(2), 2)).unwrap();
        let mut b = store.eval_writer();
        b.write(&eval_body(Digest(1), 99)).unwrap(); // duplicate key
        drop((a, b));
        let report = store.gc().unwrap();
        assert_eq!(report.records_kept, 2);
        assert_eq!(report.records_dropped, 1);
        assert_eq!(report.files_skipped_active, 0);
        let (entries, health) = store.load_evals().unwrap();
        assert!(health.is_clean());
        let one = entries.iter().find(|(k, _)| *k == Digest(1)).unwrap();
        assert_eq!(
            cirfix_telemetry::field_u64(&one.1, "n"),
            Some(1),
            "first write wins"
        );
    }

    #[test]
    fn gc_skips_segments_held_by_live_writers() {
        let store = tmp_store("gc-live");
        let mut live = store.eval_writer();
        live.write(&eval_body(Digest(1), 1)).unwrap();
        live.sync().unwrap();
        let mut done = store.eval_writer();
        done.write(&eval_body(Digest(2), 2)).unwrap();
        drop(done);

        // `live` still holds its segment (same-process lease, PID
        // alive): gc must leave it untouched and still compact the
        // released one.
        let report = store.gc().unwrap();
        assert_eq!(report.files_skipped_active, 1);
        assert_eq!(report.records_kept, 1);

        // The held segment keeps accepting writes after the gc — the
        // regression this guards: the old gc deleted it out from under
        // the writer, silently dropping every subsequent record.
        live.write(&eval_body(Digest(3), 3)).unwrap();
        live.sync().unwrap();
        drop(live);
        let (entries, health) = store.load_evals().unwrap();
        assert!(health.is_clean());
        let mut keys: Vec<u128> = entries.iter().map(|(k, _)| k.0).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2, 3]);

        // With the writer gone the lease is released; a second gc
        // compacts everything.
        let report = store.gc().unwrap();
        assert_eq!(report.files_skipped_active, 0);
        let (entries, _) = store.load_evals().unwrap();
        assert_eq!(entries.len(), 3);
    }

    #[test]
    fn gc_reclaims_stale_leases_from_dead_writers() {
        let store = tmp_store("gc-stale");
        let mut w = store.eval_writer();
        w.write(&eval_body(Digest(9), 9)).unwrap();
        w.sync().unwrap();
        // Forget the writer without running Drop: the lease file stays
        // behind, as after a `kill -9`...
        std::mem::forget(w);
        let seg = store.eval_segments().unwrap()[0].clone();
        let lease = lease_path(&seg);
        assert!(lease.exists());
        // ...then rewrite it to name a PID that cannot exist.
        fs::write(&lease, "4294967294\n").unwrap();
        let report = store.gc().unwrap();
        assert_eq!(report.files_skipped_active, 0, "stale lease is not live");
        assert!(!lease.exists(), "stale lease cleaned up");
        assert_eq!(report.records_kept, 1);
    }

    #[test]
    fn gc_reaps_completed_sessions_and_keeps_live_ones() {
        let store = tmp_store("sessions");
        let done = JsonValue::obj(vec![("type", JsonValue::Str("complete".into()))]);
        let live = JsonValue::obj(vec![("type", JsonValue::Str("checkpoint".into()))]);
        store
            .session_writer("done")
            .unwrap()
            .write_record(&done)
            .unwrap();
        store
            .session_writer("live")
            .unwrap()
            .write_record(&live)
            .unwrap();
        store.gc().unwrap();
        assert!(!store.session_path("done").exists());
        assert!(store.session_path("live").exists());
    }

    #[test]
    fn gc_spares_leased_sessions_even_when_complete() {
        let store = tmp_store("session-lease");
        let done = JsonValue::obj(vec![("type", JsonValue::Str("complete".into()))]);
        store
            .session_writer("held")
            .unwrap()
            .write_record(&done)
            .unwrap();
        let lease = store.session_lease("held").unwrap();
        store.gc().unwrap();
        assert!(
            store.session_path("held").exists(),
            "leased session survives gc"
        );
        drop(lease);
        store.gc().unwrap();
        assert!(!store.session_path("held").exists());
    }

    #[test]
    fn job_registry_appends_and_folds_through_gc() {
        let store = tmp_store("jobs");
        let rec = |id: &str, state: &str| {
            JsonValue::obj(vec![
                ("id", JsonValue::Str(id.into())),
                ("state", JsonValue::Str(state.into())),
            ])
        };
        store.append_job(&rec("a", "queued")).unwrap();
        store.append_job(&rec("b", "queued")).unwrap();
        store.append_job(&rec("a", "running")).unwrap();
        store.append_job(&rec("a", "plausible")).unwrap();
        let (records, health) = store.load_jobs().unwrap();
        assert!(health.is_clean());
        assert_eq!(records.len(), 4);
        store.gc().unwrap();
        let (records, _) = store.load_jobs().unwrap();
        assert_eq!(records.len(), 2, "gc folds to last record per id");
        assert_eq!(field_str(&records[0], "state"), Some("plausible"));
        assert_eq!(field_str(&records[1], "state"), Some("queued"));
    }

    #[test]
    fn verify_reports_without_modifying() {
        let store = tmp_store("verify");
        let mut w = store.eval_writer();
        w.write(&eval_body(Digest(1), 1)).unwrap();
        drop(w);
        let seg = &store.eval_segments().unwrap()[0];
        let len_before = fs::metadata(seg).unwrap().len();
        // Torn tail.
        use std::io::Write as _;
        let mut f = fs::OpenOptions::new().append(true).open(seg).unwrap();
        f.write_all(b"{\"sum\":\"partial").unwrap();
        drop(f);
        let report = store.verify().unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.torn(), 1);
        assert_eq!(report.records(), 1);
        assert!(
            fs::metadata(seg).unwrap().len() > len_before,
            "verify must not truncate"
        );
    }
}
