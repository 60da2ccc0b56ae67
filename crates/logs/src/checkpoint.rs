//! The on-disk checkpoint store: durable fold epochs over a corpus.
//!
//! A checkpoint directory persists the analysis fold state at *epoch*
//! boundaries (an epoch = a contiguous, abutting range of corpus
//! shards), so a later run can restore the last durable epoch and absorb
//! only the shards appended since:
//!
//! ```text
//! ckpt/
//!   CHECKPOINT          manifest: corpus identity + epoch index + digests
//!   epoch-00000.ckpt    one SSFC frame per epoch (payload = fold snapshot)
//!   epoch-00001.ckpt    ...
//! ```
//!
//! Every epoch payload travels in the same [`crate::frame`] codec the
//! corpus uses — FNV-1a-64 over header and payload, bijective update
//! step — so a single flipped bit in a checkpoint is rejected exactly
//! like a flipped bit in a corpus shard. The frame header's `system_id`
//! field carries the epoch index and `line_count` carries the epoch's
//! end shard; both are cross-checked against the manifest on every read
//! (tampering with either side is caught, mirroring
//! [`crate::store::CorpusReader::cross_check`]).
//!
//! The manifest additionally *keys* each epoch to the corpus it was
//! folded from: the corpus seed and style, plus a per-epoch FNV digest
//! over the covered corpus shards' own digests
//! ([`corpus_epoch_digest`]). Resume validates these before trusting a
//! snapshot — a checkpoint from a different corpus, or from a corpus
//! whose covered prefix was rebuilt, fails
//! [`CheckpointError::CorpusMismatch`] instead of silently double- or
//! mis-counting failures.
//!
//! Durability follows the corpus store's discipline: epoch frames and
//! the manifest are published with [`write_atomic`] (temp file, sync,
//! rename), the manifest *after* the epoch frame lands — a crash
//! mid-write leaves the previous manifest (and thus the previous durable
//! epoch) intact.
//!
//! The store is payload-agnostic: snapshots are opaque bytes here. The
//! payload's own schema version (`ssfa_core::SNAPSHOT_VERSION`) is
//! recorded in the manifest so tooling can refuse early and humans can
//! see what a checkpoint holds.

use std::fmt;
use std::fs::File;
use std::io::{self, Read as _};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::cascade::CascadeStyle;
use crate::frame::{self, Checksum, FrameError, HEADER_LEN};
use crate::store::{style_from_name, style_name, write_atomic, Manifest};

/// The manifest file name inside a checkpoint directory.
pub const CHECKPOINT_NAME: &str = "CHECKPOINT";

/// The manifest format line this build writes and accepts.
pub const CHECKPOINT_VERSION_LINE: &str = "ssfa-checkpoint v1";

/// Errors from checkpoint create, open, read, and verify, each with a
/// pinned `Display` rendering (the negative-path suite asserts exact
/// messages).
#[derive(Debug)]
pub enum CheckpointError {
    /// The directory holds no `CHECKPOINT` manifest.
    MissingManifest {
        /// The manifest path that was not found.
        path: PathBuf,
    },
    /// The directory already holds a checkpoint and `create` refuses to
    /// clobber it.
    AlreadyExists {
        /// The existing manifest path.
        path: PathBuf,
    },
    /// A manifest line failed to parse or violated the layout invariants.
    Manifest {
        /// 1-based line number in the manifest.
        line_no: usize,
        /// What was wrong.
        what: String,
    },
    /// An epoch frame failed to decode (bad magic, version, truncation,
    /// checksum).
    Frame {
        /// Epoch index the frame belongs to.
        epoch: usize,
        /// The codec's typed error.
        source: FrameError,
    },
    /// The manifest's digest for an epoch disagrees with the digest
    /// stored in the frame header (one of the two was tampered with).
    DigestMismatch {
        /// Epoch index.
        epoch: usize,
        /// Digest recorded in the manifest.
        manifest: u64,
        /// Checksum stored in the frame header.
        frame: u64,
    },
    /// A manifest field for an epoch disagrees with the frame header.
    EntryMismatch {
        /// Epoch index.
        epoch: usize,
        /// Which field disagreed.
        field: &'static str,
        /// The manifest's value.
        manifest: u64,
        /// The frame's value.
        frame: u64,
    },
    /// The checkpoint was folded from a different corpus than the one it
    /// is being resumed against (seed, style, shard coverage, or a
    /// covered shard's digest disagree).
    CorpusMismatch {
        /// Which identity field disagreed.
        what: String,
        /// The checkpoint's value.
        checkpoint: String,
        /// The corpus's value.
        corpus: String,
    },
    /// Underlying filesystem error.
    Io {
        /// What was being done.
        what: String,
        /// The OS error.
        source: io::Error,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::MissingManifest { path } => {
                write!(f, "checkpoint manifest not found: {}", path.display())
            }
            CheckpointError::AlreadyExists { path } => {
                write!(
                    f,
                    "checkpoint directory already holds a manifest: {}",
                    path.display()
                )
            }
            CheckpointError::Manifest { line_no, what } => {
                write!(f, "checkpoint manifest line {line_no}: {what}")
            }
            CheckpointError::Frame { epoch, source } => {
                write!(f, "checkpoint epoch {epoch}: {source}")
            }
            CheckpointError::DigestMismatch {
                epoch,
                manifest,
                frame,
            } => {
                write!(
                    f,
                    "checkpoint epoch {epoch}: manifest digest {manifest:016x} disagrees with \
                     frame digest {frame:016x}"
                )
            }
            CheckpointError::EntryMismatch {
                epoch,
                field,
                manifest,
                frame,
            } => {
                write!(
                    f,
                    "checkpoint epoch {epoch}: manifest {field} {manifest} disagrees with frame \
                     {field} {frame}"
                )
            }
            CheckpointError::CorpusMismatch {
                what,
                checkpoint,
                corpus,
            } => {
                write!(
                    f,
                    "checkpoint/corpus disagreement on {what}: checkpoint has {checkpoint}, \
                     corpus has {corpus}"
                )
            }
            CheckpointError::Io { what, source } => {
                write!(f, "checkpoint i/o error ({what}): {source}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Frame { source, .. } => Some(source),
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(what: impl Into<String>) -> impl FnOnce(io::Error) -> CheckpointError {
    let what = what.into();
    move |source| CheckpointError::Io { what, source }
}

/// The file name of epoch `index`'s frame.
pub fn epoch_file_name(index: usize) -> String {
    format!("epoch-{index:05}.ckpt")
}

/// The FNV digest keying an epoch to the corpus shards it covers: folds
/// each covered shard's own manifest digest, in shard order, through the
/// shared frame checksum. A rebuilt or edited shard anywhere in the
/// covered range changes this digest, so a stale checkpoint cannot be
/// resumed against a corpus whose history it no longer describes.
pub fn corpus_epoch_digest(manifest: &Manifest, shards: Range<usize>) -> u64 {
    let mut digest = Checksum::new();
    for entry in &manifest.shards[shards] {
        digest.update(&entry.checksum.to_le_bytes());
    }
    digest.value()
}

/// One epoch's record in the checkpoint manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochEntry {
    /// First corpus shard the epoch's snapshot covers (inclusive).
    pub shard_start: usize,
    /// One past the last covered corpus shard.
    pub shard_end: usize,
    /// Pipeline chunks folded within this epoch.
    pub chunks: usize,
    /// Snapshot payload bytes of the epoch frame.
    pub payload_len: u64,
    /// FNV-1a digest of the epoch frame, equal to its header checksum.
    pub checksum: u64,
    /// [`corpus_epoch_digest`] over the covered corpus shards.
    pub corpus_digest: u64,
}

/// A parsed checkpoint manifest: the corpus identity the epochs are
/// keyed to, the payload schema version, and the epoch index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointManifest {
    /// Schema version of the snapshot payloads (the writer records
    /// `ssfa_core::SNAPSHOT_VERSION`; the store itself is agnostic).
    pub payload_version: u32,
    /// Seed of the corpus the epochs were folded from.
    pub corpus_seed: u64,
    /// Cascade style of that corpus.
    pub corpus_style: CascadeStyle,
    /// Per-epoch index, in epoch order; ranges abut starting at shard 0.
    pub epochs: Vec<EpochEntry>,
}

impl CheckpointManifest {
    /// Renders the manifest to its canonical text form (deterministic:
    /// the same checkpoint always serializes to identical bytes).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(96 + self.epochs.len() * 80);
        out.push_str(CHECKPOINT_VERSION_LINE);
        out.push('\n');
        let _ = writeln!(out, "payload_version {}", self.payload_version);
        let _ = writeln!(out, "corpus_seed {}", self.corpus_seed);
        let _ = writeln!(out, "corpus_style {}", style_name(self.corpus_style));
        let _ = writeln!(out, "epochs {}", self.epochs.len());
        for (i, e) in self.epochs.iter().enumerate() {
            let _ = writeln!(
                out,
                "epoch {i} {} {} {} {} {:016x} {:016x}",
                e.shard_start, e.shard_end, e.chunks, e.payload_len, e.checksum, e.corpus_digest,
            );
        }
        out
    }

    /// Parses a manifest, validating the layout invariants: epoch
    /// records in order, shard ranges non-empty and abutting from shard
    /// 0, and the declared count consistent.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Manifest`] with the offending line number.
    pub fn parse(text: &str) -> Result<CheckpointManifest, CheckpointError> {
        let bad = |line_no: usize, what: String| CheckpointError::Manifest { line_no, what };
        let mut lines = text.lines().enumerate();
        let (_, first) = lines
            .next()
            .ok_or_else(|| bad(1, "empty manifest".into()))?;
        if first != CHECKPOINT_VERSION_LINE {
            return Err(bad(
                1,
                format!("expected header `{CHECKPOINT_VERSION_LINE}`, found `{first}`"),
            ));
        }

        let mut payload_version = None;
        let mut corpus_seed = None;
        let mut corpus_style = None;
        let mut declared_epochs = None;
        let mut epochs: Vec<EpochEntry> = Vec::new();

        for (idx, raw) in lines {
            let line_no = idx + 1;
            let mut fields = raw.split_ascii_whitespace();
            let Some(key) = fields.next() else {
                continue; // blank line
            };
            let rest: Vec<&str> = fields.collect();
            let one = |what: &str| -> Result<&str, CheckpointError> {
                if rest.len() == 1 {
                    Ok(rest[0])
                } else {
                    Err(bad(line_no, format!("`{key}` needs exactly one {what}")))
                }
            };
            match key {
                "payload_version" => {
                    payload_version =
                        Some(one("integer")?.parse::<u32>().map_err(|_| {
                            bad(line_no, "`payload_version` is not an integer".into())
                        })?);
                }
                "corpus_seed" => {
                    corpus_seed = Some(
                        one("integer")?
                            .parse::<u64>()
                            .map_err(|_| bad(line_no, "`corpus_seed` is not an integer".into()))?,
                    );
                }
                "corpus_style" => {
                    let name = one("name")?;
                    corpus_style =
                        Some(style_from_name(name).ok_or_else(|| {
                            bad(line_no, format!("unknown cascade style `{name}`"))
                        })?);
                }
                "epochs" => {
                    declared_epochs = Some(
                        one("integer")?
                            .parse::<usize>()
                            .map_err(|_| bad(line_no, "`epochs` is not an integer".into()))?,
                    );
                }
                "epoch" => {
                    if rest.len() != 7 {
                        return Err(bad(
                            line_no,
                            format!("`epoch` needs 7 fields, found {}", rest.len()),
                        ));
                    }
                    let num = |i: usize, what: &str| -> Result<u64, CheckpointError> {
                        rest[i]
                            .parse::<u64>()
                            .map_err(|_| bad(line_no, format!("epoch {what} is not an integer")))
                    };
                    let hex = |i: usize, what: &str| -> Result<u64, CheckpointError> {
                        u64::from_str_radix(rest[i], 16)
                            .map_err(|_| bad(line_no, format!("epoch {what} is not hex")))
                    };
                    let index = num(0, "index")? as usize;
                    if index != epochs.len() {
                        return Err(bad(
                            line_no,
                            format!(
                                "epoch records out of order: expected {}, found {index}",
                                epochs.len()
                            ),
                        ));
                    }
                    let entry = EpochEntry {
                        shard_start: num(1, "shard start")? as usize,
                        shard_end: num(2, "shard end")? as usize,
                        chunks: num(3, "chunk count")? as usize,
                        payload_len: num(4, "payload length")?,
                        checksum: hex(5, "digest")?,
                        corpus_digest: hex(6, "corpus digest")?,
                    };
                    // Epochs must tile the covered shard prefix: the
                    // first starts at shard 0, each next at the previous
                    // end, and every epoch covers at least one shard.
                    let expected = epochs.last().map_or(0, |prev| prev.shard_end);
                    if entry.shard_start != expected {
                        return Err(bad(
                            line_no,
                            format!(
                                "epoch {index} starts at shard {} but the previous epoch ends at \
                                 shard {expected}",
                                entry.shard_start
                            ),
                        ));
                    }
                    if entry.shard_end <= entry.shard_start {
                        return Err(bad(line_no, format!("epoch {index} covers no shards")));
                    }
                    epochs.push(entry);
                }
                other => {
                    return Err(bad(line_no, format!("unknown manifest key `{other}`")));
                }
            }
        }

        let require = |what: &str, ok: bool| -> Result<(), CheckpointError> {
            if ok {
                Ok(())
            } else {
                Err(bad(0, format!("missing `{what}` record")))
            }
        };
        require("payload_version", payload_version.is_some())?;
        require("corpus_seed", corpus_seed.is_some())?;
        require("corpus_style", corpus_style.is_some())?;
        require("epochs", declared_epochs.is_some())?;
        let declared = declared_epochs.expect("checked");
        if declared != epochs.len() {
            return Err(bad(
                0,
                format!(
                    "manifest declares {declared} epoch(s) but indexes {}",
                    epochs.len()
                ),
            ));
        }
        Ok(CheckpointManifest {
            payload_version: payload_version.expect("checked"),
            corpus_seed: corpus_seed.expect("checked"),
            corpus_style: corpus_style.expect("checked"),
            epochs,
        })
    }

    /// One past the last corpus shard any epoch covers (0 when empty).
    pub fn covered_shards(&self) -> usize {
        self.epochs.last().map_or(0, |e| e.shard_end)
    }

    /// Validates that this checkpoint was folded from (a prefix of) the
    /// given corpus: seed and style match, every epoch's shard range
    /// exists in the corpus, and every epoch's corpus digest matches a
    /// recomputation over the corpus manifest. An appended corpus (new
    /// shards after the covered prefix) passes; a rebuilt or edited one
    /// does not.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::CorpusMismatch`] naming the first disagreeing
    /// field.
    pub fn validate_against(&self, corpus: &Manifest) -> Result<(), CheckpointError> {
        let mismatch = |what: &str, checkpoint: String, corpus: String| {
            Err(CheckpointError::CorpusMismatch {
                what: what.to_string(),
                checkpoint,
                corpus,
            })
        };
        if self.corpus_seed != corpus.seed {
            return mismatch(
                "seed",
                self.corpus_seed.to_string(),
                corpus.seed.to_string(),
            );
        }
        if self.corpus_style != corpus.style {
            return mismatch(
                "style",
                style_name(self.corpus_style).to_string(),
                style_name(corpus.style).to_string(),
            );
        }
        if self.covered_shards() > corpus.shards.len() {
            return mismatch(
                "covered shards",
                self.covered_shards().to_string(),
                corpus.shards.len().to_string(),
            );
        }
        for (i, e) in self.epochs.iter().enumerate() {
            let expected = corpus_epoch_digest(corpus, e.shard_start..e.shard_end);
            if e.corpus_digest != expected {
                return mismatch(
                    &format!("epoch {i} shard digest"),
                    format!("{:016x}", e.corpus_digest),
                    format!("{expected:016x}"),
                );
            }
        }
        Ok(())
    }
}

/// Appends checkpoint epochs durably: one frame file per epoch, the
/// manifest rewritten atomically after each.
#[derive(Debug)]
pub struct CheckpointWriter {
    dir: PathBuf,
    manifest: CheckpointManifest,
}

impl CheckpointWriter {
    /// Starts a new, empty checkpoint in `dir` (created if missing),
    /// keyed to the given corpus identity.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::AlreadyExists`] if `dir` already holds a
    /// manifest; [`CheckpointError::Io`] on filesystem failure.
    pub fn create(
        dir: &Path,
        payload_version: u32,
        corpus_seed: u64,
        corpus_style: CascadeStyle,
    ) -> Result<CheckpointWriter, CheckpointError> {
        let manifest_path = dir.join(CHECKPOINT_NAME);
        if manifest_path.exists() {
            return Err(CheckpointError::AlreadyExists {
                path: manifest_path,
            });
        }
        std::fs::create_dir_all(dir).map_err(io_err(format!("creating {}", dir.display())))?;
        let writer = CheckpointWriter {
            dir: dir.to_path_buf(),
            manifest: CheckpointManifest {
                payload_version,
                corpus_seed,
                corpus_style,
                epochs: Vec::new(),
            },
        };
        writer.persist_manifest()?;
        Ok(writer)
    }

    /// Reopens an existing checkpoint for appending further epochs.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::MissingManifest`] if `dir` holds none;
    /// manifest parse errors otherwise.
    pub fn append_to(dir: &Path) -> Result<CheckpointWriter, CheckpointError> {
        let manifest = read_manifest(dir)?;
        Ok(CheckpointWriter {
            dir: dir.to_path_buf(),
            manifest,
        })
    }

    /// The manifest as currently persisted.
    pub fn manifest(&self) -> &CheckpointManifest {
        &self.manifest
    }

    /// Appends one epoch: writes its frame (temp file, sync, rename),
    /// then rewrites the manifest atomically. Returns the epoch index.
    ///
    /// The shard range must abut the previous epoch (`shards.start` ==
    /// previous end, starting at 0) and be non-empty — violating either
    /// is a caller bug and panics.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure; the previously
    /// persisted manifest (and thus the previous durable epoch) is left
    /// intact.
    pub fn write_epoch(
        &mut self,
        shards: Range<usize>,
        chunks: usize,
        corpus_digest: u64,
        payload: &[u8],
    ) -> Result<usize, CheckpointError> {
        let expected = self.manifest.covered_shards();
        assert_eq!(
            shards.start, expected,
            "epoch shard range must abut the previous epoch"
        );
        assert!(shards.end > shards.start, "epoch must cover shards");
        let index = self.manifest.epochs.len();

        let mut frame_bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        let header =
            frame::encode_frame(&mut frame_bytes, index as u32, shards.end as u64, payload);

        let path = self.dir.join(epoch_file_name(index));
        write_atomic(&path, &frame_bytes)
            .map_err(io_err(format!("publishing {}", path.display())))?;

        self.manifest.epochs.push(EpochEntry {
            shard_start: shards.start,
            shard_end: shards.end,
            chunks,
            payload_len: header.payload_len,
            checksum: header.checksum,
            corpus_digest,
        });
        // Persist the manifest only after the frame is durable; on
        // failure, roll the in-memory entry back so the writer still
        // mirrors what is on disk.
        if let Err(e) = self.persist_manifest() {
            self.manifest.epochs.pop();
            return Err(e);
        }
        Ok(index)
    }

    /// Drops every epoch past the first `keep`, persisting the shortened
    /// manifest first and then removing the orphaned frame files (best
    /// effort — an unreferenced frame file is inert). A no-op when the
    /// checkpoint already holds `keep` epochs or fewer.
    ///
    /// This is how a resume discards epochs that no longer align with a
    /// re-planned chunking: the aligned prefix stays durable, the
    /// misaligned tail is recomputed.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure; the in-memory
    /// manifest is rolled back so the writer still mirrors the disk.
    pub fn truncate_to(&mut self, keep: usize) -> Result<(), CheckpointError> {
        if self.manifest.epochs.len() <= keep {
            return Ok(());
        }
        let dropped = self.manifest.epochs.split_off(keep);
        if let Err(e) = self.persist_manifest() {
            self.manifest.epochs.extend(dropped);
            return Err(e);
        }
        for index in keep..keep + dropped.len() {
            let _ = std::fs::remove_file(self.dir.join(epoch_file_name(index)));
        }
        Ok(())
    }

    fn persist_manifest(&self) -> Result<(), CheckpointError> {
        let path = self.dir.join(CHECKPOINT_NAME);
        write_atomic(&path, self.manifest.to_text().as_bytes())
            .map_err(io_err(format!("publishing {}", path.display())))
    }
}

fn read_manifest(dir: &Path) -> Result<CheckpointManifest, CheckpointError> {
    let path = dir.join(CHECKPOINT_NAME);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Err(CheckpointError::MissingManifest { path });
        }
        Err(e) => return Err(io_err(format!("reading {}", path.display()))(e)),
    };
    CheckpointManifest::parse(&text)
}

/// Reads checkpoint epochs back, cross-checking every frame against the
/// manifest.
#[derive(Debug)]
pub struct CheckpointReader {
    dir: PathBuf,
    manifest: CheckpointManifest,
}

impl CheckpointReader {
    /// Opens a checkpoint directory and parses its manifest.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::MissingManifest`] on an empty or non-checkpoint
    /// directory; manifest parse errors otherwise.
    pub fn open(dir: &Path) -> Result<CheckpointReader, CheckpointError> {
        let manifest = read_manifest(dir)?;
        Ok(CheckpointReader {
            dir: dir.to_path_buf(),
            manifest,
        })
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &CheckpointManifest {
        &self.manifest
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of durable epochs.
    pub fn epoch_count(&self) -> usize {
        self.manifest.epochs.len()
    }

    /// Path of epoch `index`'s frame file.
    pub fn epoch_path(&self, index: usize) -> PathBuf {
        self.dir.join(epoch_file_name(index))
    }

    /// Reads and verifies one epoch's snapshot payload: frame decode
    /// (magic, version, truncation, checksum) plus manifest cross-check
    /// (epoch index, shard end, payload length, digest).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Frame`] on codec failure,
    /// [`CheckpointError::DigestMismatch`]/[`CheckpointError::EntryMismatch`]
    /// when the frame and manifest disagree.
    pub fn read_epoch(&self, index: usize) -> Result<Vec<u8>, CheckpointError> {
        let entry = &self.manifest.epochs[index];
        let path = self.epoch_path(index);
        let mut bytes = Vec::with_capacity(HEADER_LEN + entry.payload_len as usize);
        File::open(&path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(io_err(format!("reading {}", path.display())))?;
        let (header, payload) =
            frame::decode_frame(&bytes).map_err(|source| CheckpointError::Frame {
                epoch: index,
                source,
            })?;
        if header.checksum != entry.checksum {
            return Err(CheckpointError::DigestMismatch {
                epoch: index,
                manifest: entry.checksum,
                frame: header.checksum,
            });
        }
        for (field, manifest, frame) in [
            ("payload length", entry.payload_len, header.payload_len),
            ("shard end", entry.shard_end as u64, header.line_count),
            ("epoch index", index as u64, u64::from(header.system_id)),
        ] {
            if manifest != frame {
                return Err(CheckpointError::EntryMismatch {
                    epoch: index,
                    field,
                    manifest,
                    frame,
                });
            }
        }
        Ok(payload.to_vec())
    }

    /// Verifies every epoch frame against its checksum and manifest
    /// entry, returning the total payload bytes walked.
    ///
    /// # Errors
    ///
    /// The first failing epoch's error, as in
    /// [`CheckpointReader::read_epoch`].
    pub fn verify(&self) -> Result<u64, CheckpointError> {
        let mut total = 0;
        for index in 0..self.epoch_count() {
            total += self.read_epoch(index)?.len() as u64;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ssfa-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_writer(dir: &Path) -> CheckpointWriter {
        CheckpointWriter::create(dir, 1, 42, CascadeStyle::RaidOnly).expect("create")
    }

    #[test]
    fn manifest_text_round_trips() {
        let dir = tmpdir("roundtrip");
        let mut w = sample_writer(&dir);
        w.write_epoch(0..3, 2, 0xdead_beef, b"alpha")
            .expect("epoch 0");
        w.write_epoch(3..5, 1, 0xfeed_f00d, b"beta")
            .expect("epoch 1");
        let parsed = CheckpointManifest::parse(&w.manifest().to_text()).expect("reparse");
        assert_eq!(&parsed, w.manifest());
        let reader = CheckpointReader::open(&dir).expect("open");
        assert_eq!(reader.manifest(), w.manifest());
        assert_eq!(reader.read_epoch(0).expect("read 0"), b"alpha");
        assert_eq!(reader.read_epoch(1).expect("read 1"), b"beta");
        assert_eq!(reader.verify().expect("verify"), 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_existing_and_append_continues() {
        let dir = tmpdir("append");
        let mut w = sample_writer(&dir);
        w.write_epoch(0..2, 1, 1, b"one").expect("epoch 0");
        drop(w);
        assert!(matches!(
            CheckpointWriter::create(&dir, 1, 42, CascadeStyle::RaidOnly),
            Err(CheckpointError::AlreadyExists { .. })
        ));
        let mut w = CheckpointWriter::append_to(&dir).expect("append");
        assert_eq!(w.write_epoch(2..4, 1, 2, b"two").expect("epoch 1"), 1);
        let reader = CheckpointReader::open(&dir).expect("open");
        assert_eq!(reader.epoch_count(), 2);
        assert_eq!(reader.manifest().covered_shards(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_display_is_pinned() {
        let dir = tmpdir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        let err = CheckpointReader::open(&dir).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "checkpoint manifest not found: {}",
                dir.join(CHECKPOINT_NAME).display()
            )
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_abutting_epoch_records_are_rejected() {
        let text = format!(
            "{CHECKPOINT_VERSION_LINE}\npayload_version 1\ncorpus_seed 1\n\
             corpus_style raid-only\nepochs 2\n\
             epoch 0 0 2 1 5 {0:016x} {0:016x}\n\
             epoch 1 3 4 1 5 {0:016x} {0:016x}\n",
            7u64
        );
        let err = CheckpointManifest::parse(&text).unwrap_err();
        assert_eq!(
            err.to_string(),
            "checkpoint manifest line 7: epoch 1 starts at shard 3 but the previous epoch ends \
             at shard 2"
        );
    }
}
