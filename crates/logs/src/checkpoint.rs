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
//! An epoch's payload holds the fold of the shards from its **fold
//! start** to its shard end, and the manifest records that start
//! explicitly. A *delta* epoch ([`CheckpointWriter::write_epoch`]) folds
//! from its own first shard, so it holds only its own shards and a
//! checkpointed run writes O(corpus) bytes in total. A *whole* epoch
//! ([`CheckpointWriter::write_whole_epoch`]) folds from shard 0 and holds
//! the entire covered prefix; epoch 0 is both. No other fold start is
//! accepted. The fold of epochs `0..=k` is therefore the newest whole
//! epoch at or before `k` ([`CheckpointManifest::fold_base`]) merged with
//! every delta after it, in order.
//!
//! Every epoch payload travels in the same [`crate::frame`] codec the
//! corpus uses — the four-lane [`Checksum`] over header and payload,
//! each lane step a bijection — so a single flipped bit in a checkpoint
//! is rejected exactly like a flipped bit in a corpus shard. The frame
//! header's `system_id` field carries the epoch index and `line_count`
//! carries the epoch's end shard; both are cross-checked against the
//! manifest on every read (tampering with either side is caught,
//! mirroring [`crate::store::CorpusReader::cross_check`]).
//!
//! The manifest's own fields — fold starts, chunk counts, corpus
//! digests — appear in no frame, so the manifest ends in a line
//! `checksum <hex>`: the same [`Checksum`] over every byte before it.
//! [`CheckpointManifest::parse`] refuses a manifest whose checksum line
//! is missing or disagrees ([`CheckpointError::ManifestChecksum`]), so
//! a hand-edited fold start cannot make a resume count shards twice.
//!
//! The manifest additionally *keys* each epoch to the corpus it was
//! folded from: the corpus seed and style, plus a per-epoch digest
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
/// Version 2 added each epoch's fold start; version 3 added the closing
/// checksum line. An older store is refused rather than misread: a
/// version-1 store's every epoch held the whole prefix, and a version-2
/// manifest has nothing that catches an edited field.
pub const CHECKPOINT_VERSION_LINE: &str = "ssfa-checkpoint v3";

/// Opens the manifest's last line, which carries the [`Checksum`] of
/// every byte before it.
const TRAILER_KEY: &str = "checksum ";

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
    /// The manifest's closing checksum line is missing, or disagrees with
    /// the bytes before it: the manifest was edited or damaged.
    ManifestChecksum {
        /// The manifest file.
        path: PathBuf,
        /// The digest the checksum line records; `None` when there is no
        /// checksum line.
        stored: Option<u64>,
        /// The digest of the bytes before the manifest's last line.
        computed: u64,
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
            CheckpointError::ManifestChecksum {
                path, stored: None, ..
            } => {
                write!(
                    f,
                    "checkpoint manifest {} has no closing checksum line",
                    path.display()
                )
            }
            CheckpointError::ManifestChecksum {
                path,
                stored: Some(stored),
                computed,
            } => {
                write!(
                    f,
                    "checkpoint manifest {} fails its checksum: the file records {stored:016x}, \
                     its contents digest to {computed:016x}",
                    path.display()
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

/// The digest keying an epoch to the corpus shards it covers: folds
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
    /// First corpus shard the epoch covers (inclusive).
    pub shard_start: usize,
    /// One past the last covered corpus shard.
    pub shard_end: usize,
    /// First corpus shard the epoch's snapshot folds: `shard_start` for a
    /// delta, 0 for a whole-prefix epoch.
    pub fold_start: usize,
    /// Pipeline chunks folded within this epoch.
    pub chunks: usize,
    /// Snapshot payload bytes of the epoch frame.
    pub payload_len: u64,
    /// Digest of the epoch frame, equal to its header checksum.
    pub checksum: u64,
    /// [`corpus_epoch_digest`] over the covered corpus shards.
    pub corpus_digest: u64,
}

impl EpochEntry {
    /// Whether the snapshot holds the fold of the whole covered prefix
    /// (shards `0..shard_end`) rather than a delta over its own shards.
    /// Epoch 0 is always whole.
    pub fn is_whole(&self) -> bool {
        self.fold_start == 0
    }
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
    /// the same checkpoint always serializes to identical bytes). The
    /// last line is `checksum <hex>`, the [`Checksum`] of every byte
    /// before it.
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
                "epoch {i} {} {} {} {} {} {:016x} {:016x}",
                e.shard_start,
                e.shard_end,
                e.fold_start,
                e.chunks,
                e.payload_len,
                e.checksum,
                e.corpus_digest,
            );
        }
        let _ = writeln!(
            out,
            "{TRAILER_KEY}{:016x}",
            frame::checksum64(out.as_bytes())
        );
        out
    }

    /// Parses a manifest, validating the version line, then the closing
    /// checksum line, then the layout invariants: epoch records in order,
    /// shard ranges non-empty and abutting from shard 0, every fold start
    /// either 0 or the epoch's own start, and the declared count
    /// consistent. A checksum error names the file `CHECKPOINT`;
    /// [`CheckpointReader::open`] names the full path.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Manifest`] with the offending line number, or
    /// [`CheckpointError::ManifestChecksum`].
    pub fn parse(text: &str) -> Result<CheckpointManifest, CheckpointError> {
        CheckpointManifest::parse_file(text, Path::new(CHECKPOINT_NAME))
    }

    fn parse_file(text: &str, path: &Path) -> Result<CheckpointManifest, CheckpointError> {
        let bad = |line_no: usize, what: String| CheckpointError::Manifest { line_no, what };
        let first = text
            .lines()
            .next()
            .ok_or_else(|| bad(1, "empty manifest".into()))?;
        if first != CHECKPOINT_VERSION_LINE {
            return Err(bad(
                1,
                format!("expected header `{CHECKPOINT_VERSION_LINE}`, found `{first}`"),
            ));
        }
        // Every byte before the last line is covered by the checksum on it.
        let last_start = text
            .trim_end_matches('\n')
            .rfind('\n')
            .map_or(0, |newline| newline + 1);
        let (covered, last) = text.split_at(last_start);
        let computed = frame::checksum64(covered.as_bytes());
        let stored = last
            .trim_end_matches('\n')
            .strip_prefix(TRAILER_KEY)
            .filter(|hex| hex.len() == 16)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok());
        if stored != Some(computed) {
            return Err(CheckpointError::ManifestChecksum {
                path: path.to_path_buf(),
                stored,
                computed,
            });
        }
        let lines = covered.lines().enumerate().skip(1);

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
                    if rest.len() != 8 {
                        return Err(bad(
                            line_no,
                            format!("`epoch` needs 8 fields, found {}", rest.len()),
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
                        fold_start: num(3, "fold start")? as usize,
                        chunks: num(4, "chunk count")? as usize,
                        payload_len: num(5, "payload length")?,
                        checksum: hex(6, "digest")?,
                        corpus_digest: hex(7, "corpus digest")?,
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
                    // A snapshot folds either the whole prefix or exactly
                    // its own shards; any other start would merge some
                    // shards twice or never on restore.
                    if entry.fold_start != 0 && entry.fold_start != entry.shard_start {
                        return Err(bad(
                            line_no,
                            format!(
                                "epoch {index} folds from shard {} but must fold from shard 0 \
                                 (whole) or from its start shard {} (delta)",
                                entry.fold_start, entry.shard_start
                            ),
                        ));
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

    /// The newest whole epoch at or before `epoch`: the fold through
    /// `epoch` is that epoch's snapshot merged with every delta after it,
    /// up to and including `epoch`. Epoch 0 is always whole, so there is
    /// always one.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is not an epoch of this manifest.
    pub fn fold_base(&self, epoch: usize) -> usize {
        self.epochs[..=epoch]
            .iter()
            .rposition(EpochEntry::is_whole)
            .expect("epoch 0 folds from shard 0")
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

    /// Appends one delta epoch, whose `payload` folds only the shards in
    /// `shards`: writes its frame (temp file, sync, rename), then
    /// rewrites the manifest atomically. Returns the epoch index.
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
        let fold_start = shards.start;
        self.append(shards, fold_start, chunks, corpus_digest, payload)
    }

    /// Appends one whole epoch, whose `payload` folds every shard from 0
    /// to `shards.end`; otherwise as [`CheckpointWriter::write_epoch`].
    /// A resume restoring this epoch or a later one decodes this
    /// payload and never reads an earlier epoch.
    ///
    /// # Errors
    ///
    /// As for [`CheckpointWriter::write_epoch`].
    pub fn write_whole_epoch(
        &mut self,
        shards: Range<usize>,
        chunks: usize,
        corpus_digest: u64,
        payload: &[u8],
    ) -> Result<usize, CheckpointError> {
        self.append(shards, 0, chunks, corpus_digest, payload)
    }

    fn append(
        &mut self,
        shards: Range<usize>,
        fold_start: usize,
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
            fold_start,
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
    CheckpointManifest::parse_file(&text, &path)
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

    /// `body` closed with its checksum line, as [`CheckpointManifest::to_text`]
    /// closes a manifest.
    fn sealed(body: &str) -> String {
        format!(
            "{body}checksum {:016x}\n",
            frame::checksum64(body.as_bytes())
        )
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
        let text = sealed(&format!(
            "{CHECKPOINT_VERSION_LINE}\npayload_version 1\ncorpus_seed 1\n\
             corpus_style raid-only\nepochs 2\n\
             epoch 0 0 2 0 1 5 {0:016x} {0:016x}\n\
             epoch 1 3 4 3 1 5 {0:016x} {0:016x}\n",
            7u64
        ));
        let err = CheckpointManifest::parse(&text).unwrap_err();
        assert_eq!(
            err.to_string(),
            "checkpoint manifest line 7: epoch 1 starts at shard 3 but the previous epoch ends \
             at shard 2"
        );
    }

    #[test]
    fn fold_starts_round_trip_and_pick_the_restore_base() {
        let dir = tmpdir("fold-start");
        let mut w = sample_writer(&dir);
        w.write_epoch(0..2, 1, 1, b"first").expect("epoch 0");
        w.write_epoch(2..3, 1, 2, b"delta").expect("epoch 1");
        w.write_whole_epoch(3..5, 1, 3, b"whole").expect("epoch 2");
        w.write_epoch(5..6, 1, 4, b"delta").expect("epoch 3");
        let text = w.manifest().to_text();
        assert!(text.starts_with("ssfa-checkpoint v3\n"), "{text}");
        assert!(text.contains("\nepoch 1 2 3 2 1 "), "{text}");
        assert!(text.contains("\nepoch 2 3 5 0 1 "), "{text}");
        let parsed = CheckpointManifest::parse(&text).expect("reparse");
        assert_eq!(&parsed, w.manifest());
        let starts: Vec<usize> = parsed.epochs.iter().map(|e| e.fold_start).collect();
        assert_eq!(starts, [0, 2, 0, 5]);
        let kinds: Vec<bool> = parsed.epochs.iter().map(EpochEntry::is_whole).collect();
        assert_eq!(kinds, [true, false, true, false]);
        let bases: Vec<usize> = (0..4).map(|k| parsed.fold_base(k)).collect();
        assert_eq!(bases, [0, 0, 2, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_fold_start_that_is_neither_zero_nor_the_epoch_start_is_rejected() {
        let text = sealed(&format!(
            "{CHECKPOINT_VERSION_LINE}\npayload_version 1\ncorpus_seed 1\n\
             corpus_style raid-only\nepochs 2\n\
             epoch 0 0 2 0 1 5 {0:016x} {0:016x}\n\
             epoch 1 2 4 1 1 5 {0:016x} {0:016x}\n",
            7u64
        ));
        let err = CheckpointManifest::parse(&text).unwrap_err();
        assert_eq!(
            err.to_string(),
            "checkpoint manifest line 7: epoch 1 folds from shard 1 but must fold from shard 0 \
             (whole) or from its start shard 2 (delta)"
        );
    }

    #[test]
    fn a_version_1_manifest_is_refused() {
        let text = format!(
            "ssfa-checkpoint v1\npayload_version 2\ncorpus_seed 1\n\
             corpus_style raid-only\nepochs 1\n\
             epoch 0 0 2 1 5 {0:016x} {0:016x}\n",
            7u64
        );
        let err = CheckpointManifest::parse(&text).unwrap_err();
        assert_eq!(
            err.to_string(),
            "checkpoint manifest line 1: expected header `ssfa-checkpoint v3`, \
             found `ssfa-checkpoint v1`"
        );
    }

    #[test]
    fn a_version_2_manifest_is_refused_by_its_header_first() {
        // Version 2 had no checksum line; the header names the cause.
        let text = format!(
            "ssfa-checkpoint v2\npayload_version 2\ncorpus_seed 1\n\
             corpus_style raid-only\nepochs 1\n\
             epoch 0 0 2 0 1 5 {0:016x} {0:016x}\n",
            7u64
        );
        let err = CheckpointManifest::parse(&text).unwrap_err();
        assert_eq!(
            err.to_string(),
            "checkpoint manifest line 1: expected header `ssfa-checkpoint v3`, \
             found `ssfa-checkpoint v2`"
        );
    }

    #[test]
    fn a_missing_or_wrong_checksum_line_is_refused() {
        let dir = tmpdir("trailer");
        let mut w = sample_writer(&dir);
        w.write_epoch(0..2, 1, 1, b"first").expect("epoch 0");
        let text = w.manifest().to_text();
        let (body, trailer) = text.split_at(text.rfind("checksum ").expect("trailer"));
        assert_eq!(trailer.len(), "checksum ".len() + 17);
        let digest = frame::checksum64(body.as_bytes());
        assert_eq!(trailer, format!("checksum {digest:016x}\n"));

        let err = CheckpointManifest::parse(body).unwrap_err();
        assert_eq!(
            err.to_string(),
            "checkpoint manifest CHECKPOINT has no closing checksum line"
        );
        let wrong = format!("{body}checksum {:016x}\n", digest ^ 1);
        let err = CheckpointManifest::parse(&wrong).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "checkpoint manifest CHECKPOINT fails its checksum: the file records {:016x}, \
                 its contents digest to {digest:016x}",
                digest ^ 1
            )
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_edited_fold_start_fails_the_checksum_and_names_the_file() {
        let dir = tmpdir("fold-edit");
        let mut w = sample_writer(&dir);
        w.write_epoch(0..2, 1, 1, b"first").expect("epoch 0");
        w.write_whole_epoch(2..5, 1, 2, b"whole").expect("epoch 1");
        let path = dir.join(CHECKPOINT_NAME);
        let text = std::fs::read_to_string(&path).expect("manifest");
        // Still a valid delta to the layout checks: only the checksum
        // line can tell.
        let edited = text.replace("\nepoch 1 2 5 0 1 ", "\nepoch 1 2 5 2 1 ");
        assert_ne!(edited, text);
        std::fs::write(&path, &edited).expect("edit");
        let err = CheckpointReader::open(&dir).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::ManifestChecksum {
                    stored: Some(_),
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(
            err.to_string().starts_with(&format!(
                "checkpoint manifest {} fails its checksum",
                path.display()
            )),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
