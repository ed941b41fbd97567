//! Replayable engine operations — the payloads of a per-shard
//! write-ahead log.
//!
//! `pivotd` journals every state-changing request *before* applying it
//! (see `storypivot-serve`); after a crash, replaying the journal on
//! top of the newest checkpoint reconstructs the exact pre-crash
//! engine. Three operations change engine state over the wire, and each
//! one is its own record:
//!
//! ```text
//! op := 0x01 | source        (register a source)
//!     | 0x02 | snippet       (ingest one snippet)
//!     | 0x03 | doc u32       (remove a document everywhere)
//! ```
//!
//! Sources and snippets reuse the store's binary codec, so a journaled
//! ingest is byte-identical to a checkpointed or served one.
//!
//! [`ReplayOp::apply`] is the one way an op reaches an engine: live
//! writes, journal replay after a crash and replicated records all go
//! through it. Replay must be **idempotent**: a checkpoint is written
//! first and the journal truncated second, so a crash between the two
//! leaves ops in the journal that the checkpoint already contains.
//! `apply` reports "already there" (duplicate snippet or source) as
//! [`Error::Duplicate`], and recovery callers count that as a no-op;
//! "already gone" (unknown document) is a removal of zero snippets.

use storypivot_store::codec::{decode_snippet, decode_source, encode_snippet, encode_source};
use storypivot_substrate::buf::{Buf, BufMut};
use storypivot_types::{DocId, Error, Result, Snippet, Source, SourceId, StoryId};

use crate::pivot::StoryPivot;

const OP_ADD_SOURCE: u8 = 0x01;
const OP_INGEST: u8 = 0x02;
const OP_REMOVE_DOC: u8 = 0x03;

/// What a successfully applied [`ReplayOp`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// The registered source's id.
    Source(SourceId),
    /// The per-source story the snippet joined.
    Story(StoryId),
    /// How many snippets the removal dropped.
    Removed(u32),
}

/// One journaled engine mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayOp {
    /// Register a source (with its server-allocated id).
    AddSource(Source),
    /// Ingest one snippet.
    Ingest(Snippet),
    /// Remove a document and every snippet extracted from it.
    RemoveDoc(DocId),
}

impl ReplayOp {
    /// Append the binary encoding.
    pub fn encode(&self, buf: &mut impl BufMut) {
        match self {
            ReplayOp::AddSource(source) => {
                buf.put_u8(OP_ADD_SOURCE);
                encode_source(buf, source);
            }
            ReplayOp::Ingest(snippet) => {
                buf.put_u8(OP_INGEST);
                encode_snippet(buf, snippet);
            }
            ReplayOp::RemoveDoc(doc) => {
                buf.put_u8(OP_REMOVE_DOC);
                buf.put_u32_le(doc.raw());
            }
        }
    }

    /// The encoding as a fresh byte vector (journal payload form).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode(&mut out);
        out
    }

    /// Decode one op from a full journal payload; trailing bytes are a
    /// codec error.
    pub fn decode(mut payload: &[u8]) -> Result<ReplayOp> {
        let buf = &mut payload;
        if !buf.has_remaining() {
            return Err(Error::Codec("empty replay op".into()));
        }
        let op = match buf.get_u8() {
            OP_ADD_SOURCE => ReplayOp::AddSource(decode_source(buf)?),
            OP_INGEST => ReplayOp::Ingest(decode_snippet(buf)?),
            OP_REMOVE_DOC => {
                if buf.remaining() < 4 {
                    return Err(Error::Codec("truncated remove-doc op".into()));
                }
                ReplayOp::RemoveDoc(DocId::new(buf.get_u32_le()))
            }
            other => return Err(Error::Codec(format!("unknown replay op kind 0x{other:02x}"))),
        };
        if buf.has_remaining() {
            return Err(Error::Codec(format!(
                "{} trailing bytes after replay op",
                buf.remaining()
            )));
        }
        Ok(op)
    }

    /// Apply the op to `engine`. Errors are the engine's own:
    /// [`Error::Duplicate`] for a source or snippet it already holds.
    /// Removing a document the engine does not know drops zero
    /// snippets rather than failing, because sharding splits a
    /// document's snippets across engines.
    pub fn apply(&self, engine: &mut StoryPivot) -> Result<Applied> {
        match self {
            ReplayOp::AddSource(source) => {
                engine.add_source_registered(source.clone()).map(Applied::Source)
            }
            ReplayOp::Ingest(snippet) => engine.ingest(snippet.clone()).map(Applied::Story),
            ReplayOp::RemoveDoc(doc) => match engine.remove_document(*doc) {
                Ok(n) => Ok(Applied::Removed(n as u32)),
                Err(Error::UnknownDocument(_)) => Ok(Applied::Removed(0)),
                Err(e) => Err(e),
            },
        }
    }
}

/// A stable 64-bit identity of an encoded op, for quarantine
/// bookkeeping: FNV-1a over the journal payload, so the same op hashes
/// identically across process restarts (unlike `std`'s randomized
/// hasher).
pub fn fingerprint(payload: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in payload {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PivotConfig;
    use storypivot_types::{EntityId, SnippetId, SourceKind, TermId, Timestamp};

    fn snip(id: u32) -> Snippet {
        Snippet::builder(SnippetId::new(id), SourceId::new(0), Timestamp::from_secs(id as i64))
            .doc(DocId::new(id / 2))
            .entity(EntityId::new(1), 1.0)
            .term(TermId::new(2), 0.5)
            .headline(format!("op {id}"))
            .build()
    }

    #[test]
    fn every_op_round_trips() {
        let ops = [
            ReplayOp::AddSource(Source::new(SourceId::new(3), "wire — ütf8", SourceKind::Wire)),
            ReplayOp::Ingest(snip(9)),
            ReplayOp::RemoveDoc(DocId::new(17)),
        ];
        for op in ops {
            let bytes = op.to_bytes();
            assert_eq!(ReplayOp::decode(&bytes).unwrap(), op);
        }
    }

    #[test]
    fn garbage_and_trailing_bytes_are_codec_errors() {
        assert!(matches!(ReplayOp::decode(&[]), Err(Error::Codec(_))));
        assert!(matches!(ReplayOp::decode(&[0x7F]), Err(Error::Codec(_))));
        let mut bytes = ReplayOp::RemoveDoc(DocId::new(1)).to_bytes();
        bytes.push(0xEE);
        assert!(matches!(ReplayOp::decode(&bytes), Err(Error::Codec(_))));
    }

    #[test]
    fn fingerprints_are_stable_and_distinguish_ops() {
        let a = ReplayOp::Ingest(snip(1)).to_bytes();
        let b = ReplayOp::Ingest(snip(2)).to_bytes();
        let reencoded = ReplayOp::decode(&a).unwrap().to_bytes();
        assert_eq!(fingerprint(&a), fingerprint(&reencoded));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        // FNV-1a 64 reference values: the quarantine files on disk
        // depend on them never changing.
        assert_eq!(fingerprint(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn apply_runs_in_order_and_reports_duplicates() {
        let mut engine = StoryPivot::new(PivotConfig::default());
        let source = Source::new(SourceId::new(0), "s0", SourceKind::Wire);
        let add = ReplayOp::AddSource(source);
        assert_eq!(add.apply(&mut engine).unwrap(), Applied::Source(SourceId::new(0)));
        assert!(matches!(ReplayOp::Ingest(snip(0)).apply(&mut engine), Ok(Applied::Story(_))));
        assert!(matches!(ReplayOp::Ingest(snip(1)).apply(&mut engine), Ok(Applied::Story(_))));
        // Double-applied ops (checkpoint/truncate crash window) are
        // duplicates, which recovery counts as no-ops.
        assert!(matches!(add.apply(&mut engine), Err(Error::Duplicate(_))));
        assert!(matches!(ReplayOp::Ingest(snip(1)).apply(&mut engine), Err(Error::Duplicate(_))));
        let remove = ReplayOp::RemoveDoc(DocId::new(0));
        assert_eq!(remove.apply(&mut engine).unwrap(), Applied::Removed(2));
        assert_eq!(remove.apply(&mut engine).unwrap(), Applied::Removed(0));
        assert_eq!(engine.store().len(), 0);
    }
}
