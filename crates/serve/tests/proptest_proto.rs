//! Property tests: every wire-protocol frame round-trips through
//! encode → frame → read_frame → decode for randomized contents, the
//! borrowed decode path accepts/rejects exactly what the owned path
//! does, and the frame reader never panics on arbitrary byte soup.

use storypivot_serve::proto::{
    frame, frame_ready, read_frame, Request, Response, StorySummary, MAX_FRAME_LEN,
};
use storypivot_substrate::prop;
use storypivot_substrate::rng::{RngExt, StdRng};
use storypivot_types::{
    DocId, EntityId, EventType, Snippet, SnippetId, SourceId, SourceKind, StoryId, TermId,
    TimeRange, Timestamp,
};

fn random_weight(rng: &mut StdRng) -> f32 {
    // Sixteenths are exactly representable, so equality after the
    // bit-level round-trip is exact equality of the original value.
    rng.random_range(1..2000u32) as f32 / 16.0
}

fn random_snippet(rng: &mut StdRng) -> Snippet {
    let mut b = Snippet::builder(
        SnippetId::new(rng.random()),
        SourceId::new(rng.random_range(0..256u32)),
        Timestamp::from_secs(rng.random_range(-4_000_000_000i64..4_000_000_000)),
    )
    .doc(DocId::new(rng.random()))
    .event_type(EventType::ALL[rng.random_range(0..EventType::ALL.len())])
    .headline(prop::unicode_string(rng, 0, 40));
    for _ in 0..rng.random_range(0..6usize) {
        b = b.entity(EntityId::new(rng.random_range(0..10_000u32)), random_weight(rng));
    }
    for _ in 0..rng.random_range(0..6usize) {
        b = b.term(TermId::new(rng.random_range(0..10_000u32)), random_weight(rng));
    }
    b.build()
}

fn random_summary(rng: &mut StdRng) -> StorySummary {
    StorySummary {
        id: StoryId::new(rng.random()),
        source: SourceId::new(rng.random_range(0..256u32)),
        lifespan: TimeRange::new(
            Timestamp::from_secs(rng.random_range(-1_000_000i64..1_000_000)),
            Timestamp::from_secs(rng.random_range(-1_000_000i64..1_000_000)),
        ),
        members: prop::vec_with(rng, 0, 12, |r| SnippetId::new(r.random())),
    }
}

fn random_request(rng: &mut StdRng) -> Request {
    match rng.random_range(0..9u32) {
        0 => Request::AddSource {
            name: prop::unicode_string(rng, 0, 30),
            kind: SourceKind::ALL[rng.random_range(0..SourceKind::ALL.len())],
            lag: rng.random_range(-1_000_000i64..1_000_000),
        },
        1 => Request::IngestSnippet(random_snippet(rng)),
        2 => Request::IngestBatch(prop::vec_with(rng, 0, 8, random_snippet)),
        3 => Request::QueryStories,
        4 => Request::GetStory(StoryId::new(rng.random())),
        5 => Request::RemoveDoc(DocId::new(rng.random())),
        6 => Request::Metrics,
        7 => Request::ReplSubscribe {
            shard: rng.random_range(0..64u32),
            generation: rng.random(),
            wal_offset: rng.random(),
        },
        _ => Request::Shutdown,
    }
}

fn random_response(rng: &mut StdRng) -> Response {
    match rng.random_range(0..14u32) {
        0 => Response::SourceAdded(SourceId::new(rng.random_range(0..256u32))),
        1 => Response::Ingested(StoryId::new(rng.random())),
        2 => Response::BatchIngested(rng.random()),
        3 => Response::Stories(prop::vec_with(rng, 0, 6, random_summary)),
        4 => Response::Story(random_summary(rng)),
        5 => Response::Removed(rng.random()),
        6 => Response::Metrics {
            text: prop::unicode_string(rng, 0, 60),
        },
        7 => Response::ShutdownAck,
        8 => Response::Busy {
            retry_after_ms: rng.random(),
        },
        9 => Response::NotLeader {
            leader: prop::unicode_string(rng, 0, 40),
        },
        10 => Response::ReplFrame {
            generation: rng.random(),
            next_offset: rng.random(),
            leader_wal_len: rng.random(),
            leader_ops: rng.random(),
            records: prop::vec_with(rng, 0, 64, |r| r.random()),
        },
        11 => Response::ReplCheckpoint {
            generation: rng.random(),
            checkpoint: prop::vec_with(rng, 0, 64, |r| r.random()),
        },
        12 => Response::Shed {
            retry_after_ms: rng.random(),
        },
        _ => Response::Error {
            code: rng.random(),
            message: prop::unicode_string(rng, 0, 60),
        },
    }
}

#[test]
fn prop_requests_round_trip() {
    prop::run(256, |rng| {
        let req = random_request(rng);
        let bytes = frame(|b| req.encode(b));
        let mut r: &[u8] = &bytes;
        let payload = read_frame(&mut r).expect("well-formed frame").expect("non-empty");
        assert_eq!(Request::decode(&payload).expect("decodes"), req);
        assert!(r.is_empty(), "no bytes left after one frame");
    });
}

#[test]
fn prop_responses_round_trip() {
    prop::run(256, |rng| {
        let resp = random_response(rng);
        let bytes = frame(|b| resp.encode(b));
        let mut r: &[u8] = &bytes;
        let payload = read_frame(&mut r).expect("well-formed frame").expect("non-empty");
        assert_eq!(Response::decode(&payload).expect("decodes"), resp);
    });
}

#[test]
fn prop_back_to_back_frames_stream_cleanly() {
    prop::run(64, |rng| {
        let reqs = prop::vec_with(rng, 1, 5, random_request);
        let mut wire = Vec::new();
        for req in &reqs {
            wire.extend_from_slice(&frame(|b| req.encode(b)));
        }
        let mut r: &[u8] = &wire;
        for req in &reqs {
            let payload = read_frame(&mut r).unwrap().unwrap();
            assert_eq!(&Request::decode(&payload).unwrap(), req);
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF at the end");
    });
}

#[test]
fn prop_borrowed_request_decode_matches_owned() {
    prop::run(256, |rng| {
        let req = random_request(rng);
        let bytes = frame(|b| req.encode(b));
        let payload = &bytes[4..];
        let owned = Request::decode(payload).expect("owned decodes");
        let borrowed = Request::decode_borrowed(payload).expect("borrowed decodes");
        assert_eq!(borrowed.to_owned(), owned, "borrowed == owned for {req:?}");
    });
}

#[test]
fn prop_borrowed_response_decode_matches_owned() {
    prop::run(256, |rng| {
        let resp = random_response(rng);
        let bytes = frame(|b| resp.encode(b));
        let payload = &bytes[4..];
        let owned = Response::decode(payload).expect("owned decodes");
        let borrowed = Response::decode_borrowed(payload).expect("borrowed decodes");
        assert_eq!(borrowed.to_owned(), owned, "borrowed == owned for {resp:?}");
    });
}

#[test]
fn prop_borrowed_and_owned_agree_on_rejects() {
    // The two decode paths must agree not only on valid frames but on
    // every truncation of a valid frame and on arbitrary garbage: a
    // payload is accepted by both or rejected by both (the server uses
    // the borrowed path, clients the owned one — a disagreement would
    // be a protocol fork).
    prop::run(256, |rng| {
        let req = random_request(rng);
        let valid = frame(|b| req.encode(b));
        let payload = &valid[4..];
        for cut in 0..payload.len() {
            let torn = &payload[..cut];
            assert!(
                Request::decode(torn).is_err() == Request::decode_borrowed(torn).is_err(),
                "owned/borrowed disagree on truncation at {cut} of {req:?}"
            );
        }
        let garbage: Vec<u8> = prop::vec_with(rng, 0, 64, |r| r.random());
        assert_eq!(
            Request::decode(&garbage).is_err(),
            Request::decode_borrowed(&garbage).is_err(),
            "owned/borrowed disagree on garbage request payload"
        );
        assert_eq!(
            Response::decode(&garbage).is_err(),
            Response::decode_borrowed(&garbage).is_err(),
            "owned/borrowed disagree on garbage response payload"
        );
    });
}

#[test]
fn oversized_length_prefix_rejected_before_any_payload_arrives() {
    // frame_ready sees only the 4-byte header of an oversized frame and
    // must reject it there — before the server reserves a buffer for a
    // body that may be gigabytes of hostile air.
    for len in [MAX_FRAME_LEN + 1, u32::MAX / 2, u32::MAX] {
        let head = len.to_le_bytes();
        assert!(frame_ready(&head).is_err(), "len {len} must be rejected from header alone");
    }
    // Zero-length frames carry no opcode and are equally malformed.
    assert!(frame_ready(&0u32.to_le_bytes()).is_err());
    // A maximal *legal* prefix is not an error — just not ready yet.
    assert_eq!(frame_ready(&MAX_FRAME_LEN.to_le_bytes()).unwrap(), None);
}

#[test]
fn prop_decoder_never_panics_on_byte_soup() {
    prop::run(256, |rng| {
        // Truncations of a valid frame plus pure garbage: decode and
        // read_frame may reject, but must never panic.
        let req = random_request(rng);
        let valid = frame(|b| req.encode(b));
        let cut = rng.random_range(0..=valid.len());
        let mut torn: &[u8] = &valid[..cut];
        let _ = read_frame(&mut torn);
        let garbage: Vec<u8> = prop::vec_with(rng, 0, 64, |r| r.random());
        let _ = Request::decode(&garbage);
        let _ = Response::decode(&garbage);
        let mut soup: &[u8] = &garbage;
        let _ = read_frame(&mut soup);
    });
}
