//! Synthetic multi-source news corpus generation.
//!
//! The paper evaluates on GDELT/EventRegistry extractions (50 sources,
//! 500 entities, millions of snippets — Figure 7 inset). Those feeds are
//! not redistributable and carry no ground truth, so this crate builds
//! the closest synthetic equivalent: a *world* of evolving ground-truth
//! stories, observed through *sources* with per-source coverage,
//! reporting lag, and annotation noise. The algorithms under test see
//! exactly what they would see on the real feeds — event tuples
//! `<source, type, {entities}, description, timestamp>` — while the
//! generator retains the true snippet→story labels needed to compute the
//! F-measures of Figure 7.
//!
//! Model summary:
//!
//! * **Entities and terms** are drawn from Zipf distributions (popular
//!   entities recur across unrelated stories, which is what makes
//!   complete-mode identification overfit, §2.2).
//! * **Stories** have a lifespan, an event schedule, and *drift*: their
//!   active entity/term sets mutate as the story evolves (the Ukraine
//!   example: protests → Crimea → plane crash → sanctions).
//! * **Sources** cover a random subset of stories, report events with a
//!   publication lag (which produces out-of-order delivery), jitter the
//!   event timestamp estimate, drop/add entities, and corrupt terms.
//! * Optionally each snippet is rendered as **document text** so the
//!   full extraction pipeline (tokenizer → gazetteer → TF-IDF) can be
//!   exercised end to end.
//! * [`scenario`] reshapes a corpus into phase-based **chaos scripts**
//!   (flash crowds, duplicate floods, source churn, retraction storms,
//!   dormant-story resurgence) whose ground truth stays scoreable
//!   under load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod corpus;
pub mod names;
pub mod render;
pub mod scenario;
pub mod truth;

pub use config::GenConfig;
pub use corpus::{Corpus, CorpusBuilder};
pub use render::render_document;
pub use scenario::{Phase, Scenario, ScenarioOp, Script, Segment};
pub use truth::GroundTruth;
