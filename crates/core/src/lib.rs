//! StoryPivot core: story identification, story alignment and story
//! refinement over one incremental engine.
//!
//! The paper (SIGMOD'15) decomposes story detection into two phases:
//!
//! 1. **Story identification** ([`identify`]) — within a single data
//!    source, incrementally assign each information snippet to its best
//!    matching story or open a new one (§2.2). Two execution modes
//!    (Figure 2): *complete* (compare against every prior snippet — the
//!    baseline) and *temporal* (compare only inside a sliding window
//!    `[t-ω, t+ω]`). Stories can *merge* and *split* as the underlying
//!    real-world story evolves (incremental record linkage).
//! 2. **Story alignment** ([`align`]) — across sources, match stories
//!    whose content *and* temporal evolution are similar, producing
//!    integrated global stories; snippets are classified *aligning* or
//!    *enriching* (§2.3). Conflicts feed **story refinement**
//!    ([`refine`]): alignment evidence corrects identification mistakes
//!    (Figure 1d).
//!
//! [`pivot::StoryPivot`] is the one engine: it combines the store,
//! per-source identifiers, the aligner, and the refiner, and it covers
//! the online setting of §2.4 itself. It ingests continuously and out
//! of order, re-aligns only dirty stories
//! ([`StoryPivot::align_incremental`]), and adds or removes sources and
//! documents. The caller picks the alignment cadence. A journaled
//! [`oplog::ReplayOp`] reaches the engine through one entry point,
//! [`oplog::ReplayOp::apply`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
pub mod checkpoint;
pub mod explain;
pub mod config;
pub mod hotcache;
pub mod identify;
pub mod metrics;
pub mod oplog;
pub mod pivot;
pub mod query;
pub mod refine;
pub mod sim;
pub mod state;
pub mod unionfind;

pub use align::{AlignOutcome, Aligner};
pub use config::{AlignConfig, IdentifyConfig, MatchMode, PivotConfig, SketchConfig};
pub use explain::{explain_assignment, explain_counterparts, Explanation};
pub use identify::{Identifier, IdentifyDecision};
pub use metrics::EngineMetrics;
pub use oplog::ReplayOp;
pub use pivot::StoryPivot;
pub use query::{query_stories, QueryHit, StoryQuery};
pub use refine::RefineReport;
pub use sim::SimWeights;
pub use state::StoryState;
