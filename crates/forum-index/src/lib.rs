//! Full-text indexing and the paper's term-weighting schemes (Section 7).
//!
//! One index type serves both granularities the paper compares:
//!
//! * **FullText** — a single index whose units are whole posts, scored with
//!   the MySQL 5.5 TF/IDF variant of Eq. 7 (the paper's strongest
//!   non-segmented baseline);
//! * **per-intention indices** — one index per intention cluster whose
//!   units are the segments assigned to that cluster, scored with the
//!   intention-aware weight of Eq. 8 and the probabilistic IDF of Eq. 9.
//!   Because unit statistics (average unique-term count, IDF) are computed
//!   *within* the index, the same term automatically receives different
//!   weights in different clusters — the paper's central weighting idea
//!   (Fig. 5).
//!
//! Modules:
//! * [`index`] — [`index::IndexBuilder`] / [`index::SegmentIndex`]: postings
//!   lists, unit statistics, top-n retrieval (bounded-heap selection over
//!   reusable [`index::ScoreScratch`] accumulators, plus per-owner
//!   aggregation for Algorithm 1).
//! * [`weighting`] — the weight and IDF formulas, exposed separately for
//!   tests and experiments.

pub mod codec;
pub mod delta;
pub mod flat;
pub mod index;
pub mod weighting;

pub use codec::{DecodeError, DecodeLocation, Emit, Reader, Writer};
pub use delta::{DeltaIndex, DeltaUnit};
pub use flat::{encode_flat, FlatIndexView};
pub use index::{
    DocFilter, IndexAudit, IndexBuilder, Posting, ScanCosts, ScoreScratch, SegmentIndex, UnitId,
    WeightingScheme,
};
pub use weighting::{log_tf, probabilistic_idf};
