//! `forum-ingest` — live ingestion for the intention-based matcher.
//!
//! The offline pipeline (`intentmatch`) builds a frozen intention model:
//! segmentations, cluster centroids, and per-cluster indices, persisted as
//! an atomic snapshot. This crate makes that state *live*: posts can be
//! added, updated, and deleted against the frozen model without a rebuild,
//! durably, while queries keep serving.
//!
//! Three layers:
//!
//! * [`wal`] — a length-prefixed, checksummed, fsync'd write-ahead log
//!   beside the snapshot. Writes are durable before they are applied;
//!   recovery replays the valid prefix and tolerates torn tails.
//! * [`live`] — the serving state: a shared frozen [`live::BaseState`]
//!   plus per-cluster [`forum_index::DeltaIndex`] units and tombstones,
//!   wrapped in an immutable [`live::LiveEpoch`] behind an
//!   [`live::EpochHandle`]. Writers publish whole epochs; readers never
//!   see a half-applied batch.
//! * [`ingest`] — the [`ingest::LiveStore`] orchestrating all of it:
//!   open (load snapshot + replay WAL), write (log → apply → publish),
//!   and [`ingest::LiveStore::compact`] (fold the delta into a fresh
//!   snapshot, recomputing TF/IDF statistics, bit-identical to an offline
//!   assembly of the same documents).
//!
//! New posts are segmented with the existing strategy and each segment is
//! assigned to the nearest existing cluster centroid
//! ([`forum_cluster::nearest_centroid`]; optionally gated by
//! [`ingest::IngestConfig::assign_eps`]). Centroids never move — the
//! paper's observation is that intention clusters drift very slowly, so
//! re-grouping is a periodic offline affair, not a per-write one.
//!
//! Observability: the ingestion path records into the process-wide
//! [`forum_obs::Registry`] under the `ingest/*` family — counters
//! `ingest/added`, `ingest/updated`, `ingest/deleted`,
//! `ingest/wal_replayed`, `ingest/wal_bytes`, `ingest/live_queries`,
//! `ingest/noise_segments`, histograms `ingest/wal_append_ns`,
//! `ingest/compact_ns`, and gauges `ingest/epoch`, `ingest/pending_units`.
//! Operational moments (WAL recoveries and truncations, compactions, epoch
//! swaps) additionally land in the process-wide [`forum_obs::EventLog`].
//!
//! A fourth layer, [`serve`], turns a store into an HTTP endpoint: one
//! [`ServeApp`] over a [`serve::Backend`] — the live engine above, its
//! cluster scans fanned out across shards, or a read-only v2 snapshot
//! served straight off disk through [`intentmatch::StoreView`] (lazy
//! section loading, bit-identical rankings). Both answer `POST /query`
//! (optionally with a per-query EXPLAIN trace) through one guard chain,
//! plus the standard telemetry routes (`/metrics` Prometheus exposition,
//! `/healthz`, per-shard `/readyz`, `/snapshot`, `/events`, `/traces`,
//! `/slowlog`) and the SLO routes (`/alerts`, `/series`, `/dashboard`) —
//! see `intentmatch serve [--mapped]`. The offline companion, [`doctor`],
//! audits a store/WAL pair read-only and reports corruption,
//! inconsistency, and drift — see `intentmatch doctor`.

pub mod doctor;
pub mod ingest;
pub mod live;
pub mod serve;
pub mod wal;

pub use doctor::{diagnose, ClusterHealth, DoctorReport};
pub use ingest::{pending_wal_records, wal_path_for, IngestConfig, IngestError, LiveStore};
pub use live::{BaseState, ClusterScan, DeltaDoc, DeltaState, EpochHandle, LiveEpoch};
pub use serve::{
    default_objectives, parse_boards, parse_slo_overrides, Backend, ServeApp, ServeConfig,
    ShardServeApp, ShardServeConfig, DRIFT_DELTA_SERIES, DRIFT_NOISE_SERIES,
};
pub use wal::{Wal, WalError, WalInspection, WalRecord};
