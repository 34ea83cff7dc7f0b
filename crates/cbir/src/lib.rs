//! # reach-cbir — content-based image retrieval on ReACH
//!
//! The paper's case study, in two halves that share one pipeline
//! description:
//!
//! **Functional** — a laptop-scale but algorithmically complete CBIR
//! system: a deterministic feature-extraction network ([`features`]),
//! k-means++ clustering ([`kmeans`]), an IVF index with decomposed-distance
//! short-list retrieval and exact rerank ([`ivf`]), top-K selection
//! ([`topk`]), dense linear algebra ([`linalg`]) and synthetic
//! Gaussian-mixture datasets with recall metrics ([`dataset`]).
//!
//! **Timed** — the billion-scale workload descriptor ([`workload`]) and the
//! mapping of the three pipeline stages onto the compute hierarchy
//! ([`pipeline`]), which drive the `reach` machine model to reproduce every
//! figure and table of the paper's evaluation ([`experiments`]).
//!
//! The split mirrors the paper's own method: retrieval *quality* is a
//! property of the algorithms (billion-scale behaviour is extrapolated from
//! the same math at laptop scale), while *performance and energy* come from
//! the cycle-level model fed with the billion-scale geometry.

// `deny`, not `forbid`: the one sanctioned exception is `crate::simd`,
// whose `#[target_feature]` kernels opt back in with a module-local
// `allow` — `tests/lint_hotpath.rs` enforces that no other module does.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod binary;
pub mod cache;
pub mod dataset;
pub mod experiments;
pub mod features;
pub mod fleet;
pub mod ivf;
pub mod kmeans;
pub mod linalg;
pub mod pipeline;
pub mod pq;
pub mod scenarios;
pub mod simd;
pub mod topk;
pub mod traffic;
pub mod workload;

pub use binary::BinaryCoder;
pub use dataset::{Dataset, RecallReport};
pub use features::FeatureNet;
pub use fleet::CbirFleetScenario;
pub use ivf::IvfIndex;
pub use pipeline::{CbirMapping, CbirPipeline};
pub use pq::ProductQuantizer;
pub use scenarios::{blueprint_with, lowered, CbirScenario};
pub use topk::{merge_top_k, top_k};
pub use workload::CbirWorkload;
