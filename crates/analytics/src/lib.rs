//! # reach-analytics — a second case study for the compute hierarchy
//!
//! The paper's introduction motivates ReACH with "common communication-bound
//! analytics workloads" that "scan, join, and summarize large volumes of
//! data", and designs the hierarchy "to enable effective acceleration on
//! *various* application pipelines" — CBIR is the case study, not the scope.
//! This crate exercises that claim on the timing model alone: a query is
//! its row geometry and selectivity, and no engine computes its answer.
//!
//! * [`templates`] — scan / aggregate / probe accelerator kernels for the
//!   on-chip and embedded parts, registered alongside the paper's Table III
//!   registry;
//! * [`co_run`] — multi-tenant co-execution of CBIR and analytics on one
//!   machine, measuring the inter-task interference the GAM bounds;
//! * [`queries`] — timed query descriptors (selectivity, row geometry) and
//!   their deployment on the hierarchy, with experiments comparing host-side
//!   and near-storage execution.
//!
//! The headline behaviour mirrors the IBM-Netezza-style result the paper
//! cites: a selective scan near storage returns only survivors up the
//! hierarchy, so it outruns host-side scanning by roughly the ratio of
//! aggregate SSD bandwidth to the shared host IO interface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod co_run;
pub mod queries;
pub mod templates;

pub use co_run::{co_run_interference_with, CoRunReport};
pub use queries::{AnalyticsPlacement, ScanQuery};
pub use templates::{analytics_blueprint, analytics_registry};
