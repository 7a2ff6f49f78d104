//! Parallel unstructured mesh generation (PUMG) methods.
//!
//! This crate implements the three parallel Delaunay meshing methods the
//! paper uses to evaluate MRTS, each in two forms:
//!
//! | method | in-core baseline | out-of-core MRTS port |
//! |---|---|---|
//! | **UPDR** — uniform parallel Delaunay refinement (block data decomposition, buffer zones, structured communication, global synchronization) | [`updr::updr_incore`] | [`ooc_updr::oupdr_run`] |
//! | **NUPDR** — non-uniform (graded) refinement over a quadtree, master/worker | [`nupdr::nupdr_incore`] | [`ooc_nupdr::onupdr_run`] |
//! | **PCDM** — parallel constrained Delaunay meshing (domain decomposition, conforming subdomain interfaces, fully asynchronous split messages) | [`pcdm::pcdm_incore`] | [`ooc_pcdm::opcdm_run`] |
//!
//! The in-core baselines execute the method logic directly, charging a
//! lightweight cluster timing model ([`common::ClusterSim`]) — they play
//! the role of the paper's native MPI codes, including *failing with
//! [`common::MethodError::OutOfMemory`]* when the mesh no longer fits the
//! aggregate memory (the `n/a` entries of the paper's tables). The MRTS
//! ports run the same method kernels inside message handlers on the
//! runtime's virtual-time engine, where the out-of-core layers keep the
//! footprint within each node's budget.
//!
//! Simplifications relative to the paper's codes are catalogued in
//! `DESIGN.md` (§3): 2-D domains only, a static (sizing-driven) quadtree
//! for NUPDR, and point-set data distribution for UPDR/NUPDR with
//! conformity by Delaunay uniqueness over shared buffer points.

// Handlers run inside the engines: they say why a value cannot be absent
// (`.expect`); tests unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod common;
pub mod domain;
pub mod nupdr;
pub mod ooc_nupdr;
pub mod ooc_pcdm;
pub mod ooc_updr;
pub mod pcdm;
pub mod region;
pub mod updr;

pub use common::{MethodError, MethodResult};
pub use domain::{DomainSpec, SizingSpec, Workload};
