//! Sequential Delaunay triangulation and quality refinement kernel.
//!
//! This crate is the mesher underneath every parallel method in the suite
//! (UPDR, NUPDR, PCDM and their out-of-core MRTS ports). It provides:
//!
//! * [`TriMesh`] — a triangle-based triangulation structure with neighbor
//!   links, constrained-edge flags, and free-list recycling ([`mesh`]),
//! * incremental **Bowyer–Watson** point insertion with exact predicates
//!   ([`insert`]), and remembering-walk point location ([`locate`]),
//! * **constrained** Delaunay: segment insertion by cavity retriangulation
//!   and exterior carving of a PSLG domain ([`cdt`]),
//! * **Ruppert-style quality refinement** with encroached-segment splitting,
//!   circumcenter insertion, pluggable sizing functions and an optional
//!   spatial restriction predicate used by the parallel methods
//!   ([`mod@refine`], [`sizing`]),
//! * a convenience [`builder`] from a PSLG description to a refined mesh,
//! * compact binary (de)serialization of meshes and point sets ([`wire`]) —
//!   the payloads that the out-of-core runtime spills to disk and ships
//!   between nodes.
//!
//! ```
//! use pumg_delaunay::builder::MeshBuilder;
//! use pumg_delaunay::refine::RefineParams;
//!
//! // Mesh the unit square at uniform sizing h = 0.2.
//! let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 1.0, 1.0).build().unwrap();
//! let params = RefineParams::with_uniform_size(0.2);
//! let report = pumg_delaunay::refine::refine(&mut mesh, &params);
//! assert!(report.inserted > 0);
//! assert!(mesh.validate().is_ok());
//! ```

// The kernel runs inside every handler: it says why a value cannot be
// absent (`.expect`); tests unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod builder;
pub mod cdt;
pub mod insert;
pub mod locate;
pub mod mesh;
pub mod refine;
pub mod sizing;
pub mod wire;

pub use builder::MeshBuilder;
pub use mesh::{EdgeRef, TriMesh, VFlags, NO_TRI, NO_VERT};
pub use refine::{refine, refine_since, RefineParams, RefineReport};
pub use sizing::SizingField;
