//! Umbrella crate for the MRTS parallel out-of-core mesh generation suite.
//!
//! Re-exports the workspace crates so that examples and integration tests can
//! use a single dependency. See the individual crates for the real APIs:
//! [`mrts`] (the runtime), [`pumg_delaunay`] (the mesher),
//! [`pumg_methods`] (UPDR/NUPDR/PCDM and their out-of-core ports).
//! [`harness`] names the chaos and replay schedules of the tests and the
//! `replay` tool.

#[cfg(debug_assertions)]
pub mod harness;

pub use armci_sim;
pub use mrts;
pub use pumg_delaunay as delaunay;
pub use pumg_geometry as geometry;
pub use pumg_methods as methods;
pub use pumg_quadtree as quadtree;
pub use pumg_schedsim as schedsim;
