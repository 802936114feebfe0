//! The experiment functions, one module per family. Each `pub fn(&Args) ->
//! Doc` here is the `run` of one [`EXPERIMENTS`](crate::EXPERIMENTS) row;
//! its doc comment says what it measures and what it guards.

pub mod coll;
pub mod halo;
pub mod job_mix;
pub mod modelcheck;
pub mod offload;
pub mod osu;
pub mod pipeline;
pub mod rank_scale;
pub mod stencil;
pub mod trace;
pub mod vector;
