//! Baseline generators the paper compares against (§7.1).
//!
//! * [`random_gen`] — SQLsmith-equivalent: uniform random walks over the
//!   validity FSM, generate-and-filter;
//! * [`template`] — Bruno/Mishra-style template tuning: hill climbing over
//!   predicate values with top-k space pruning;
//! * [`genetic`] — a Bati-style genetic algorithm (related-work \[8\]),
//!   included as an extension baseline.

pub mod genetic;
pub mod random_gen;
pub mod template;

pub use genetic::{GeneticConfig, GeneticGen};
pub use random_gen::RandomGen;
pub use template::{hole_columns, set_holes, visit_statement_values, TemplateGen};
