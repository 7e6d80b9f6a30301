//! SQL engine substrate for LearnedSQLGen.
//!
//! The paper treats the DBMS as the RL environment: it validates queries,
//! estimates their cardinality/cost for the reward, and (optionally)
//! executes them. This crate provides all of that:
//!
//! * [`ast`] — the SQL subset of the paper's Table 1 grammar,
//! * [`mod@render`] — canonical SQL text rendering,
//! * [`mod@parse`] — a round-tripping recursive-descent parser,
//! * [`exec`] — a hash-join executor (ground truth),
//! * [`card`] — a System-R-style cardinality estimator (the reward oracle),
//! * [`cost`] — a PostgreSQL-flavoured cost model,
//! * [`plan`] — EXPLAIN-style annotated logical plans,
//! * [`mod@validate`] — independent semantic checking.

pub mod ast;
pub mod card;
pub mod cost;
pub mod exec;
pub mod parse;
pub mod plan;
pub mod render;
pub mod validate;

pub use ast::{
    AggFunc, CmpOp, ColRef, DeleteStmt, FromClause, HavingClause, InsertSource, InsertStmt, Join,
    OrderBy, Predicate, Rhs, SelectItem, SelectQuery, Statement, StatementKind, UpdateStmt,
};
pub use card::Estimator;
pub use cost::{CostModel, CostParams};
pub use exec::{like_literal, like_match, ExecError, ExecOptions, Executor, ResultSet};
pub use parse::{parse, parse_select, ParseError};
pub use plan::{explain, Explained, PlanNode, PlanOp};
pub use render::{render, render_select};
pub use validate::{validate, validate_select, ValidationError};
