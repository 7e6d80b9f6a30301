//! The dynamic finite-state machine (paper §5).
//!
//! `GenState` tracks a partially generated statement and, at every step,
//! computes the set of tokens that keep the statement syntactically and
//! semantically valid ("the FSM masks the actions", §3.2). The FSM is built
//! on the fly ("Dynamic FSM construction"): allowed edges are derived from
//! the current clause-state stack, never materialized as a graph.
//!
//! Generation order follows the paper's Example 2: `From → tables → Select →
//! items → Where → predicates → GroupBy/Having → EOF`; the renderer reorders
//! clauses into textual SQL.
//!
//! Nested subqueries push a new `Frame` on a stack (`OpenSub`/`CloseSub`
//! tokens), so the machine is technically a pushdown automaton — exactly
//! what "ideally, subqueries can be generated recursively" (§5 case 2)
//! requires.

use crate::config::FsmConfig;
use crate::vocab::{Token, VocabEdge, Vocabulary};
use sqlgen_engine::{
    AggFunc, CmpOp, DeleteStmt, FromClause, HavingClause, InsertSource, InsertStmt, Join,
    Predicate, Rhs, SelectItem, SelectQuery, Statement, StatementKind, UpdateStmt,
};
use sqlgen_storage::{DataType, Value};
use std::cell::RefCell;
use std::fmt;

thread_local! {
    /// Reused id buffer for [`GenState::mask_into`]: the batched rollout
    /// engines call it once per lane per step, so the `allowed` set must
    /// not allocate on the hot path.
    static ALLOWED_SCRATCH: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Errors from applying a token the FSM did not offer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsmError {
    pub message: String,
}

impl fmt::Display for FsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FSM error: {}", self.message)
    }
}

impl std::error::Error for FsmError {}

/// Pending boolean connective while building a predicate chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Conj {
    And,
    Or,
}

/// What kind of subquery the frame below is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SubKind {
    /// `col IN (SELECT ...)` — inner select must be one compatible column.
    In { outer_col: u32 },
    /// `col op (SELECT agg(...))` — inner select must be a scalar aggregate.
    Scalar,
    /// `EXISTS (SELECT ...)`.
    Exists,
}

/// Generation phase within the current frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Start,
    FromTable,
    AfterTable,
    JoinTable,
    SelectItem,
    AggCol(AggFunc),
    AfterItem,
    PredCol,
    PredOp,
    PredRhs,
    PredLikeRhs,
    SubOpen,
    AfterPred,
    GroupByCol,
    AfterGroupBy,
    HavingAgg,
    HavingCol(AggFunc),
    HavingOp,
    HavingRhs,
    AfterHaving,
    OrderCol,
    AfterOrder,
    // DML phases (root frame only).
    InsertTable,
    InsertValuesKw,
    InsertValues,
    AfterInsert,
    UpdateTable,
    SetKw,
    SetCol,
    SetVal(u32),
    AfterSet,
    DeleteTable,
    AfterDelete,
    Done,
}

/// In-progress predicate chain.
#[derive(Debug, Clone, Default)]
struct PredBuilder {
    done: Option<Predicate>,
    conj: Option<Conj>,
    negate: bool,
    col: Option<u32>,
    op: Option<CmpOp>,
    atoms: usize,
}

impl PredBuilder {
    fn push_atom(&mut self, atom: Predicate) {
        let atom = if self.negate {
            Predicate::Not(Box::new(atom))
        } else {
            atom
        };
        self.done = Some(match (self.done.take(), self.conj) {
            (None, _) => atom,
            (Some(prev), Some(Conj::And)) => prev.and(atom),
            (Some(prev), Some(Conj::Or)) => prev.or(atom),
            (Some(_), None) => unreachable!("second atom without connective"),
        });
        self.negate = false;
        self.conj = None;
        self.col = None;
        self.op = None;
        self.atoms += 1;
    }
}

/// One SELECT under construction (the root, or a nested subquery).
#[derive(Debug, Clone)]
struct Frame {
    phase: Phase,
    /// What the *parent* frame will do with this frame's query.
    sub: Option<SubKind>,
    base: Option<u32>,
    scope: Vec<u32>,
    joins: Vec<VocabEdge>,
    select: Vec<(Option<AggFunc>, u32)>,
    pred: PredBuilder,
    /// Set while this frame waits for a child subquery to complete.
    pending_sub: Option<SubKind>,
    group_by: Vec<u32>,
    having_agg: Option<AggFunc>,
    having_col: Option<u32>,
    having_op: Option<CmpOp>,
    having: Option<HavingClause>,
    /// `(column, desc)` ORDER BY keys (generated only when
    /// `FsmConfig::allow_order_by` is set).
    order_by: Vec<(u32, bool)>,
}

impl Frame {
    fn new(sub: Option<SubKind>) -> Self {
        Frame {
            phase: Phase::Start,
            sub,
            base: None,
            scope: Vec::new(),
            joins: Vec::new(),
            select: Vec::new(),
            pred: PredBuilder::default(),
            pending_sub: None,
            group_by: Vec::new(),
            having_agg: None,
            having_col: None,
            having_op: None,
            having: None,
            order_by: Vec::new(),
        }
    }

    fn has_agg_item(&self) -> bool {
        self.select.iter().any(|(a, _)| a.is_some())
    }

    fn has_plain_item(&self) -> bool {
        self.select.iter().any(|(a, _)| a.is_none())
    }

    /// Mixed aggregate/plain SELECT lists require a GROUP BY before the
    /// query may terminate.
    fn needs_group_by(&self) -> bool {
        self.has_agg_item() && self.has_plain_item() && self.group_by.is_empty()
    }

    /// Plain select columns not yet covered by GROUP BY (must be grouped
    /// before Having/EOF once grouping started).
    fn ungrouped_plain_cols(&self) -> Vec<u32> {
        self.select
            .iter()
            .filter(|(a, _)| a.is_none())
            .map(|(_, c)| *c)
            .filter(|c| !self.group_by.contains(c))
            .collect()
    }
}

/// The FSM over a partially generated statement.
#[derive(Debug, Clone)]
pub struct GenState<'v> {
    vocab: &'v Vocabulary,
    config: FsmConfig,
    kind: Option<StatementKind>,
    frames: Vec<Frame>,
    // DML state (root level).
    dml_table: Option<u32>,
    insert_values: Vec<Value>,
    insert_next_col: usize,
    update_sets: Vec<(u32, Value)>,
    tokens: Vec<usize>,
    finished: Option<Statement>,
}

impl<'v> GenState<'v> {
    pub fn new(vocab: &'v Vocabulary, config: FsmConfig) -> Self {
        GenState {
            vocab,
            config,
            kind: None,
            frames: vec![Frame::new(None)],
            dml_table: None,
            insert_values: Vec::new(),
            insert_next_col: 0,
            update_sets: Vec::new(),
            tokens: Vec::new(),
            finished: None,
        }
    }

    pub fn vocab(&self) -> &Vocabulary {
        self.vocab
    }

    pub fn config(&self) -> &FsmConfig {
        &self.config
    }

    /// Tokens emitted so far.
    pub fn tokens(&self) -> &[usize] {
        &self.tokens
    }

    pub fn is_complete(&self) -> bool {
        self.finished.is_some()
    }

    /// The finished statement once `Eof` has been applied.
    pub fn statement(&self) -> Option<&Statement> {
        self.finished.as_ref()
    }

    fn frame(&self) -> &Frame {
        self.frames.last().expect("frame stack never empty")
    }

    fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("frame stack never empty")
    }

    fn nesting_ok(&self) -> bool {
        self.frames.len() - 1 < self.config.max_subquery_depth
    }

    /// Tables whose every column has at least one sampled value
    /// (INSERT targets).
    fn insertable_tables(&self) -> Vec<u32> {
        (0..self.vocab.tables.len() as u32)
            .filter(|&t| {
                let cols = &self.vocab.table_columns[t as usize];
                !cols.is_empty()
                    && cols
                        .iter()
                        .all(|&c| !self.vocab.value_tokens_of(c).is_empty())
            })
            .collect()
    }

    /// Tables with at least one column that has sampled values
    /// (UPDATE targets / predicate-capable tables).
    fn updatable_tables(&self) -> Vec<u32> {
        (0..self.vocab.tables.len() as u32)
            .filter(|&t| {
                self.vocab.table_columns[t as usize]
                    .iter()
                    .any(|&c| !self.vocab.value_tokens_of(c).is_empty())
            })
            .collect()
    }

    /// Columns in the current frame's scope.
    fn scope_columns(&self) -> Vec<u32> {
        self.frame()
            .scope
            .iter()
            .flat_map(|&t| self.vocab.table_columns[t as usize].iter().copied())
            .collect()
    }

    fn col_type(&self, col: u32) -> DataType {
        self.vocab.columns[col as usize].dtype
    }

    fn types_compatible(a: DataType, b: DataType) -> bool {
        a == b || (a.is_numeric() && b.is_numeric())
    }

    /// Operators valid for a column type. The paper supports `{=, >, <}` for
    /// strings and the full set for numerics.
    fn ops_for(&self, col: u32) -> Vec<CmpOp> {
        if self.col_type(col).is_numeric() {
            CmpOp::ALL.to_vec()
        } else {
            vec![CmpOp::Eq, CmpOp::Gt, CmpOp::Lt]
        }
    }

    /// Whether some table (for an IN subquery's inner select) has a column
    /// type-compatible with `col`.
    fn in_subquery_possible(&self, col: u32) -> bool {
        let t = self.col_type(col);
        self.vocab
            .columns
            .iter()
            .any(|c| Self::types_compatible(c.dtype, t))
    }

    /// The allowed next tokens (the unmasked action set).
    /// Admissible token ids. Allocating wrapper over
    /// [`GenState::allowed_into`].
    pub fn allowed(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.allowed_into(&mut out);
        out
    }

    /// Writes the admissible token ids into `out` (cleared first). The
    /// batched mask path calls this once per lane per step with a reused
    /// buffer, keeping the hot loop allocation-free.
    pub fn allowed_into(&self, out: &mut Vec<usize>) {
        out.clear();
        let v = self.vocab;
        let frame = self.frame();
        fn add(out: &mut Vec<usize>, v: &Vocabulary, t: Token) {
            out.push(v.id(&t));
        }

        match frame.phase {
            Phase::Done => {}
            Phase::Start => {
                if self.frames.len() > 1 {
                    // Subqueries always start with FROM.
                    add(out, v, Token::From);
                } else {
                    if self.config.allows(StatementKind::Select) {
                        add(out, v, Token::From);
                    }
                    if self.config.allows(StatementKind::Insert)
                        && !self.insertable_tables().is_empty()
                    {
                        add(out, v, Token::InsertInto);
                    }
                    if self.config.allows(StatementKind::Update)
                        && !self.updatable_tables().is_empty()
                    {
                        add(out, v, Token::Update);
                    }
                    if self.config.allows(StatementKind::Delete) && !v.tables.is_empty() {
                        add(out, v, Token::DeleteFrom);
                    }
                }
            }
            Phase::FromTable => {
                for t in 0..v.tables.len() as u32 {
                    let ok = match frame.sub {
                        Some(SubKind::In { outer_col }) => {
                            let ot = self.col_type(outer_col);
                            v.table_columns[t as usize]
                                .iter()
                                .any(|&c| Self::types_compatible(self.col_type(c), ot))
                        }
                        Some(SubKind::Scalar) => v.table_columns[t as usize]
                            .iter()
                            .any(|&c| self.col_type(c).is_numeric()),
                        _ => true,
                    };
                    if ok {
                        add(out, v, Token::Table(t));
                    }
                }
            }
            Phase::AfterTable => {
                if frame.joins.len() < self.config.max_joins && !self.joinable_tables().is_empty() {
                    add(out, v, Token::Join);
                }
                add(out, v, Token::Select);
            }
            Phase::JoinTable => {
                for t in self.joinable_tables() {
                    add(out, v, Token::Table(t));
                }
            }
            Phase::SelectItem => self.select_item_tokens(out),
            Phase::AggCol(f) => {
                for c in self.scope_columns() {
                    if !f.requires_numeric() || self.col_type(c).is_numeric() {
                        out.push(v.id(&Token::Column(c)));
                    }
                }
            }
            Phase::AfterItem => {
                match frame.sub {
                    Some(SubKind::In { .. }) | Some(SubKind::Scalar) => {
                        // Exactly one select item in these subqueries.
                        add(out, v, Token::Where);
                        add(out, v, Token::CloseSub);
                    }
                    _ => {
                        if frame.select.len() < self.config.max_select_items {
                            self.select_item_tokens(out);
                        }
                        add(out, v, Token::Where);
                        if self.group_by_available() {
                            add(out, v, Token::GroupBy);
                        }
                        self.push_order_by(out);
                        self.push_terminator(out);
                    }
                }
            }
            Phase::PredCol => {
                if !frame.pred.negate {
                    add(out, v, Token::Not);
                }
                if self.nesting_ok() && frame.sub.is_none() {
                    // EXISTS only at the outermost predicate level to bound
                    // depth bookkeeping (nested EXISTS inside subqueries adds
                    // little coverage).
                    add(out, v, Token::Exists);
                }
                for c in self.scope_columns() {
                    let has_values = !v.value_tokens_of(c).is_empty();
                    let can_nest = self.nesting_ok()
                        && (self.col_type(c).is_numeric() || self.in_subquery_possible(c));
                    if has_values || can_nest {
                        out.push(v.id(&Token::Column(c)));
                    }
                }
            }
            Phase::PredOp => {
                let col = frame.pred.col.expect("PredOp requires column");
                let has_values = !v.value_tokens_of(col).is_empty();
                let scalar_possible = self.nesting_ok() && self.col_type(col).is_numeric();
                if has_values || scalar_possible {
                    for op in self.ops_for(col) {
                        add(out, v, Token::Op(op));
                    }
                }
                if self.nesting_ok() && self.in_subquery_possible(col) {
                    add(out, v, Token::In);
                }
                if self.config.allow_like && !v.pattern_tokens_of(col).is_empty() {
                    add(out, v, Token::Like);
                }
            }
            Phase::PredRhs => {
                let col = frame.pred.col.expect("PredRhs requires column");
                for &t in v.value_tokens_of(col) {
                    out.push(t as usize);
                }
                if self.nesting_ok() && self.col_type(col).is_numeric() {
                    add(out, v, Token::OpenSub);
                }
            }
            Phase::PredLikeRhs => {
                let col = frame.pred.col.expect("PredLikeRhs requires column");
                for &t in v.pattern_tokens_of(col) {
                    out.push(t as usize);
                }
            }
            Phase::SubOpen => add(out, v, Token::OpenSub),
            Phase::AfterPred => {
                if frame.pred.atoms < self.config.max_predicates {
                    add(out, v, Token::And);
                    add(out, v, Token::Or);
                }
                if self.kind == Some(StatementKind::Select) || self.frames.len() > 1 {
                    if self.group_by_available() {
                        add(out, v, Token::GroupBy);
                    }
                    self.push_order_by(out);
                }
                self.push_terminator(out);
            }
            Phase::GroupByCol | Phase::AfterGroupBy => {
                let needed = frame.ungrouped_plain_cols();
                if !needed.is_empty() {
                    for c in needed {
                        out.push(v.id(&Token::Column(c)));
                    }
                } else {
                    if frame.phase == Phase::AfterGroupBy {
                        if frame.group_by.len() < self.config.max_group_by {
                            for c in self.scope_columns() {
                                if !frame.group_by.contains(&c) {
                                    out.push(v.id(&Token::Column(c)));
                                }
                            }
                        }
                        if self.having_available() {
                            add(out, v, Token::Having);
                        }
                        self.push_terminator(out);
                    } else {
                        // GroupByCol with nothing mandatory: any scope column.
                        for c in self.scope_columns() {
                            if !frame.group_by.contains(&c) {
                                out.push(v.id(&Token::Column(c)));
                            }
                        }
                    }
                }
            }
            Phase::HavingAgg => {
                for f in [AggFunc::Max, AggFunc::Min, AggFunc::Sum, AggFunc::Avg] {
                    if self.having_cols().next().is_some() {
                        add(out, v, Token::Agg(f));
                    }
                }
            }
            Phase::HavingCol(_) => {
                for c in self.having_cols() {
                    out.push(v.id(&Token::Column(c)));
                }
            }
            Phase::HavingOp => {
                for op in CmpOp::ALL {
                    add(out, v, Token::Op(op));
                }
            }
            Phase::HavingRhs => {
                let col = frame.having_col.expect("HavingRhs requires column");
                for &t in v.value_tokens_of(col) {
                    out.push(t as usize);
                }
            }
            Phase::AfterHaving => {
                self.push_order_by(out);
                self.push_terminator(out);
            }
            Phase::OrderCol => {
                for c in self.order_by_candidates() {
                    out.push(v.id(&Token::Column(c)));
                }
            }
            Phase::AfterOrder => {
                if let Some((_, desc)) = frame.order_by.last() {
                    if !desc {
                        add(out, v, Token::Desc);
                    }
                }
                self.push_terminator(out);
            }
            Phase::InsertTable => {
                for t in self.insertable_tables() {
                    add(out, v, Token::Table(t));
                }
            }
            Phase::InsertValuesKw => add(out, v, Token::Values),
            Phase::InsertValues => {
                let t = self.dml_table.expect("insert has table");
                let col = self.vocab.table_columns[t as usize][self.insert_next_col];
                for &tok in v.value_tokens_of(col) {
                    out.push(tok as usize);
                }
            }
            Phase::AfterInsert => add(out, v, Token::Eof),
            Phase::UpdateTable => {
                for t in self.updatable_tables() {
                    add(out, v, Token::Table(t));
                }
            }
            Phase::SetKw => add(out, v, Token::Set),
            Phase::SetCol | Phase::AfterSet => {
                let t = self.dml_table.expect("update has table");
                for &c in &self.vocab.table_columns[t as usize] {
                    let already = self.update_sets.iter().any(|(sc, _)| *sc == c);
                    if !already && !v.value_tokens_of(c).is_empty() {
                        out.push(v.id(&Token::Column(c)));
                    }
                }
                if frame.phase == Phase::AfterSet {
                    add(out, v, Token::Where);
                    add(out, v, Token::Eof);
                }
            }
            Phase::SetVal(col) => {
                for &tok in v.value_tokens_of(col) {
                    out.push(tok as usize);
                }
            }
            Phase::DeleteTable => {
                for t in 0..v.tables.len() as u32 {
                    add(out, v, Token::Table(t));
                }
            }
            Phase::AfterDelete => {
                add(out, v, Token::Where);
                add(out, v, Token::Eof);
            }
        }
    }

    /// Writes the action mask for the whole vocabulary.
    pub fn mask_into(&self, mask: &mut [bool]) {
        let _t = sqlgen_obs::obs_time!("fsm.mask.latency_us");
        debug_assert_eq!(mask.len(), self.vocab.size());
        mask.iter_mut().for_each(|m| *m = false);
        ALLOWED_SCRATCH.with(|s| {
            let mut ids = s.borrow_mut();
            self.allowed_into(&mut ids);
            for &id in ids.iter() {
                mask[id] = true;
            }
        });
    }

    /// Writes the action mask into lane `lane` of a row-major
    /// `[batch × vocab]` mask block (the batched-inference layout). The
    /// lane's row is produced exactly as [`GenState::mask_into`] would.
    pub fn mask_into_row(&self, block: &mut [bool], lane: usize) {
        let width = self.vocab.size();
        debug_assert!((lane + 1) * width <= block.len());
        self.mask_into(&mut block[lane * width..(lane + 1) * width]);
    }

    fn select_item_tokens(&self, out: &mut Vec<usize>) {
        let v = self.vocab;
        let frame = self.frame();
        match frame.sub {
            Some(SubKind::In { outer_col }) => {
                let ot = self.col_type(outer_col);
                for c in self.scope_columns() {
                    if Self::types_compatible(self.col_type(c), ot) {
                        out.push(v.id(&Token::Column(c)));
                    }
                }
            }
            Some(SubKind::Scalar) => {
                for f in [AggFunc::Max, AggFunc::Min, AggFunc::Sum, AggFunc::Avg] {
                    if self
                        .scope_columns()
                        .iter()
                        .any(|&c| self.col_type(c).is_numeric())
                    {
                        out.push(v.id(&Token::Agg(f)));
                    }
                }
                // COUNT is always scalar-capable.
                out.push(v.id(&Token::Agg(AggFunc::Count)));
            }
            _ => {
                // EXISTS subqueries cannot GROUP BY (kept SPJ/plain-agg),
                // so mixing aggregate and plain items there would dead-end;
                // once one kind is picked, stick to it.
                let in_exists = frame.sub == Some(SubKind::Exists);
                let allow_plain = !(in_exists && frame.has_agg_item());
                let allow_agg =
                    self.config.allow_aggregation && !(in_exists && frame.has_plain_item());
                if allow_plain {
                    for c in self.scope_columns() {
                        out.push(v.id(&Token::Column(c)));
                    }
                }
                if allow_agg {
                    for f in AggFunc::ALL {
                        let has_col = self
                            .scope_columns()
                            .iter()
                            .any(|&c| !f.requires_numeric() || self.col_type(c).is_numeric());
                        if has_col {
                            out.push(v.id(&Token::Agg(f)));
                        }
                    }
                }
            }
        }
    }

    /// Tables joinable from the current scope: FK-connected and not yet used.
    fn joinable_tables(&self) -> Vec<u32> {
        let frame = self.frame();
        let mut out = Vec::new();
        for &t in &frame.scope {
            for e in self.vocab.edges_from(t) {
                if !frame.scope.contains(&e.right_table) && !out.contains(&e.right_table) {
                    out.push(e.right_table);
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn group_by_available(&self) -> bool {
        if !self.config.allow_aggregation {
            return false;
        }
        let frame = self.frame();
        // Subqueries stay SPJ (one select item; grouping adds nothing).
        if frame.sub.is_some() {
            return false;
        }
        if frame.group_by.len() >= self.config.max_group_by
            && frame.ungrouped_plain_cols().is_empty()
        {
            return false;
        }
        // There must be a groupable column.
        if frame.has_plain_item() {
            true
        } else {
            !self.scope_columns().is_empty()
        }
    }

    fn having_available(&self) -> bool {
        self.having_cols().next().is_some()
    }

    /// Numeric scope columns with sampled values (HAVING operands).
    fn having_cols(&self) -> impl Iterator<Item = u32> + '_ {
        self.scope_columns().into_iter().filter(move |&c| {
            self.col_type(c).is_numeric() && !self.vocab.value_tokens_of(c).is_empty()
        })
    }

    /// Columns eligible as ORDER BY keys: projected plain select columns
    /// not yet used as keys.
    fn order_by_candidates(&self) -> Vec<u32> {
        let frame = self.frame();
        frame
            .select
            .iter()
            .filter(|(agg, _)| agg.is_none())
            .map(|&(_, c)| c)
            .filter(|c| !frame.order_by.iter().any(|(oc, _)| oc == c))
            .collect()
    }

    fn push_order_by(&self, out: &mut Vec<usize>) {
        let frame = self.frame();
        if self.config.allow_order_by
            && self.kind == Some(StatementKind::Select)
            && self.frames.len() == 1 // root query only
            && frame.order_by.is_empty()
            && !frame.needs_group_by()
            && !self.order_by_candidates().is_empty()
        {
            out.push(self.vocab.id(&Token::OrderBy));
        }
    }

    fn push_terminator(&self, out: &mut Vec<usize>) {
        let frame = self.frame();
        if frame.needs_group_by() {
            return; // must group before terminating
        }
        if self.frames.len() > 1 {
            out.push(self.vocab.id(&Token::CloseSub));
        } else {
            out.push(self.vocab.id(&Token::Eof));
        }
    }

    /// Applies a token. Returns an error if the token is not allowed.
    pub fn apply(&mut self, token_id: usize) -> Result<(), FsmError> {
        if !self.allowed().contains(&token_id) {
            sqlgen_obs::obs_count!("fsm.rejected.count");
            return Err(FsmError {
                message: format!(
                    "token {} not allowed in phase {:?}",
                    self.vocab.describe(token_id),
                    self.frame().phase
                ),
            });
        }
        sqlgen_obs::obs_count!("fsm.tokens.count");
        let token = self.vocab.token(token_id).clone();
        self.tokens.push(token_id);
        self.apply_inner(token);
        Ok(())
    }

    fn apply_inner(&mut self, token: Token) {
        let phase = self.frame().phase;
        match (phase, token) {
            (Phase::Start, Token::From) => {
                if self.frames.len() == 1 {
                    self.kind = Some(StatementKind::Select);
                }
                self.frame_mut().phase = Phase::FromTable;
            }
            (Phase::Start, Token::InsertInto) => {
                self.kind = Some(StatementKind::Insert);
                self.frame_mut().phase = Phase::InsertTable;
            }
            (Phase::Start, Token::Update) => {
                self.kind = Some(StatementKind::Update);
                self.frame_mut().phase = Phase::UpdateTable;
            }
            (Phase::Start, Token::DeleteFrom) => {
                self.kind = Some(StatementKind::Delete);
                self.frame_mut().phase = Phase::DeleteTable;
            }
            (Phase::FromTable, Token::Table(t)) => {
                let f = self.frame_mut();
                f.base = Some(t);
                f.scope.push(t);
                f.phase = Phase::AfterTable;
            }
            (Phase::AfterTable, Token::Join) => self.frame_mut().phase = Phase::JoinTable,
            (Phase::AfterTable, Token::Select) => self.frame_mut().phase = Phase::SelectItem,
            (Phase::JoinTable, Token::Table(t)) => {
                let edge = {
                    let frame = self.frame();
                    frame
                        .scope
                        .iter()
                        .find_map(|&s| {
                            self.vocab
                                .edges_from(s)
                                .find(|e| e.right_table == t)
                                .cloned()
                        })
                        .expect("joinable table has an edge")
                };
                let f = self.frame_mut();
                f.joins.push(edge);
                f.scope.push(t);
                f.phase = Phase::AfterTable;
            }
            (Phase::SelectItem | Phase::AfterItem, Token::Column(c)) => {
                let f = self.frame_mut();
                f.select.push((None, c));
                f.phase = Phase::AfterItem;
            }
            (Phase::SelectItem | Phase::AfterItem, Token::Agg(a)) => {
                self.frame_mut().phase = Phase::AggCol(a);
            }
            (Phase::AggCol(a), Token::Column(c)) => {
                let f = self.frame_mut();
                f.select.push((Some(a), c));
                f.phase = Phase::AfterItem;
            }
            (Phase::AfterItem | Phase::AfterDelete | Phase::AfterSet, Token::Where) => {
                self.frame_mut().phase = Phase::PredCol;
            }
            (Phase::PredCol, Token::Not) => self.frame_mut().pred.negate = true,
            (Phase::PredCol, Token::Exists) => {
                let f = self.frame_mut();
                f.pending_sub = Some(SubKind::Exists);
                f.phase = Phase::SubOpen;
            }
            (Phase::PredCol, Token::Column(c)) => {
                let f = self.frame_mut();
                f.pred.col = Some(c);
                f.phase = Phase::PredOp;
            }
            (Phase::PredOp, Token::Op(op)) => {
                let f = self.frame_mut();
                f.pred.op = Some(op);
                f.phase = Phase::PredRhs;
            }
            (Phase::PredOp, Token::Like) => {
                self.frame_mut().phase = Phase::PredLikeRhs;
            }
            (Phase::PredLikeRhs, Token::Pattern(p)) => {
                let pattern = self.vocab.like_patterns[p as usize].1.clone();
                let col = self.frame().pred.col.expect("like requires column");
                let atom = Predicate::Like {
                    col: self.vocab.col_ref(col),
                    pattern,
                };
                let f = self.frame_mut();
                f.pred.push_atom(atom);
                f.phase = Phase::AfterPred;
            }
            (Phase::PredOp, Token::In) => {
                let f = self.frame_mut();
                let col = f.pred.col.expect("In requires column");
                f.pending_sub = Some(SubKind::In { outer_col: col });
                f.phase = Phase::SubOpen;
            }
            (Phase::PredRhs, Token::Value(v)) => {
                let value = self.vocab.values[v as usize].1.clone();
                let col = self.frame().pred.col.expect("rhs requires column");
                let op = self.frame().pred.op.expect("rhs requires op");
                let atom = Predicate::Cmp {
                    col: self.vocab.col_ref(col),
                    op,
                    rhs: Rhs::Value(value),
                };
                let f = self.frame_mut();
                f.pred.push_atom(atom);
                f.phase = Phase::AfterPred;
            }
            (Phase::PredRhs, Token::OpenSub) => {
                self.frame_mut().pending_sub = Some(SubKind::Scalar);
                let sub = Some(SubKind::Scalar);
                self.frames.push(Frame::new(sub));
            }
            (Phase::SubOpen, Token::OpenSub) => {
                let sub = self.frame().pending_sub;
                self.frames.push(Frame::new(sub));
            }
            (Phase::AfterPred, Token::And) => {
                let f = self.frame_mut();
                f.pred.conj = Some(Conj::And);
                f.phase = Phase::PredCol;
            }
            (Phase::AfterPred, Token::Or) => {
                let f = self.frame_mut();
                f.pred.conj = Some(Conj::Or);
                f.phase = Phase::PredCol;
            }
            (Phase::AfterItem | Phase::AfterPred, Token::GroupBy) => {
                self.frame_mut().phase = Phase::GroupByCol;
            }
            (Phase::GroupByCol | Phase::AfterGroupBy, Token::Column(c)) => {
                let f = self.frame_mut();
                f.group_by.push(c);
                f.phase = Phase::AfterGroupBy;
            }
            (Phase::AfterGroupBy, Token::Having) => self.frame_mut().phase = Phase::HavingAgg,
            (Phase::HavingAgg, Token::Agg(a)) => {
                let f = self.frame_mut();
                f.having_agg = Some(a);
                f.phase = Phase::HavingCol(a);
            }
            (Phase::HavingCol(_), Token::Column(c)) => {
                let f = self.frame_mut();
                f.having_col = Some(c);
                f.phase = Phase::HavingOp;
            }
            (Phase::HavingOp, Token::Op(op)) => {
                let f = self.frame_mut();
                f.having_op = Some(op);
                f.phase = Phase::HavingRhs;
            }
            (Phase::HavingRhs, Token::Value(v)) => {
                let value = self.vocab.values[v as usize].1.clone();
                let col_ref = {
                    let f = self.frame();
                    self.vocab.col_ref(f.having_col.expect("having column"))
                };
                let f = self.frame_mut();
                f.having = Some(HavingClause {
                    agg: f.having_agg.expect("having agg"),
                    col: col_ref,
                    op: f.having_op.expect("having op"),
                    rhs: Rhs::Value(value),
                });
                f.phase = Phase::AfterHaving;
            }
            (
                Phase::AfterItem | Phase::AfterPred | Phase::AfterGroupBy | Phase::AfterHaving,
                Token::CloseSub,
            ) => self.close_subquery(),
            (Phase::AfterItem | Phase::AfterPred | Phase::AfterHaving, Token::OrderBy) => {
                self.frame_mut().phase = Phase::OrderCol;
            }
            (Phase::OrderCol, Token::Column(c)) => {
                let f = self.frame_mut();
                f.order_by.push((c, false));
                f.phase = Phase::AfterOrder;
            }
            (Phase::AfterOrder, Token::Desc) => {
                let f = self.frame_mut();
                f.order_by.last_mut().expect("key just pushed").1 = true;
                // DESC terminates the key; only EOF remains.
                f.phase = Phase::AfterOrder;
            }
            (_, Token::Eof) => {
                let stmt = self.build_statement();
                self.frame_mut().phase = Phase::Done;
                self.finished = Some(stmt);
            }
            // DML.
            (Phase::InsertTable, Token::Table(t)) => {
                self.dml_table = Some(t);
                self.frame_mut().phase = Phase::InsertValuesKw;
            }
            (Phase::InsertValuesKw, Token::Values) => {
                self.frame_mut().phase = Phase::InsertValues;
            }
            (Phase::InsertValues, Token::Value(v)) => {
                let value = self.vocab.values[v as usize].1.clone();
                self.insert_values.push(value);
                self.insert_next_col += 1;
                let t = self.dml_table.expect("insert table");
                if self.insert_next_col == self.vocab.table_columns[t as usize].len() {
                    self.frame_mut().phase = Phase::AfterInsert;
                }
            }
            (Phase::UpdateTable, Token::Table(t)) => {
                self.dml_table = Some(t);
                let f = self.frame_mut();
                f.scope.push(t);
                f.phase = Phase::SetKw;
            }
            (Phase::SetKw, Token::Set) => self.frame_mut().phase = Phase::SetCol,
            (Phase::SetCol | Phase::AfterSet, Token::Column(c)) => {
                self.frame_mut().phase = Phase::SetVal(c);
            }
            (Phase::SetVal(c), Token::Value(v)) => {
                let value = self.vocab.values[v as usize].1.clone();
                self.update_sets.push((c, value));
                self.frame_mut().phase = Phase::AfterSet;
            }
            (Phase::DeleteTable, Token::Table(t)) => {
                self.dml_table = Some(t);
                let f = self.frame_mut();
                f.scope.push(t);
                f.phase = Phase::AfterDelete;
            }
            (phase, token) => unreachable!("allowed() offered {token:?} in phase {phase:?}"),
        }
    }

    /// Pops a completed subquery frame and attaches it to the parent's
    /// pending predicate atom.
    fn close_subquery(&mut self) {
        let frame = self.frames.pop().expect("subquery frame");
        let sub = frame.sub.expect("popped frame is a subquery");
        let query = self.build_select_from(&frame);
        let atom = match sub {
            SubKind::In { outer_col } => Predicate::In {
                col: self.vocab.col_ref(outer_col),
                sub: Box::new(query),
            },
            SubKind::Scalar => {
                let col = self.frame().pred.col.expect("scalar sub has lhs col");
                let op = self.frame().pred.op.expect("scalar sub has op");
                Predicate::Cmp {
                    col: self.vocab.col_ref(col),
                    op,
                    rhs: Rhs::Subquery(Box::new(query)),
                }
            }
            SubKind::Exists => Predicate::Exists {
                sub: Box::new(query),
            },
        };
        let parent = self.frame_mut();
        parent.pending_sub = None;
        parent.pred.push_atom(atom);
        parent.phase = Phase::AfterPred;
    }

    /// Builds the complete statement at `Eof`.
    fn build_statement(&self) -> Statement {
        match self.kind.expect("Eof implies a statement kind") {
            StatementKind::Select => Statement::Select(self.build_select_from(self.frame())),
            StatementKind::Insert => Statement::Insert(InsertStmt {
                table: self
                    .vocab
                    .table_name(self.dml_table.expect("insert table"))
                    .to_string(),
                source: InsertSource::Values(self.insert_values.clone()),
            }),
            StatementKind::Update => Statement::Update(UpdateStmt {
                table: self
                    .vocab
                    .table_name(self.dml_table.expect("update table"))
                    .to_string(),
                sets: self
                    .update_sets
                    .iter()
                    .map(|(c, v)| (self.vocab.column_name(*c).to_string(), v.clone()))
                    .collect(),
                predicate: self.frame().pred.done.clone(),
            }),
            StatementKind::Delete => Statement::Delete(DeleteStmt {
                table: self
                    .vocab
                    .table_name(self.dml_table.expect("delete table"))
                    .to_string(),
                predicate: self.frame().pred.done.clone(),
            }),
        }
    }

    fn build_select_from(&self, frame: &Frame) -> SelectQuery {
        let base = self
            .vocab
            .table_name(frame.base.expect("select has base table"))
            .to_string();
        let joins = frame
            .joins
            .iter()
            .map(|e| Join {
                table: self.vocab.table_name(e.right_table).to_string(),
                left: self.vocab.col_ref(e.left_column),
                right: self.vocab.col_ref(e.right_column),
            })
            .collect();
        let select = frame
            .select
            .iter()
            .map(|(agg, c)| match agg {
                Some(f) => SelectItem::Agg(*f, self.vocab.col_ref(*c)),
                None => SelectItem::Column(self.vocab.col_ref(*c)),
            })
            .collect();
        SelectQuery {
            from: FromClause { base, joins },
            select,
            predicate: frame.pred.done.clone(),
            group_by: frame
                .group_by
                .iter()
                .map(|&c| self.vocab.col_ref(c))
                .collect(),
            having: frame.having.clone(),
            order_by: frame
                .order_by
                .iter()
                .map(|&(c, desc)| sqlgen_engine::OrderBy {
                    col: self.vocab.col_ref(c),
                    desc,
                })
                .collect(),
        }
    }

    /// The statement as-executable-so-far (paper: partial queries at clause
    /// boundaries are executed for intermediate rewards), or `None` when the
    /// current prefix is not a well-formed statement.
    pub fn partial_statement(&self) -> Option<Statement> {
        if let Some(s) = &self.finished {
            return Some(s.clone());
        }
        if self.frames.len() != 1 {
            return None; // an open subquery means an incomplete predicate
        }
        let frame = self.frame();
        match frame.phase {
            Phase::AfterItem | Phase::AfterPred | Phase::AfterOrder => {
                if self.kind == Some(StatementKind::Select) {
                    if frame.needs_group_by() {
                        return None;
                    }
                    Some(Statement::Select(self.build_select_from(frame)))
                } else {
                    // DML WHERE boundary.
                    Some(self.build_dml_partial())
                }
            }
            Phase::AfterGroupBy => {
                if frame.ungrouped_plain_cols().is_empty() {
                    Some(Statement::Select(self.build_select_from(frame)))
                } else {
                    None
                }
            }
            Phase::AfterHaving => Some(Statement::Select(self.build_select_from(frame))),
            Phase::AfterInsert => Some(self.build_statement()),
            Phase::AfterSet | Phase::AfterDelete => Some(self.build_dml_partial()),
            _ => None,
        }
    }

    fn build_dml_partial(&self) -> Statement {
        match self.kind.expect("DML kind set") {
            StatementKind::Update => Statement::Update(UpdateStmt {
                table: self
                    .vocab
                    .table_name(self.dml_table.expect("table"))
                    .to_string(),
                sets: self
                    .update_sets
                    .iter()
                    .map(|(c, v)| (self.vocab.column_name(*c).to_string(), v.clone()))
                    .collect(),
                predicate: self.frame().pred.done.clone(),
            }),
            StatementKind::Delete => Statement::Delete(DeleteStmt {
                table: self
                    .vocab
                    .table_name(self.dml_table.expect("table"))
                    .to_string(),
                predicate: self.frame().pred.done.clone(),
            }),
            other => {
                debug_assert!(false, "unexpected DML partial for {other:?}");
                self.build_statement()
            }
        }
    }
}
