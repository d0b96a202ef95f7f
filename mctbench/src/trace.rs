//! The in-process replay: the calls `handle_query` and `handle_update`
//! make, in the same order, on the server's own `AppState`, with a span
//! around each call into a layer.
//!
//! The replay is generic over a [`Tracer`]. [`NoTrace`] compiles the
//! spans away, which gives the untraced in-process run that the
//! tracing overhead is measured against; [`Spans`] records every span.
//! Time inside a request that no top-level span covers is kept as
//! "other", so the per-layer split adds up to the request time.

use crate::stats::Samples;
use mct_core::StoredDb;
use mct_query::plan::plan_path;
use mct_query::{execute_update_with, parse_query, parse_update, AnalyzeReport, CancelToken, Expr};
use mct_server::{render_xml, rows_from_tuples, AppState, Prepared};
use mct_storage::DiskManager;
use std::sync::{Arc, PoisonError};
use std::time::Instant;

/// A call into one layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Waiting for the `AppState.db` read lock.
    ReadWait,
    /// `PlanCache::lookup`.
    CacheLookup,
    /// `parse_query` / `parse_update`.
    Parse,
    /// `plan_path`.
    Plan,
    /// `PlanCache::insert`.
    CacheInsert,
    /// `PathPlan::execute_shared_analyze`.
    Exec,
    /// `AnalyzeReport::render`, the tree kept for the slow-query log.
    Analyze,
    /// `rows_from_tuples` + `render_xml`.
    Render,
    /// Waiting for the write lock.
    WriteWait,
    /// Holding the write lock (encloses [`Layer::Update`]).
    WriteHold,
    /// `execute_update_with` + `ensure_all_annotated`.
    Update,
}

const LAYERS: usize = 11;

/// Receives the spans of a replay.
pub trait Tracer {
    fn start(&mut self) -> Option<Instant>;
    fn end(&mut self, layer: Layer, mark: Option<Instant>);
    fn begin_request(&mut self) {}
    fn end_request(&mut self) {}
    fn cache_hit(&mut self, _hit: bool) {}
    fn exec_report(&mut self, _report: &AnalyzeReport) {}
    fn rendered(&mut self, _rows: usize, _bytes: usize) {}
}

/// Records nothing.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn start(&mut self) -> Option<Instant> {
        None
    }
    #[inline(always)]
    fn end(&mut self, _layer: Layer, _mark: Option<Instant>) {}
}

/// Plan-stage kinds, by the label prefix `EXPLAIN` gives them.
pub const STAGES: [(&str, &str); 5] = [
    ("entry", "content-index entry"),
    ("chain", "holistic chain join"),
    ("crosstree", "cross-tree join"),
    ("parent", "parent step"),
    ("dupelim", "duplicate elimination"),
];

/// Everything one traced replay recorded.
#[derive(Default)]
pub struct Spans {
    pub layers: [Samples; LAYERS],
    /// In-process request time, per request.
    pub requests: Samples,
    /// Request time no top-level span covered, per request.
    pub other: Samples,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Self time per stage kind (ns), in [`STAGES`] order.
    pub stage_ns: [u64; 5],
    pub plans: u64,
    pub rows_out: u64,
    pub pages: u64,
    pub crosstree_pages: u64,
    pub crosstree_rows_in: u64,
    pub rendered_rows: u64,
    pub rendered_bytes: u64,
    depth: u32,
    covered_ns: u64,
    request_start: Option<Instant>,
}

impl Spans {
    pub fn layer(&self, l: Layer) -> &Samples {
        &self.layers[l as usize]
    }

    pub fn merge(&mut self, o: &Spans) {
        for (a, b) in self.layers.iter_mut().zip(&o.layers) {
            a.extend(b);
        }
        self.requests.extend(&o.requests);
        self.other.extend(&o.other);
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        for (a, b) in self.stage_ns.iter_mut().zip(&o.stage_ns) {
            *a += b;
        }
        self.plans += o.plans;
        self.rows_out += o.rows_out;
        self.pages += o.pages;
        self.crosstree_pages += o.crosstree_pages;
        self.crosstree_rows_in += o.crosstree_rows_in;
        self.rendered_rows += o.rendered_rows;
        self.rendered_bytes += o.rendered_bytes;
    }
}

impl Tracer for Spans {
    fn start(&mut self) -> Option<Instant> {
        self.depth += 1;
        Some(Instant::now())
    }

    fn end(&mut self, layer: Layer, mark: Option<Instant>) {
        let ns = mark.map_or(0, |t| t.elapsed().as_nanos() as u64);
        self.layers[layer as usize].push(ns);
        self.depth -= 1;
        if self.depth == 0 {
            self.covered_ns += ns;
        }
    }

    fn begin_request(&mut self) {
        self.covered_ns = 0;
        self.request_start = Some(Instant::now());
    }

    fn end_request(&mut self) {
        let start = self
            .request_start
            .take()
            .expect("end_request after begin_request");
        let total = start.elapsed().as_nanos() as u64;
        self.requests.push(total);
        self.other.push(total.saturating_sub(self.covered_ns));
    }

    fn cache_hit(&mut self, hit: bool) {
        if hit {
            self.cache_hits += 1;
        } else {
            self.cache_misses += 1;
        }
    }

    fn exec_report(&mut self, r: &AnalyzeReport) {
        self.plans += 1;
        self.rows_out += r.rows;
        self.pages += r.pool.hits + r.pool.misses;
        for st in &r.stages {
            let kind = STAGES
                .iter()
                .position(|(_, prefix)| st.label.starts_with(prefix))
                .expect("every plan stage label has a known kind");
            self.stage_ns[kind] += st.elapsed.as_nanos() as u64;
            if STAGES[kind].0 == "crosstree" {
                self.crosstree_pages += st.pool.hits + st.pool.misses;
                self.crosstree_rows_in += st.rows_in;
            }
        }
    }

    fn rendered(&mut self, rows: usize, bytes: usize) {
        self.rendered_rows += rows as u64;
        self.rendered_bytes += bytes as u64;
    }
}

/// `POST /query` for a planner-covered text: the reply body, or why
/// the server would have failed the request.
pub fn query<D: DiskManager, T: Tracer>(
    state: &AppState<D>,
    text: &str,
    tr: &mut T,
) -> Result<String, String> {
    tr.begin_request();
    let out = query_inner(state, text, tr);
    tr.end_request();
    out
}

fn query_inner<D: DiskManager, T: Tracer>(
    state: &AppState<D>,
    text: &str,
    tr: &mut T,
) -> Result<String, String> {
    let cancel = state.cfg.deadline.map(CancelToken::after);
    let t = tr.start();
    let db = state.db.read().unwrap_or_else(PoisonError::into_inner);
    tr.end(Layer::ReadWait, t);
    let generation = db.generation();
    let t = tr.start();
    let cached = state.cache.lookup(text, generation);
    tr.end(Layer::CacheLookup, t);
    tr.cache_hit(cached.is_some());
    let prepared = match cached {
        Some(p) => p,
        None => {
            let t = tr.start();
            let expr = parse_query(text);
            tr.end(Layer::Parse, t);
            let expr = expr.map_err(|e| format!("parse error: {e}"))?;
            let plan = match &expr {
                Expr::Path(p) => {
                    let t = tr.start();
                    let plan = plan_path(&db, p, true);
                    tr.end(Layer::Plan, t);
                    Some(plan.map_err(|e| format!("plan error: {e}"))?)
                }
                _ => None,
            };
            let prepared = Arc::new(Prepared { expr, plan });
            let t = tr.start();
            state.cache.insert(text, generation, Arc::clone(&prepared));
            tr.end(Layer::CacheInsert, t);
            prepared
        }
    };
    let plan = prepared
        .plan
        .as_ref()
        .ok_or_else(|| format!("not planner-covered: {text}"))?;
    let t = tr.start();
    let run = plan.execute_shared_analyze(&db, state.cfg.exec_threads, cancel.as_ref());
    tr.end(Layer::Exec, t);
    let (tuples, report) = run.map_err(|e| format!("execution failed: {e}"))?;
    tr.exec_report(&report);
    let t = tr.start();
    std::hint::black_box(report.render());
    tr.end(Layer::Analyze, t);
    let t = tr.start();
    let body = render_xml(&rows_from_tuples(&db, &tuples));
    tr.end(Layer::Render, t);
    tr.rendered(tuples.len(), body.len());
    Ok(body)
}

/// `POST /update`: the reply body, or why the server would have failed
/// the request.
pub fn update<D: DiskManager, T: Tracer>(
    state: &AppState<D>,
    text: &str,
    tr: &mut T,
) -> Result<String, String> {
    tr.begin_request();
    let out = update_inner(state, text, tr);
    tr.end_request();
    out
}

fn update_inner<D: DiskManager, T: Tracer>(
    state: &AppState<D>,
    text: &str,
    tr: &mut T,
) -> Result<String, String> {
    let t = tr.start();
    let stmt = parse_update(text);
    tr.end(Layer::Parse, t);
    let stmt = stmt.map_err(|e| format!("parse error: {e}"))?;
    let cancel = state.cfg.deadline.map(CancelToken::after);
    let t = tr.start();
    let mut db = state.db.write().unwrap_or_else(PoisonError::into_inner);
    tr.end(Layer::WriteWait, t);
    let hold = tr.start();
    let out = locked_update(&mut db, &stmt, cancel.as_ref(), tr);
    drop(db);
    tr.end(Layer::WriteHold, hold);
    out
}

fn locked_update<D: DiskManager, T: Tracer>(
    db: &mut StoredDb<D>,
    stmt: &mct_query::UpdateStmt,
    cancel: Option<&CancelToken>,
    tr: &mut T,
) -> Result<String, String> {
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return Err("deadline exceeded".to_string());
    }
    let t = tr.start();
    let out = execute_update_with(db, stmt, None)
        .map_err(|e| format!("update error (rolled back): {e}"))
        .and_then(|out| {
            db.ensure_all_annotated()
                .map(|()| out)
                .map_err(|e| format!("annotation failed: {e}"))
        });
    tr.end(Layer::Update, t);
    let out = out?;
    Ok(format!(
        "{{\"tuples\":{},\"elements\":{},\"generation\":{}}}\n",
        out.tuples,
        out.elements,
        db.generation()
    ))
}
