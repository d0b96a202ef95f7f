//! EXPLAIN ANALYZE integration tests against the TPC-W MCT database:
//! the per-operator actuals must agree with the real result
//! cardinality, a warm re-run must hit only the buffer pool, page
//! counts must not pick up concurrent queries' pages, chain predicates
//! must cost one heap page per node the join pushes, and the ANALYZE
//! tree must share the EXPLAIN renderer's shape.

use colorful_xml::core::StoredDb;
use colorful_xml::query::plan::{plan_path, AnalyzeReport, PathPlan};
use colorful_xml::query::Expr;
use colorful_xml::query::{parse_query, Tuple};
use colorful_xml::workloads::{TpcwConfig, TpcwData};

fn data() -> TpcwData {
    TpcwData::generate(&TpcwConfig {
        scale: 0.05,
        seed: 31,
    })
}

fn stored() -> StoredDb {
    StoredDb::build(data().build_mct(), 64 * 1024 * 1024).unwrap()
}

fn planned(s: &StoredDb, text: &str) -> PathPlan {
    let Expr::Path(p) = parse_query(text).unwrap() else {
        panic!("not a path: {text}")
    };
    plan_path(s, &p, true).unwrap_or_else(|e| panic!("{text}: {e}"))
}

/// A TPC-W twig: items of shipped orders' orderlines, crossing from
/// the customer hierarchy into the author hierarchy — exercises the
/// content-index entry, chain join, cross-tree join, and dup-elim.
const TWIG: &str = r#"document("t")/{cust}descendant::order[{cust}child::status = "SHIPPED"]/{cust}child::orderline/{auth}parent::item"#;

#[test]
fn analyze_row_counts_match_actual_cardinality() {
    let mut s = stored();
    let plan = planned(&s, TWIG);
    let expected: Vec<Tuple> = plan.execute(&mut s).unwrap();
    let (tuples, report) = plan.execute_analyze(&mut s).unwrap();
    assert_eq!(tuples, expected, "ANALYZE must not change the result");
    assert!(!tuples.is_empty(), "query should match something");

    assert_eq!(report.rows, tuples.len() as u64);
    assert!(report.stages.len() >= 3, "chain, cross-tree, ..., dup-elim");
    // The last stage's output IS the result cardinality, and rows flow
    // stage to stage: each stage's input is the previous one's output.
    assert_eq!(report.stages.last().unwrap().rows_out, tuples.len() as u64);
    for w in report.stages.windows(2) {
        assert_eq!(w[0].rows_out, w[1].rows_in, "pipeline rows must chain");
    }
    // Totals cover the stages.
    let stage_rows: u64 = report.stages.last().unwrap().rows_out;
    assert_eq!(stage_rows, report.rows);
    assert!(report.total >= report.stages.iter().map(|st| st.elapsed).sum());
}

#[test]
fn analyze_warm_rerun_has_zero_buffer_misses() {
    let mut s = stored();
    let plan = planned(&s, TWIG);
    // Cold-ish first run primes the pool (the pool is large enough to
    // hold the working set).
    let _ = plan.execute_analyze(&mut s).unwrap();
    let (_, warm) = plan.execute_analyze(&mut s).unwrap();
    assert_eq!(warm.pool.misses, 0, "warm re-run must hit the pool only");
    for st in &warm.stages {
        assert_eq!(st.pool.misses, 0, "warm stage missed: {}", st.label);
    }
    assert!(warm.pool.hits > 0, "the probes still touch pages");
}

#[test]
fn analyze_render_shares_the_explain_tree_shape() {
    let mut s = stored();
    let plan = planned(&s, TWIG);
    let explain = plan.explain(&s);
    let (_, report) = plan.execute_analyze(&mut s).unwrap();
    let rendered = report.render();
    // Same stage lines in the same positions with the same stable
    // indentation; ANALYZE only appends per-stage annotations and a
    // totals footer.
    let explain_lines: Vec<&str> = explain.lines().collect();
    let analyze_lines: Vec<&str> = rendered.lines().collect();
    assert_eq!(analyze_lines.len(), explain_lines.len() + 1, "footer only");
    for (e, a) in explain_lines.iter().zip(&analyze_lines) {
        assert!(
            a.starts_with(e),
            "ANALYZE line must extend the EXPLAIN line:\n  {e}\n  {a}"
        );
        assert!(a.contains("rows") && a.contains("pages"), "{a}");
    }
    assert!(analyze_lines.last().unwrap().starts_with("total:"), "{rendered}");
    // The shared renderer keeps the documented indentation scheme.
    assert!(explain_lines[1].starts_with("└─ "), "{explain}");
    assert!(explain_lines[2].starts_with("   └─ "), "{explain}");
}

/// Page accesses per stage.
fn stage_pages(r: &AnalyzeReport) -> Vec<u64> {
    r.stages.iter().map(|st| st.pool.accesses()).collect()
}

#[test]
fn concurrent_reports_count_only_their_own_pages() {
    let mut s = stored();
    let twig = planned(&s, TWIG);
    // A second plan whose chain stage gathers its two posting lists on
    // morsel workers when run with 2 threads.
    const CHAIN: &str = r#"document("t")/{auth}descendant::item/{auth}child::orderline"#;
    let chain = planned(&s, CHAIN);
    twig.prepare(&mut s);
    chain.prepare(&mut s);
    let s = &s;
    let solo = |plan: &PathPlan, threads: usize| {
        plan.execute_shared_analyze(s, threads, None).unwrap(); // warm the pool
        stage_pages(&plan.execute_shared_analyze(s, threads, None).unwrap().1)
    };
    let runs = [(&twig, 1, solo(&twig, 1)), (&chain, 2, solo(&chain, 1))];
    for (_, _, pages) in &runs {
        assert!(pages.iter().sum::<u64>() > 0, "the plans touch pages");
    }
    // Both plans start each round together, so their stages overlap.
    let rounds = std::sync::Barrier::new(runs.len());
    std::thread::scope(|scope| {
        for (plan, threads, want) in &runs {
            let rounds = &rounds;
            scope.spawn(move || {
                for _ in 0..40 {
                    rounds.wait();
                    let (_, report) = plan.execute_shared_analyze(s, *threads, None).unwrap();
                    assert_eq!(&stage_pages(&report), want, "per-stage pages");
                    assert_eq!(report.pool.accesses(), want.iter().sum::<u64>(), "total");
                }
            });
        }
    });
}

/// Page accesses of the (single) chain stage of `text`, one thread.
fn chain_pages(s: &mut StoredDb, text: &str) -> u64 {
    let (_, report) = planned(s, text).execute_analyze(s).unwrap();
    let chains: Vec<_> = report
        .stages
        .iter()
        .filter(|st| st.label.starts_with("holistic chain join"))
        .collect();
    assert_eq!(chains.len(), 1, "{text}");
    chains[0].pool.accesses()
}

#[test]
fn chain_predicate_is_tested_once_per_pushed_node() {
    // The TQ9 shape: every item is a chain root, so each is tested
    // exactly once (one heap page for its `cost` child) no matter how
    // many order lines join below it; the rest is the two posting scans.
    let mut s = stored();
    let auth = s.db.color("auth").unwrap();
    let items = s.postings_named(auth, "item").unwrap().len() as u64;
    let tq9 = chain_pages(
        &mut s,
        r#"document("t")/{auth}descendant::item[{auth}child::cost > 10000]/{auth}child::orderline"#,
    );
    let item_scan = chain_pages(&mut s, r#"document("t")/{auth}descendant::item"#);
    let line_scan = chain_pages(&mut s, r#"document("t")/{auth}descendant::orderline"#);
    assert!(items > 0);
    assert_eq!(tq9, item_scan + line_scan + items);
}

#[test]
fn chain_predicate_skips_nodes_no_matching_path_reaches() {
    // Orders are tested (one heap page each for `status`) only under
    // the addresses the content-index entry matched, never all orders.
    let data = data();
    let city = data.addresses[0].city.clone();
    let mut s = StoredDb::build(data.build_mct(), 64 * 1024 * 1024).unwrap();
    let ship = s.db.color("ship").unwrap();
    let all_orders = s.postings_named(ship, "order").unwrap().len() as u64;
    let address =
        format!(r#"document("t")/{{ship}}descendant::address[{{ship}}child::city = "{city}"]"#);
    let under = planned(&s, &format!("{address}/{{ship}}child::order"))
        .execute(&mut s)
        .unwrap()
        .len() as u64;
    assert!(0 < under && under < all_orders, "{under} of {all_orders}");
    let chain = chain_pages(
        &mut s,
        &format!(
            r#"{address}/{{ship}}child::order[{{ship}}child::status = "SHIPPED"]/{{ship}}child::orderline"#
        ),
    );
    let order_scan = chain_pages(&mut s, r#"document("t")/{ship}descendant::order"#);
    let line_scan = chain_pages(&mut s, r#"document("t")/{ship}descendant::orderline"#);
    assert_eq!(chain, order_scan + line_scan + under);
}
