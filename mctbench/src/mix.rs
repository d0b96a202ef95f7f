//! The seeded request mix over a generated TPC-W store.
//!
//! Reads are six planner-covered path shapes from the paper's Table 2,
//! with literals drawn by the seed from small pools: 16 customers, 4
//! thresholds each for TQ2 and TQ9, and every city with orders shipped
//! to it (10 at the TPC-W generator's defaults). That gives 60 distinct
//! texts, well inside the server's 256-entry plan cache. The city pool
//! is whole because a crossing's cost depends strongly on the city, and
//! a drawn subset moved the read p99 by 20% from seed to seed.
//!
//! | shape | weight | what it exercises                             |
//! |-------|--------|-----------------------------------------------|
//! | TQ1   | 1      | point lookup through the content index        |
//! | TQ2   | 1      | selection scan with a numeric predicate       |
//! | TQ13  | 5      | same-color chain join                         |
//! | TQ9   | 1      | large result (chain join, many rows rendered) |
//! | TQ3   | 1      | color crossing (cross-tree link probe)        |
//! | TQ10  | 1      | color crossing with a parent step after it    |
//!
//! The shapes' latencies form separate bands. With equal weights the
//! read median falls on the boundary between two bands and jumps
//! between them from run to run. TQ13 makes up half the reads, so the
//! median lies inside the chain join's band: three faster shapes sit
//! below it and two slower ones above, and on the mixed workload the
//! reads stalled behind updates do not reach it.
//!
//! Updates (on the mixed workload) are content replacements shaped like
//! TU2 (an item's cost) and TU3 (the status of every order shipped to a
//! city). Their values are chosen so that no read's reply changes: a
//! new cost keeps the item on the same side of every TQ9 threshold, and
//! no read shape renders or filters on order status. Every read reply
//! therefore has one correct body for the whole run.
//!
//! Request `i` is a pure function of the seed and `i`, so a replay of
//! the same numbers issues the same requests.

use mct_workloads::rng::XorShiftRng;
use mct_workloads::TpcwData;

/// Customers in the TQ1/TQ3 literal pool.
const UNAMES: usize = 16;

/// Order statuses the TPC-W generator uses.
const STATUSES: &[&str] = &["PENDING", "PROCESSING", "SHIPPED", "DELIVERED", "CANCELLED"];

/// One request.
#[derive(Clone, Debug, PartialEq)]
pub enum Req {
    /// Index into [`Mix::reads`].
    Read(usize),
    Update(Update),
}

/// An update and the state it leaves behind.
#[derive(Clone, Debug, PartialEq)]
pub enum Update {
    /// TU2: set the cost of the item titled `title`.
    ItemCost { title: String, cost: u32 },
    /// TU3: set the status of every order shipped to `city`.
    CityStatus { city: String, status: &'static str },
}

impl Update {
    pub fn text(&self) -> String {
        match self {
            Update::ItemCost { title, cost } => format!(
                r#"for $i in document("tpcw")/{{auth}}descendant::item where $i/{{auth}}child::title = "{title}" update $i {{ replace value of $i/{{auth}}child::cost with "{cost}" }}"#
            ),
            Update::CityStatus { city, status } => format!(
                r#"for $o in document("tpcw")/{{ship}}descendant::address[{{ship}}child::city = "{city}"]/{{ship}}child::order update $o {{ replace value of $o/{{ship}}child::status with "{status}" }}"#
            ),
        }
    }

    /// A read whose reply holds exactly the value(s) this update wrote.
    pub fn readback(&self) -> String {
        match self {
            Update::ItemCost { title, .. } => format!(
                r#"document("tpcw")/{{auth}}descendant::item[{{auth}}child::title = "{title}"]/{{auth}}child::cost"#
            ),
            Update::CityStatus { city, .. } => format!(
                r#"document("tpcw")/{{ship}}descendant::address[{{ship}}child::city = "{city}"]/{{ship}}child::order/{{ship}}child::status"#
            ),
        }
    }

    /// The value every node [`Update::readback`] returns must hold.
    pub fn value(&self) -> String {
        match self {
            Update::ItemCost { cost, .. } => cost.to_string(),
            Update::CityStatus { status, .. } => status.to_string(),
        }
    }

    /// Updates that write the same nodes share a key.
    pub fn target(&self) -> String {
        match self {
            Update::ItemCost { title, .. } => format!("item {title}"),
            Update::CityStatus { city, .. } => format!("city {city}"),
        }
    }
}

/// The read texts and the update generator of one seeded run.
pub struct Mix {
    seed: u64,
    /// Distinct read texts, by shape then literal.
    pub reads: Vec<String>,
    /// Every `update_every`-th request is an update (0: read only).
    update_every: u64,
    /// TU2 targets: (title, original cost).
    items: Vec<(String, u32)>,
    /// TQ9 cost thresholds, ascending.
    cost_thresholds: Vec<u32>,
    /// TU3 targets: cities that have orders shipped to them.
    cities: Vec<String>,
}

/// Draw `k` distinct elements of `pool` (all of it if shorter).
fn pick<T: Clone>(rng: &mut XorShiftRng, pool: &[T], k: usize) -> Vec<T> {
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    let k = k.min(pool.len());
    for i in 0..k {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
    }
    idx[..k].iter().map(|&i| pool[i].clone()).collect()
}

impl Mix {
    pub fn new(data: &TpcwData, seed: u64, update_every: u64) -> Mix {
        let mut rng = XorShiftRng::seed_from_u64(seed ^ 0x006D_6978);
        let mut with_orders: Vec<usize> = data.orders.iter().map(|o| o.customer).collect();
        with_orders.sort_unstable();
        with_orders.dedup();
        let unames: Vec<String> = pick(&mut rng, &with_orders, UNAMES)
            .into_iter()
            .map(|c| data.customers[c].uname.clone())
            .collect();
        let mut ship_cities: Vec<String> = data
            .orders
            .iter()
            .map(|o| data.addresses[o.ship_addr].city.clone())
            .collect();
        ship_cities.sort_unstable();
        ship_cities.dedup();
        // Thresholds are stratified, one per quarter of their range, so
        // every seed's pool has about the same selectivity.
        let totals: Vec<u32> = (0..4)
            .map(|k| 90_000 + 2_000 * k + rng.gen_range(0u32..2_000))
            .collect();
        let cost_thresholds: Vec<u32> = (0..4)
            .map(|k| 9_000 + 500 * k + rng.gen_range(0u32..500))
            .collect();

        let mut reads = Vec::new();
        for u in &unames {
            reads.push(format!(
                r#"document("tpcw")/{{cust}}descendant::customer[{{cust}}child::uname = "{u}"]/{{cust}}child::name"#
            ));
        }
        for t in &totals {
            reads.push(format!(
                r#"document("tpcw")/{{cust}}descendant::order[{{cust}}child::total > {t}]"#
            ));
        }
        for c in &ship_cities {
            reads.push(format!(
                r#"document("tpcw")/{{ship}}descendant::address[{{ship}}child::city = "{c}"]/{{ship}}child::order/{{ship}}child::orderline"#
            ));
        }
        for t in &cost_thresholds {
            reads.push(format!(
                r#"document("tpcw")/{{auth}}descendant::item[{{auth}}child::cost > {t}]/{{auth}}child::orderline"#
            ));
        }
        for u in &unames {
            reads.push(format!(
                r#"document("tpcw")/{{cust}}descendant::customer[{{cust}}child::uname = "{u}"]/{{cust}}descendant::orderline/{{auth}}parent::item/{{auth}}child::title"#
            ));
        }
        for c in &ship_cities {
            reads.push(format!(
                r#"document("tpcw")/{{ship}}descendant::address[{{ship}}child::city = "{c}"]/{{ship}}descendant::orderline/{{auth}}parent::item/{{auth}}parent::author"#
            ));
        }

        let items: Vec<(String, u32)> = data
            .items
            .iter()
            .map(|i| (i.title.clone(), i.cost))
            .collect();
        Mix {
            seed,
            reads,
            update_every,
            items: pick(&mut rng, &items, 16),
            cost_thresholds,
            cities: ship_cities,
        }
    }

    /// Shapes in the read mix, in [`Mix::reads`] order, with the number
    /// of texts each has and its weight in the mix.
    pub fn shapes(&self) -> [(&'static str, usize, u32); 6] {
        let (users, cities) = (UNAMES, self.cities.len());
        [
            ("TQ1", users, 1),
            ("TQ2", 4, 1),
            ("TQ13", cities, 5),
            ("TQ9", 4, 1),
            ("TQ3", users, 1),
            ("TQ10", cities, 1),
        ]
    }

    pub fn is_update(&self, i: u64) -> bool {
        self.update_every > 0 && i % self.update_every == self.update_every - 1
    }

    /// Request number `i`.
    pub fn request(&self, i: u64) -> Req {
        let mut rng =
            XorShiftRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(i));
        if !self.is_update(i) {
            // A shape by weight, then one of its literals uniformly.
            let total: u32 = self.shapes().iter().map(|s| s.2).sum();
            let mut pick = rng.gen_range(0..total);
            let mut first = 0;
            for (_, count, weight) in self.shapes() {
                if pick < weight {
                    return Req::Read(first + rng.gen_range(0..count));
                }
                pick -= weight;
                first += count;
            }
            unreachable!("pick < total weight");
        }
        if rng.gen_bool(0.5) {
            let (title, cost) = &self.items[rng.gen_range(0..self.items.len())];
            Req::Update(Update::ItemCost {
                title: title.clone(),
                cost: self.same_band_cost(&mut rng, *cost),
            })
        } else {
            Req::Update(Update::CityStatus {
                city: self.cities[rng.gen_range(0..self.cities.len())].clone(),
                status: STATUSES[rng.gen_range(0..STATUSES.len())],
            })
        }
    }

    /// A cost with as many digits as `cost` and on the same side of
    /// every TQ9 threshold, so no TQ9 reply changes.
    fn same_band_cost(&self, rng: &mut XorShiftRng, cost: u32) -> u32 {
        let digits = cost.to_string().len() as u32;
        let mut lo = 10u32.pow(digits - 1);
        let mut hi = 10u32.pow(digits) - 1;
        for &t in &self.cost_thresholds {
            if cost > t {
                lo = lo.max(t + 1);
            } else {
                hi = hi.min(t);
            }
        }
        rng.gen_range(lo..=hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mct_workloads::TpcwConfig;

    #[test]
    fn requests_are_a_function_of_seed_and_index() {
        let data = TpcwData::generate(&TpcwConfig {
            scale: 0.05,
            seed: 3,
        });
        let a = Mix::new(&data, 11, 20);
        let b = Mix::new(&data, 11, 20);
        assert_eq!(a.reads.len(), 60);
        assert_eq!(a.reads, b.reads);
        for i in 0..200 {
            assert_eq!(a.request(i), b.request(i));
            assert_eq!(matches!(a.request(i), Req::Update(_)), i % 20 == 19);
        }
        let c = Mix::new(&data, 12, 20);
        assert!((0..200).any(|i| a.request(i) != c.request(i)));
    }

    #[test]
    fn new_costs_stay_in_their_band() {
        let data = TpcwData::generate(&TpcwConfig {
            scale: 0.05,
            seed: 3,
        });
        let mix = Mix::new(&data, 5, 2);
        let mut rng = XorShiftRng::seed_from_u64(1);
        for cost in [100u32, 999, 5_000, 9_500, 10_500, 19_999] {
            for _ in 0..50 {
                let v = mix.same_band_cost(&mut rng, cost);
                assert_eq!(v.to_string().len(), cost.to_string().len());
                for &t in &mix.cost_thresholds {
                    assert_eq!(v > t, cost > t, "{cost} -> {v} across {t}");
                }
            }
        }
    }
}
